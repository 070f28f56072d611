//! `scenario check` over spec files: the horizon and population caps are
//! enforced at validation and reported through the exit code, and so are
//! engine settings that contradict each other.

use std::path::PathBuf;
use std::process::Command;

use avmem_scenario::builtin::builtin_source;
use avmem_scenario::ScenarioSpec;

/// Writes `source` to a spec file named `name` and runs `scenario check`
/// on it, returning whether it passed and its stderr.
fn check_source(name: &str, source: &str) -> (bool, String) {
    let path: PathBuf = [env!("CARGO_TARGET_TMPDIR"), name].iter().collect();
    std::fs::write(&path, source).expect("write spec");
    let out = Command::new(env!("CARGO_BIN_EXE_scenario"))
        .arg("check")
        .arg(&path)
        .output()
        .expect("run scenario check");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn smoke_source() -> String {
    builtin_source("smoke").expect("smoke built-in exists").to_string()
}

/// Runs `scenario check` on the `smoke` built-in with the given warm-up
/// and duration.
fn check_with(warmup_mins: u64, duration_mins: u64) -> (bool, String) {
    let source = smoke_source()
        .replace("warmup_mins = 720", &format!("warmup_mins = {warmup_mins}"))
        .replace(
            "duration_mins = 60",
            &format!("duration_mins = {duration_mins}"),
        );
    check_source(&format!("check-{warmup_mins}-{duration_mins}.toml"), &source)
}

/// Runs `scenario check` on the `smoke` built-in with `hosts` hosts.
fn check_hosts(hosts: u64) -> (bool, String) {
    let source = smoke_source().replace("hosts = 120", &format!("hosts = {hosts}"));
    assert!(source.contains(&format!("hosts = {hosts}")));
    check_source(&format!("check-hosts-{hosts}.toml"), &source)
}

#[test]
fn check_accepts_the_horizon_cap_and_rejects_past_it() {
    let cap = ScenarioSpec::MAX_HORIZON_MINS;
    assert_eq!(cap, 71_582);
    let (ok, stderr) = check_with(0, cap);
    assert!(ok, "the cap itself must pass: {stderr}");
    let (ok, stderr) = check_with(0, cap + 1);
    assert!(!ok, "one minute past the cap must fail");
    assert!(stderr.contains("71582"), "error names the cap: {stderr}");
    let (ok, _) = check_with(720, cap);
    assert!(!ok, "warm-up counts toward the horizon");
}

#[test]
fn check_rejects_a_duration_whose_milliseconds_overflow() {
    let (ok, stderr) = check_with(720, 400_000_000_000_000);
    assert!(!ok, "an overflowing duration must fail");
    assert!(stderr.contains("71582"), "{stderr}");
}

#[test]
fn check_rejects_more_hosts_than_u32_ids() {
    let (ok, stderr) = check_hosts(u64::from(u32::MAX));
    assert!(ok, "the cap itself must pass: {stderr}");
    let (ok, stderr) = check_hosts(u64::from(u32::MAX) + 1);
    assert!(!ok, "one host past the cap must fail");
    assert!(stderr.contains("4294967295"), "error names the cap: {stderr}");
}

#[test]
fn check_rejects_serial_with_a_contradicting_shard_or_thread_count() {
    let sharded = "engine = \"sharded\"";
    assert!(smoke_source().contains(sharded));
    let (ok, stderr) = check_source(
        "check-serial-1x1.toml",
        &smoke_source().replace(sharded, "engine = \"serial\"\nshards = 1\nthreads = 1"),
    );
    assert!(ok, "serial at 1 shard x 1 thread must pass: {stderr}");
    for (extra, key) in [("shards = 4", "shards"), ("threads = 8", "threads")] {
        let source = smoke_source().replace(sharded, &format!("engine = \"serial\"\n{extra}"));
        let (ok, stderr) = check_source(&format!("check-serial-{key}.toml"), &source);
        assert!(!ok, "serial with {extra:?} must fail");
        assert!(stderr.contains(key), "error names the key: {stderr}");
    }
}

#[test]
fn run_rejects_serial_with_a_contradicting_shard_or_thread_count() {
    for flag in ["--shards", "--threads"] {
        let out = Command::new(env!("CARGO_BIN_EXE_scenario"))
            .args(["run", "smoke", "--engine", "serial", flag, "4"])
            .output()
            .expect("run scenario");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "error names the flag: {stderr}");
    }
}
