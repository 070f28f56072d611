//! `scenario check` over spec files: the horizon cap is enforced at
//! validation and reported through the exit code.

use std::path::PathBuf;
use std::process::Command;

use avmem_scenario::builtin::builtin_source;
use avmem_scenario::ScenarioSpec;

/// Writes the `smoke` built-in with the given warm-up and duration to a
/// spec file and runs `scenario check` on it.
fn check_with(warmup_mins: u64, duration_mins: u64) -> (bool, String) {
    let source = builtin_source("smoke")
        .expect("smoke built-in exists")
        .replace("warmup_mins = 720", &format!("warmup_mins = {warmup_mins}"))
        .replace(
            "duration_mins = 60",
            &format!("duration_mins = {duration_mins}"),
        );
    let path: PathBuf = [
        env!("CARGO_TARGET_TMPDIR"),
        &format!("check-{warmup_mins}-{duration_mins}.toml"),
    ]
    .iter()
    .collect();
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
