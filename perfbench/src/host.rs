//! The host fingerprint printed with every record, so that numbers from
//! different machines or revisions are never compared.

/// Worker threads of the sharded engine and of every data-parallel loop.
/// One, so the load does not depend on the host's core count. On a
/// shared 2-vCPU host two barrier-synchronised workers made the same
/// run's host times vary by 15–40 % with the neighbours' load, one
/// worker by about 4 %.
pub const THREADS: usize = 1;

/// Shards of the maintenance engine: fixed, so every host splits the
/// population the same way and the cross-shard exchange path runs.
pub const SHARDS: usize = 2;

/// One JSON object describing the host, the revision and the run.
pub fn fingerprint(workload: &str, seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu_max = std::fs::read_to_string("/sys/fs/cgroup/cpu.max")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "none".into());
    format!(
        "{{\"host\": {{\"cpu\": \"{}\", \"nproc\": {nproc}, \"cgroup_cpu_max\": \"{}\", \
         \"sha_ni\": {}, \"git_rev\": \"{}\", \"engine_shards\": {SHARDS}, \
         \"engine_threads\": {THREADS}, \"workload\": \"{workload}\", \"seed\": {seed}}}}}",
        escape(&cpu),
        escape(&cpu_max),
        sha_ni(),
        escape(&git_rev()),
    )
}

fn sha_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("sha")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// (never from a parent directory); `"none"` outside a git checkout.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
