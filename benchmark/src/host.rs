//! What the benchmark reads from the host: the environment stamp,
//! peak resident memory, and per-thread CPU time.

use rlb_json::Json;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Peak resident set of this process (`VmHWM`), in KiB.
pub fn vm_hwm_kb() -> u64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// On-CPU nanoseconds (`schedstat` field 0) of this process's threads
/// whose name starts with one of `prefixes`.
pub fn thread_cpu_ns(prefixes: &[&str]) -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| {
            let dir = t.path();
            let comm = std::fs::read_to_string(dir.join("comm")).ok()?;
            if !prefixes.iter().any(|p| comm.starts_with(p)) {
                return None;
            }
            let stat = std::fs::read_to_string(dir.join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

/// On-CPU nanoseconds of the calling thread.
pub fn this_thread_cpu_ns() -> u64 {
    read("/proc/thread-self/schedstat")
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The checked-out commit, read from `.git` without running git;
/// `"unknown"` outside a git work tree (the acceptance pipeline's
/// checkout is not one).
fn git_commit() -> String {
    let head = match read(".git/HEAD") {
        Some(h) => h.trim().to_string(),
        None => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host half of the environment stamp; the caller appends the run
/// parameters (seed, rounds, window sizes, sampling N).
pub fn stamp() -> Vec<(String, Json)> {
    let cpu_model = read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u128);
    vec![
        ("nproc".into(), Json::UInt(nproc)),
        ("cpu_model".into(), Json::Str(cpu_model)),
        (
            "rustc".into(),
            Json::Str(env!("BENCH_RUSTC_VERSION").into()),
        ),
        ("profile".into(), Json::Str(env!("BENCH_PROFILE").into())),
        ("git_commit".into(), Json::Str(git_commit())),
    ]
}
