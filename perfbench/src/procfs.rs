//! Process counters read from `/proc/self`, sampled at phase boundaries.
//!
//! Every reader returns 0 where the proc filesystem is absent, so the
//! benchmark still runs (with zeroed memory/fault figures) elsewhere.

/// Minor page faults the process has taken so far (field 10 of
/// `/proc/self/stat`). First-touch faults on fresh allocations land here.
pub fn minflt() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name (field 2) is parenthesised and may hold spaces;
    // fields after the last `)` start at field 3 (state).
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(10 - 3))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// Resident set size now (`VmRSS`), MiB.
pub fn rss_mib() -> f64 {
    status_kib("VmRSS:") as f64 / 1024.0
}

/// Peak resident set size since the last [`reset_peak`] (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") as f64 / 1024.0
}

/// Resets the `VmHWM` mark to the current RSS, so the next
/// [`peak_rss_mib`] covers only what runs after this call. Without it the
/// mark is the peak over the whole process lifetime.
pub fn reset_peak() {
    // Best effort: where the write is refused the mark stays the process
    // peak, which still bounds the solve's own peak from above.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn status_kib(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|line| {
                line.strip_prefix(key)
                    .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}
