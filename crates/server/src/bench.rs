//! The peak resident memory of this process, read from
//! `/proc/self/status`, for benchmark reports.

/// Lifetime peak resident set size of this process, from
/// `/proc/self/status` `VmHWM` (kB → bytes) — the kernel's own high
/// watermark, so it catches spikes between point samples. `None` off
/// Linux or if the field is missing.
pub fn rss_peak_bytes() -> Option<u64> {
    proc_status_kb("VmHWM:").map(|kb| kb * 1024)
}

/// One kB-denominated field out of `/proc/self/status`.
fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn rss_is_observable_on_linux() {
        let rss = proc_status_kb("VmRSS:").expect("VmRSS readable") * 1024;
        assert!(rss > 0);
        let peak = rss_peak_bytes().expect("VmHWM readable");
        assert!(peak >= rss / 2, "peak {peak} implausibly below rss {rss}");
    }
}
