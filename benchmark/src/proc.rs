//! Process counters read from `/proc/self`.

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Minor page faults this process has taken so far, all threads included.
/// Freshly mapped memory faults once per page when first touched, so the
/// difference across an operation counts the pages it mapped anew.
pub fn minor_faults() -> Result<u64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name in parentheses may hold spaces; fields after it are
    // space-separated, `minflt` being the eighth (field 10 of proc(5)).
    stat.rsplit_once(") ")
        .and_then(|(_, rest)| rest.split(' ').nth(7))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "no minflt field in /proc/self/stat".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_and_faults_grow_when_pages_are_touched() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        let before = minor_faults().expect("minflt");
        let pages = vec![1u8; 64 << 20];
        std::hint::black_box(&pages);
        assert!(minor_faults().expect("minflt") > before + 1000);
    }
}
