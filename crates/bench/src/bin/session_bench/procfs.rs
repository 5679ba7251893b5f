//! Process accounting read from `/proc/self`: CPU seconds over all threads
//! and resident-set sizes. Parsing is split from reading so it can be
//! tested on captured text.

/// Kernel clock ticks per second for `/proc/self/stat`'s `utime`/`stime`.
/// Linux has fixed `USER_HZ` at 100 on every architecture this workspace
/// builds for; reading it through `sysconf` would need libc.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/self/stat`.
///
/// The second field (`comm`) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`:
/// `utime` and `stime` are the 14th and 15th fields of the line, i.e. the
/// 12th and 13th after `comm`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// A `Vm*` line of `/proc/self/status` (`VmHWM`, `VmRSS`), in MB.
pub fn parse_status_mb(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|l| {
        l.strip_prefix(key)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    let mut parts = line[key.len() + 1..].split_ascii_whitespace();
    let value: f64 = parts.next()?.parse().ok()?;
    match parts.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// CPU seconds this process has used so far (all threads, user + system).
/// Reads 0 where `/proc` is unavailable — the benchmark targets Linux.
pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s))
        .unwrap_or(0.0)
}

fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_mb(&s, key))
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Current resident set of this process (`VmRSS`), MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_comm() {
        // comm = "a b) (c": spaces and parentheses inside the name.
        let stat = "4242 (a b) (c) S 1 4242 4242 0 -1 4194304 1200 0 0 0 \
                    250 50 0 0 20 0 3 0 100 1000000 300 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.0));
    }

    #[test]
    fn stat_cpu_rejects_truncated_lines() {
        assert_eq!(parse_stat_cpu_s("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_s("no parenthesis at all"), None);
    }

    #[test]
    fn status_finds_exact_keys_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\n";
        assert_eq!(parse_status_mb(status, "VmHWM"), Some(200.0));
        assert_eq!(parse_status_mb(status, "VmRSS"), Some(100.0));
        assert_eq!(parse_status_mb(status, "VmSwap"), None);
        // A key that is a prefix of another line's key must not match it.
        assert_eq!(parse_status_mb("VmHWMX:\t1 kB\n", "VmHWM"), None);
        assert_eq!(parse_status_mb("VmHWM:\t12 pages\n", "VmHWM"), None);
    }

    #[test]
    fn live_readings_are_sane_on_linux() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(peak_rss_mb() >= rss_mb() * 0.5);
            assert!(rss_mb() > 0.0);
            assert!(cpu_s() >= 0.0);
        }
    }
}
