//! What the benchmark reads from `/proc` about its own process.

use std::fs;

/// Linux reports process times in clock ticks of 1/100 s (`USER_HZ`,
/// fixed by the kernel ABI on every supported architecture).
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in ticks from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // After the command: state is field 3, utime 14, stime 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in kB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// The 1-minute load average from the text of `/proc/loadavg`.
pub fn parse_loadavg(loadavg: &str) -> Option<f64> {
    loadavg.split_ascii_whitespace().next()?.parse().ok()
}

/// User + system CPU seconds of all threads of this process so far,
/// exited threads included.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let ticks = parse_stat_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime");
    ticks as f64 / TICKS_PER_SECOND
}

/// Peak resident set of this process so far, in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = parse_vm_hwm_kb(&status).expect("/proc/self/status has VmHWM");
    kb as f64 * 1024.0 / 1e6
}

/// 1-minute load average, or 0 when `/proc/loadavg` is missing.
pub fn loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| parse_loadavg(&s))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_a_hostile_command_name() {
        let stat = "4242 (bench (v2) x) R 1 4242 4242 0 -1 4194304 1523 0 0 0 \
                    731 29 0 0 20 0 3 0 9317 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(760));
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_and_loadavg_parsers() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t  143208 kB\nVmRSS:\t 5 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(143_208));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_loadavg("0.26 1.30 1.33 2/86 20051\n"), Some(0.26));
        assert_eq!(parse_loadavg(""), None);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
