//! What `/proc` says about this process: CPU time, peak resident set
//! and context switches. Parsers take text so they are testable without
//! a live `/proc`.

use std::fs;

/// Kernel clock ticks per second as reported in `/proc/<pid>/stat`
/// (`USER_HZ`, 100 on every Linux ABI this workspace targets).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds this process has consumed, from `/proc/self/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTime {
    /// Seconds in user mode, all threads.
    pub user_s: f64,
    /// Seconds in kernel mode, all threads.
    pub sys_s: f64,
}

impl CpuTime {
    /// User plus system seconds.
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Parses the `utime` and `stime` fields (14 and 15) of a
/// `/proc/<pid>/stat` line. The command name (field 2) may itself
/// contain spaces and parentheses, so fields are counted from the last
/// `)`.
pub fn parse_stat(text: &str) -> Option<CpuTime> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTime {
        user_s: utime / TICKS_PER_S,
        sys_s: stime / TICKS_PER_S,
    })
}

/// The value of a `Key:   123 kB`-style line of `/proc/<pid>/status`.
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU time consumed so far by every thread of this process.
pub fn cpu_time() -> CpuTime {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .unwrap_or_default()
}

/// Peak resident set size (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_status_field(&t, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Voluntary plus involuntary context switches summed over the threads
/// alive right now (the kernel keeps these per task, not per process).
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            parse_status_field(&s, "voluntary_ctxt_switches").unwrap_or(0)
                + parse_status_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "4242 (evil) name (x)) S 1 4242 4242 0 -1 4194304 \
                    100 0 0 0 250 75 0 0 20 0 3 0 1000 1000000 200 \
                    18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        let cpu = parse_stat(line).expect("parses");
        assert_eq!(cpu.user_s, 2.5);
        assert_eq!(cpu.sys_s, 0.75);
        assert_eq!(cpu.total_s(), 3.25);
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_parse_by_exact_key() {
        let text = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t    2048 kB\n\
                    voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status_field(text, "VmHWM"), Some(2048));
        assert_eq!(
            parse_status_field(text, "voluntary_ctxt_switches"),
            Some(12)
        );
        assert_eq!(
            parse_status_field(text, "nonvoluntary_ctxt_switches"),
            Some(3)
        );
        assert_eq!(parse_status_field(text, "VmRSS"), None);
    }

    #[test]
    fn live_proc_reads_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_time();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_time().total_s() >= before.total_s());
    }
}
