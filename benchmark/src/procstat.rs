//! Process accounting read from `/proc/self` (Linux only; the harness
//! has no libc binding for `getrusage`).

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// has reported `USER_HZ = 100` on every architecture since 2.6.
const CLK_TCK: f64 = 100.0;

/// Cumulative CPU time and minor page faults of this process (all
/// threads; children are accounted separately by the kernel).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: f64,
    /// Hypervisor steal on this machine, all CPUs ([`host_steal_s`]).
    pub steal_s: f64,
}

impl ProcSample {
    /// Read the current counters; zeros when `/proc` is unreadable.
    pub fn now() -> ProcSample {
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name, which may itself
        // contain spaces: state is field 3, so minflt (10) is index 7,
        // utime (14) index 11 and stime (15) index 12 from there.
        let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
        let field = |i: usize| -> f64 {
            rest.split_ascii_whitespace()
                .nth(i)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0.0)
        };
        ProcSample {
            user_s: field(11) / CLK_TCK,
            sys_s: field(12) / CLK_TCK,
            minor_faults: field(7),
            steal_s: host_steal_s(),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
            steal_s: self.steal_s - earlier.steal_s,
        }
    }

    /// User plus kernel CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Seconds the hypervisor has run something else while this machine's
/// CPUs had work (`steal` of `/proc/stat`, all CPUs; 0 if unknown).
/// The benchmark cannot correct for it, but a run during which it grew
/// was not measured on a quiet machine.
pub fn host_steal_s() -> f64 {
    fs::read_to_string("/proc/stat")
        .unwrap_or_default()
        .lines()
        .next()
        .and_then(|cpu| cpu.split_ascii_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / CLK_TCK)
}

/// The CPUs this process may run on (`Cpus_allowed_list` of
/// `/proc/self/status`, e.g. `0-1` or `0,2-3`), as the kernel wrote it.
pub fn cpus_allowed_list() -> Option<String> {
    fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(|v| v.trim().to_string())
}

/// The highest-numbered CPU of a kernel CPU list such as `0,2-3`.
pub fn last_cpu_of(list: &str) -> Option<usize> {
    list.rsplit([',', '-']).next()?.trim().parse().ok()
}

fn status_kib(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB: since the
/// process started, or since the last [`reset_peak_rss`] that worked.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Reset the kernel's peak-RSS watermark to the current RSS (`5` into
/// `/proc/self/clear_refs`, Linux ≥ 4.0), so the next reading is the
/// peak of the interval in between. Where the file is not writable the
/// watermark simply stays the process-wide one.
pub fn reset_peak_rss() {
    // Ignored on purpose: the fallback reading is still a valid peak.
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Largest cache the kernel reports for cpu0, in bytes (0 if unknown).
pub fn llc_bytes() -> u64 {
    let mut best = 0u64;
    for idx in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}/size");
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (digits, mult) = match text.as_bytes().last() {
            Some(b'K') => (&text[..text.len() - 1], 1u64 << 10),
            Some(b'M') => (&text[..text.len() - 1], 1u64 << 20),
            Some(b'G') => (&text[..text.len() - 1], 1u64 << 30),
            _ => (text, 1),
        };
        if let Ok(v) = digits.parse::<u64>() {
            best = best.max(v * mult);
        }
    }
    best
}

/// CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|v| v.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone_and_rss_positive() {
        let a = ProcSample::now();
        let mut v = vec![1u8; 8 << 20];
        for i in (0..v.len()).step_by(4096) {
            v[i] = v[i].wrapping_add(1);
        }
        std::hint::black_box(&v);
        let d = ProcSample::now().since(&a);
        assert!(d.cpu_s() >= 0.0 && d.minor_faults >= 0.0);
        assert!(peak_rss_mib() > 1.0);
    }

    #[test]
    fn last_cpu_of_kernel_cpu_lists() {
        assert_eq!(last_cpu_of("0-1"), Some(1));
        assert_eq!(last_cpu_of("0,2-3"), Some(3));
        assert_eq!(last_cpu_of("5"), Some(5));
        assert_eq!(last_cpu_of(""), None);
        assert!(cpus_allowed_list().is_some_and(|l| last_cpu_of(&l).is_some()));
    }
}
