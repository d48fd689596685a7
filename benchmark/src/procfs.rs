//! What the run costs the host, read from `/proc/self`: peak resident
//! memory and process CPU time (all threads).

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI (it is part
/// of the userspace interface, independent of the kernel's `CONFIG_HZ`).
const USER_HZ: f64 = 100.0;

/// Parses the `VmHWM` line of `/proc/<pid>/status` into MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line.split_whitespace().skip(1);
    let value: f64 = fields.next()?.parse().ok()?;
    match fields.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// Parses `utime + stime` (fields 14 and 15) of `/proc/<pid>/stat` into
/// seconds. The command name (field 2) may contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime/stime are fields 14/15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size of this process so far, in MiB (0 when
/// `/proc` is unavailable — the harness then fails its own schema
/// check rather than inventing a number).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .unwrap_or(0.0)
}

/// CPU seconds this process has consumed so far, summed over threads.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_seconds(&s))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_found_and_converted() {
        let status =
            "Name:\tdhp-benchmark\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\nVmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12 pages\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn cpu_time_survives_hostile_command_names() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt
        // cminflt majflt cmajflt utime stime ...
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("no parenthesis here"), None);
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2 3"), None);
    }

    #[test]
    fn live_readings_are_positive_and_monotone() {
        assert!(peak_rss_mib() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
    }
}
