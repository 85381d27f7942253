//! Host readings of the benchmark's own process, from Linux `/proc`.

use std::fs;

/// Clock ticks per second of `/proc/self/stat`'s `utime`/`stime`
/// (`USER_HZ`, fixed at 100 on every Linux ABI the benchmark targets).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds the process has used so far, all threads
/// included (exited ones too).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields count from the
    // closing parenthesis. utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(user), Some(sys)) => (user + sys) / TICKS_PER_S,
        _ => 0.0,
    }
}

/// A `/proc/self/status` memory line (`VmHWM`, `VmRSS`, ...) in MiB.
fn status_mib(key: &str) -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| {
            let value = line.strip_prefix(key)?.strip_prefix(':')?;
            value.split_whitespace().next()?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM")
}

/// The process's current resident set (`VmRSS`) in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS")
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(peak_rss_mib() > 0.0);
        assert!(rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
