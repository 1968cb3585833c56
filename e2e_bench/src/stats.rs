//! The benchmark's own arithmetic: percentiles, medians, memory.

/// A reported percentile must have at least this many samples beyond
/// it; otherwise it describes a handful of outliers, not the tail.
const MIN_BEYOND: usize = 10;

/// The `q`-quantile of `sorted` (ascending), lowered until at least
/// [`MIN_BEYOND`] samples lie beyond it, but never below the median.
///
/// With fewer than ~1,000 samples a "p99" is therefore a lower
/// percentile, and with fewer than ~20 it is the median — which is what
/// happens on `sim_soak_5k`, where a sample is a whole soak repetition.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let wanted = ((q * n as f64) as usize).min(n - 1);
    let highest_allowed = n.saturating_sub(MIN_BEYOND + 1);
    sorted[wanted.min(highest_allowed).max(n / 2)]
}

/// Sorts `values` and returns the middle one (the upper middle for an
/// even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// `VmHWM` (peak resident set) in MB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// `a / b`, or 0 when `b` is 0 (a ratio over no events).
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_with_plenty_of_samples_is_the_plain_quantile() {
        // 2,000 samples: index 1980 has 19 samples beyond it.
        assert_eq!(percentile(&ramp(2000), 0.99), 1980.0);
        assert_eq!(percentile(&ramp(2000), 0.50), 1000.0);
    }

    #[test]
    fn p99_is_lowered_until_ten_samples_lie_beyond() {
        // 500 samples: plain p99 is index 495 (4 beyond); the rule
        // lowers it to index 489, which has exactly 10 beyond.
        assert_eq!(percentile(&ramp(500), 0.99), 489.0);
    }

    #[test]
    fn a_handful_of_samples_collapses_to_the_median() {
        assert_eq!(percentile(&ramp(16), 0.99), 8.0);
        assert_eq!(percentile(&ramp(16), 0.50), 8.0);
        assert_eq!(percentile(&ramp(1), 0.99), 0.0);
    }

    #[test]
    fn median_of_windows() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [5.0]), 5.0);
        assert_eq!(median(&mut [4.0, 1.0]), 4.0);
    }

    #[test]
    fn vm_hwm_parses_kb_to_mb() {
        let status = "Name:\te2e\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mb("Name:\te2e\n"), None);
    }

    #[test]
    fn ratio_over_nothing_is_zero() {
        assert_eq!(ratio(3, 0), 0.0);
        assert_eq!(ratio(3, 2), 1.5);
    }
}
