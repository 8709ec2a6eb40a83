//! Small statistics and reporting helpers: nearest-rank percentiles, the
//! "ten samples beyond" rule, attempt/failure accounting, the result line
//! and the run-time `cpu` block.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank percentile of `samples` (`q` in `(0, 1]`): the smallest
/// sample with at least a `q` share of the samples at or below it. `None`
/// for an empty sample.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil().max(1.0) as usize;
    n.saturating_sub(rank.min(n))
}

/// Whether `n` samples support reporting the `q` percentile: at least ten
/// samples must lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    beyond(n, q) >= 10
}

/// The median of `samples` (nearest rank), 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(samples, 0.5).unwrap_or(0.0)
}

/// Windows a phase is split into: its throughput and latency are medians
/// over them, so a host stall confined to one or two windows does not move
/// them, while a slowdown of the program moves every window. At the
/// clear-sky rates each window holds at least one table swap.
pub const WINDOWS: usize = 5;

/// The median, over up to [`WINDOWS`] consecutive windows of at least
/// `min` samples each, of each window's nearest-rank `q` percentile;
/// the plain percentile when there are fewer than `2 * min` samples.
pub fn windowed_rank(samples: &[f64], q: f64, min: usize) -> Option<f64> {
    let n = samples.len();
    let windows = (n / min.max(1)).clamp(1, WINDOWS);
    let per_window: Vec<f64> = (0..windows)
        .filter_map(|w| nearest_rank(&samples[w * n / windows..(w + 1) * n / windows], q))
        .collect();
    nearest_rank(&per_window, 0.5)
}

/// Frames attempted and frames failed, by cause.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Accounting {
    /// Frames offered to the system under test.
    pub attempted: u64,
    /// Open-loop frames the service refused.
    pub refused: u64,
    /// Admitted frames that were never delivered.
    pub dropped: u64,
    /// Frames delivered out of stream order.
    pub out_of_order: u64,
    /// Frames whose output differs from the reference decode (or, on the
    /// hardware path, hardware vs golden, fabric vs bare core, or
    /// simulated cycles vs Eq. 8).
    pub mismatched: u64,
}

impl Accounting {
    /// Every failed frame, whatever the cause.
    pub fn failed(&self) -> u64 {
        self.refused + self.dropped + self.out_of_order + self.mismatched
    }

    /// Failed frames over attempted frames (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Whether every correctness check held. Refusals are failures but not
    /// violations: the service refusing a frame is allowed behaviour.
    pub fn correct(&self) -> bool {
        self.dropped == 0 && self.out_of_order == 0 && self.mismatched == 0
    }
}

/// Named metrics with units, in insertion-independent (sorted) order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Records (or overwrites) one metric.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value: every reported number must be a
    /// measurement.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, (value, unit));
    }

    /// The value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    /// The subset named by `names`, failing on any missing name.
    pub fn select(&self, names: &[&str]) -> Result<Metrics, String> {
        let mut out = Metrics::default();
        for &name in names {
            let &(v, unit) =
                self.values.get(name).ok_or_else(|| format!("metric {name} missing"))?;
            out.values.insert(name.to_owned(), (v, unit));
        }
        Ok(out)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, (value, unit))) in self.values.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ =
                write!(s, "{}: {{\"value\": {}, \"unit\": {}}}", quote(name), value, quote(unit));
        }
        s.push('}');
        s
    }
}

/// A JSON string literal.
pub fn quote(text: &str) -> String {
    let mut s = String::with_capacity(text.len() + 2);
    s.push('"');
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

/// The result line the benchmark prints last.
pub fn result_line(acc: &Accounting, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        acc.correct(),
        acc.attempted.max(1),
        acc.failed(),
        metrics.to_json()
    )
}

/// A size field of this process's `/proc/self/status` (`VmRSS`, `VmHWM`)
/// in MiB, read at run time; 0 where `/proc` is unavailable.
pub fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host as seen at run time: usable cores and the SIMD dispatch tier
/// the decoders will pick.
pub fn cpu_block() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tier = dvbs2::decoder::SimdTier::detect();
    let features: Vec<String> =
        dvbs2::decoder::detected_cpu_features().iter().map(|f| quote(f)).collect();
    format!(
        "{{\"cores\": {cores}, \"dispatch_tier\": {}, \"features\": [{}]}}",
        quote(tier.name()),
        features.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&samples, 0.95), Some(95.0));
        assert_eq!(nearest_rank(&samples, 0.951), Some(96.0));
        assert_eq!(nearest_rank(&samples, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&[7.0], 0.95), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        // Order of the input does not matter.
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(nearest_rank(&shuffled, 0.5), Some(3.0));
        assert_eq!(nearest_rank(&shuffled, 0.8), Some(4.0));
    }

    #[test]
    fn windowed_rank_ignores_a_stall_confined_to_one_window() {
        // 1000 samples in five windows of 200; window 2 holds a stall.
        let mut samples: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        for s in &mut samples[400..600] {
            *s += 1000.0;
        }
        assert!(nearest_rank(&samples, 0.95).unwrap() > 1000.0);
        assert_eq!(windowed_rank(&samples, 0.95, 200), Some(94.0));
        assert_eq!(windowed_rank(&samples, 0.5, 200), Some(49.0));
        // A slowdown in every window moves the result.
        let slower: Vec<f64> = samples.iter().map(|s| s * 2.0).collect();
        assert_eq!(windowed_rank(&slower, 0.95, 200), Some(188.0));
        // Too few samples for two windows: the plain percentile.
        assert_eq!(windowed_rank(&samples[..399], 0.95, 200), nearest_rank(&samples[..399], 0.95));
        assert_eq!(windowed_rank(&[], 0.5, 200), None);
    }

    #[test]
    fn p95_needs_two_hundred_samples_for_ten_beyond() {
        assert_eq!(beyond(200, 0.95), 10);
        assert!(supports(200, 0.95));
        assert_eq!(beyond(199, 0.95), 9);
        assert!(!supports(199, 0.95));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
    }

    #[test]
    fn failed_frac_counts_every_cause_but_only_violations_break_correctness() {
        let mut acc = Accounting { attempted: 200, ..Accounting::default() };
        assert_eq!((acc.failed(), acc.failed_frac(), acc.correct()), (0, 0.0, true));
        acc.refused = 4;
        assert_eq!(acc.failed(), 4);
        assert!((acc.failed_frac() - 0.02).abs() < 1e-12);
        assert!(acc.correct(), "a refusal is a failure, not a violation");
        acc.out_of_order = 1;
        acc.mismatched = 2;
        acc.dropped = 3;
        assert_eq!(acc.failed(), 10);
        assert!((acc.failed_frac() - 0.05).abs() < 1e-12);
        assert!(!acc.correct());
        assert_eq!(Accounting::default().failed_frac(), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.set("b_ms", 1.25, "ms");
        m.set("a", 3.0, "count");
        let acc = Accounting { attempted: 3, mismatched: 1, ..Accounting::default() };
        assert_eq!(
            result_line(&acc, &m),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"a\": {\"value\": 3, \"unit\": \"count\"}, \"b_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(m.select(&["a", "c"]).is_err());
        assert_eq!(quote("a\"b\\"), "\"a\\\"b\\\\\"");
    }
}
