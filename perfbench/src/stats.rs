//! The benchmark's arithmetic: the one quantile helper every timing and
//! delay goes through, the open-loop on-time rule, and span self time.

/// Tail percentiles the helper may report, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.99, 99.9, 99.0, 95.0, 90.0];

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A sample's median and its highest well-supported percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The highest percentile in [`TAIL_PERCENTILES`] with at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it; `None` when even p90 has
    /// fewer.
    pub tail: Option<(f64, f64)>,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `pct` percent of the samples at or below it.
fn nearest_rank(sorted: &[f64], pct: f64) -> (usize, f64) {
    // The epsilon keeps binary rounding of `pct` (99.9 is inexact) from
    // pushing an exact rank up by one.
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = (pct * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    let idx = rank.clamp(1, sorted.len()) - 1;
    (idx, sorted[idx])
}

/// Median and highest supported tail percentile of `samples` (sorted
/// in place). `None` for an empty sample.
pub fn quantiles(samples: &mut [f64]) -> Option<Quantiles> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let (_, p50) = nearest_rank(samples, 50.0);
    let tail = TAIL_PERCENTILES
        .iter()
        .find_map(|&pct| supported(samples, pct).map(|value| (pct, value)));
    Some(Quantiles {
        n: samples.len(),
        p50,
        tail,
    })
}

/// The `pct` percentile of an ascending, non-empty slice when at least
/// [`TAIL_MIN_BEYOND`] samples lie beyond it.
fn supported(sorted: &[f64], pct: f64) -> Option<f64> {
    let (idx, value) = nearest_rank(sorted, pct);
    (sorted.len() - 1 - idx >= TAIL_MIN_BEYOND).then_some(value)
}

/// The p99.9 of `samples` (sorted in place), for the metrics named
/// `p999`: `NaN` when fewer than [`TAIL_MIN_BEYOND`] samples lie beyond
/// it, which fails the run that reports it.
pub fn p999(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable_by(f64::total_cmp);
    supported(samples, 99.9).unwrap_or(f64::NAN)
}

/// Median of a small sample (per-pass figures); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    quantiles(&mut v).map_or(f64::NAN, |q| q.p50)
}

/// Share of wakes, in percent, whose `Poll` arrived within `limit_ms`
/// of its due instant, given each served wake's lateness and the count
/// of wakes refused or failed, which all count as missed. `NaN` for no
/// wakes.
pub fn on_time_pct(late_ms: impl IntoIterator<Item = f64>, failed: u64, limit_ms: f64) -> f64 {
    let (mut on_time, mut total) = (0u64, failed);
    for late in late_ms {
        total += 1;
        on_time += u64::from(late <= limit_ms);
    }
    if total == 0 {
        return f64::NAN;
    }
    #[allow(clippy::cast_precision_loss)]
    let pct = on_time as f64 * 100.0 / total as f64;
    pct
}

/// A closed interval of benchmark time, in nanoseconds since the
/// tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start instant.
    pub start: u64,
    /// End instant (`>= start`).
    pub end: u64,
}

impl Span {
    /// The span's length.
    pub fn len(self) -> u64 {
        self.end - self.start
    }
}

/// A parent span's self time: its length minus the part of it that its
/// children cover. Children may overlap one another or stick out of the
/// parent; only their union inside the parent is subtracted. Sorts
/// `children` by start.
pub fn self_ns(parent: Span, children: &mut [Span]) -> u64 {
    children.sort_unstable_by_key(|s| s.start);
    let mut covered = 0;
    let mut cursor = parent.start;
    for child in children.iter() {
        let start = child.start.max(cursor);
        let end = child.end.min(parent.end);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    parent.len() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        #[allow(clippy::cast_precision_loss)]
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn empty_samples_have_no_quantiles() {
        assert_eq!(quantiles(&mut []), None);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        let q = quantiles(&mut ramp(100)).expect("non-empty");
        assert_eq!(q.n, 100);
        assert_eq!(q.p50, 50.0);
        assert_eq!(q.tail, Some((90.0, 90.0)));
        // 99 samples cannot support p90 (9 beyond).
        assert_eq!(quantiles(&mut ramp(99)).expect("non-empty").tail, None);
        // 1000 samples: p99 leaves 10 beyond.
        assert_eq!(
            quantiles(&mut ramp(1000)).expect("non-empty").tail,
            Some((99.0, 990.0))
        );
        // 10 000 samples: p99.9 leaves 10 beyond.
        assert_eq!(
            quantiles(&mut ramp(10_000)).expect("non-empty").tail,
            Some((99.9, 9990.0))
        );
        // 100 000 samples: p99.99 leaves 10 beyond.
        let q = quantiles(&mut ramp(100_000)).expect("non-empty");
        assert_eq!(q.tail, Some((99.99, 99_990.0)));
    }

    #[test]
    fn p999_is_fixed_and_needs_ten_samples_beyond_it() {
        // 10 000 samples leave exactly 10 beyond p99.9; 9 999 leave 9.
        assert_eq!(p999(&mut ramp(10_000)), 9990.0);
        assert!(p999(&mut ramp(9_999)).is_nan());
        assert!(p999(&mut []).is_nan());
        // Where the helper's tail moves on to p99.99, p999 stays put.
        assert_eq!(p999(&mut ramp(100_000)), 99_900.0);
    }

    #[test]
    fn tail_keeps_ties_at_the_top() {
        let mut v = vec![1.0; 990];
        v.extend(std::iter::repeat_n(5.0, 10));
        let q = quantiles(&mut v).expect("non-empty");
        assert_eq!(q.p50, 1.0);
        assert_eq!(q.tail, Some((99.0, 1.0)));
    }

    #[test]
    fn failed_and_late_wakes_miss_the_limit() {
        // Early and exactly-on-the-limit wakes are on time; a late one
        // and a failed one miss.
        assert_eq!(on_time_pct([-0.5, 10.0, 10.5], 1, 10.0), 50.0);
        assert_eq!(on_time_pct([], 1, 10.0), 0.0);
        assert_eq!(on_time_pct([1.0, 2.0], 0, 10.0), 100.0);
        assert!(on_time_pct([], 0, 10.0).is_nan());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = Span {
            start: 100,
            end: 200,
        };
        // Disjoint children.
        let mut kids = [
            Span {
                start: 110,
                end: 120,
            },
            Span {
                start: 150,
                end: 170,
            },
        ];
        assert_eq!(self_ns(parent, &mut kids), 70);
        // Overlapping and out-of-order children count once.
        let mut kids = [
            Span {
                start: 140,
                end: 160,
            },
            Span {
                start: 130,
                end: 150,
            },
        ];
        assert_eq!(self_ns(parent, &mut kids), 70);
        // Nested children count once.
        let mut kids = [
            Span {
                start: 110,
                end: 190,
            },
            Span {
                start: 120,
                end: 130,
            },
        ];
        assert_eq!(self_ns(parent, &mut kids), 20);
        // Children sticking out are clipped to the parent.
        let mut kids = [
            Span {
                start: 90,
                end: 105,
            },
            Span {
                start: 195,
                end: 230,
            },
        ];
        assert_eq!(self_ns(parent, &mut kids), 90);
        // A child outside the parent subtracts nothing; none, all.
        assert_eq!(
            self_ns(
                parent,
                &mut [Span {
                    start: 300,
                    end: 400
                }]
            ),
            100
        );
        assert_eq!(self_ns(parent, &mut []), 100);
        assert_eq!(
            self_ns(
                parent,
                &mut [Span {
                    start: 0,
                    end: 1000
                }]
            ),
            0
        );
    }
}
