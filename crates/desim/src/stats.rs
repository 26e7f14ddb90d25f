//! Measurement toolkit.
//!
//! Every number reported by the VIP reproduction flows through one of these
//! collectors:
//!
//! * [`Counter`] — monotone event counts (interrupts, frames, instructions),
//! * [`OnlineStats`] — streaming mean/variance/min/max (Welford),
//! * [`Histogram`] — fixed-width binning (tap-interval and burst-length
//!   distributions of Figs 5 and 6),
//! * [`TimeWeighted`] — integrals of a piecewise-constant signal over
//!   simulated time (utilization, occupancy, power states),
//! * [`RateTracker`] — per-window accumulation (the memory-bandwidth
//!   time-distribution of Fig 3d).

use std::fmt;

use crate::time::{SimDelta, SimTime};

/// A monotone event counter.
///
/// # Example
///
/// ```
/// use desim::stats::Counter;
/// let mut irqs = Counter::default();
/// irqs.add(3);
/// irqs.incr();
/// assert_eq!(irqs.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }
    /// Adds `n` to the counter.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }
    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }
    /// Current count.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Streaming mean / variance / extrema over `f64` samples (Welford's
/// algorithm; numerically stable, O(1) per sample).
///
/// # Example
///
/// ```
/// use desim::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] { s.push(x); }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.max(), 3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }
    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }
    /// Population variance (0 when fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }
    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }
    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }
}

/// A fixed-width histogram over `f64` samples.
///
/// Samples below the first bin clamp into it; samples at or above the upper
/// edge land in the overflow bin.
///
/// # Example
///
/// ```
/// use desim::stats::Histogram;
/// let mut h = Histogram::new(0.0, 1.0, 10); // 10 bins of width 0.1
/// h.push(0.05);
/// h.push(0.05);
/// h.push(0.95);
/// h.push(7.0); // overflow
/// assert_eq!(h.bin_count(0), 2);
/// assert_eq!(h.bin_count(9), 1);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    width: f64,
    bins: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram of `nbins` equal bins covering `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo` or `nbins == 0`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(hi > lo && nbins > 0, "bad histogram shape");
        Histogram {
            lo,
            width: (hi - lo) / nbins as f64,
            bins: vec![0; nbins],
            overflow: 0,
            total: 0,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        let idx = (x - self.lo) / self.width;
        if idx < 0.0 {
            self.bins[0] += 1;
        } else if (idx as usize) < self.bins.len() {
            self.bins[idx as usize] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Number of bins (excluding overflow).
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }
    /// Count in bin `i`.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }
    /// Lower edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        self.lo + self.width * i as f64
    }
    /// Upper edge of bin `i`.
    pub fn bin_hi(&self, i: usize) -> f64 {
        self.lo + self.width * (i + 1) as f64
    }
    /// Count of samples at/above the top edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
    /// Total samples.
    pub fn total(&self) -> u64 {
        self.total
    }
    /// Fraction of samples in bin `i` (0 when empty).
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.bins[i] as f64 / self.total as f64
        }
    }
    /// Iterates `(bin_lo, bin_hi, count)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        (0..self.bins.len()).map(move |i| (self.bin_lo(i), self.bin_hi(i), self.bins[i]))
    }

    /// Estimates quantile `q` in `[0, 1]` by linear interpolation inside
    /// the bin containing the `q`-th sample (samples are assumed uniform
    /// within a bin). Overflow samples pin the estimate to the top edge.
    /// Returns 0 when the histogram is empty.
    ///
    /// The error is bounded by one bin width, so with bins sized for the
    /// measurement (e.g. 1 ms frame-latency bins) this yields useful
    /// p50/p95/p99 without retaining samples.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    ///
    /// # Example
    ///
    /// ```
    /// use desim::stats::Histogram;
    /// let mut h = Histogram::new(0.0, 100.0, 100);
    /// for i in 0..100 {
    ///     h.push(i as f64 + 0.5);
    /// }
    /// assert!((h.quantile(0.5) - 50.0).abs() <= 1.0);
    /// assert!((h.quantile(0.95) - 95.0).abs() <= 1.0);
    /// ```
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.total == 0 {
            return 0.0;
        }
        // Rank of the q-th sample, 1-based nearest-rank, clamped into range.
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            if seen + c >= rank {
                // Interpolate within bin i: the (rank - seen)-th of its c
                // samples, assumed evenly spread across the bin.
                let frac = if c == 0 {
                    0.0
                } else {
                    (rank - seen) as f64 / c as f64
                };
                return self.bin_lo(i) + self.width * frac;
            }
            seen += c;
        }
        // Rank falls in the overflow bin: all we know is "at or above hi".
        self.bin_hi(self.bins.len() - 1)
    }
}

/// Integral of a piecewise-constant signal over simulated time.
///
/// Used for utilizations and occupancies: set the level whenever it changes,
/// then read the time-weighted mean over any prefix of the run.
///
/// # Example
///
/// ```
/// use desim::stats::TimeWeighted;
/// use desim::SimTime;
/// let mut u = TimeWeighted::new(SimTime::ZERO, 0.0);
/// u.set(SimTime::from_ns(10), 1.0); // signal 0 for 10ns
/// u.set(SimTime::from_ns(30), 0.0); // signal 1 for 20ns
/// assert!((u.mean(SimTime::from_ns(40)) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWeighted {
    last_t: SimTime,
    level: f64,
    integral: f64, // level × ns
    start: SimTime,
}

impl TimeWeighted {
    /// Creates the signal with an initial level at `start`.
    pub fn new(start: SimTime, level: f64) -> Self {
        TimeWeighted {
            last_t: start,
            level,
            integral: 0.0,
            start,
        }
    }

    /// Changes the level at instant `t`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `t` precedes the previous update.
    pub fn set(&mut self, t: SimTime, level: f64) {
        debug_assert!(t >= self.last_t, "TimeWeighted updated backwards");
        self.integral += self.level * t.saturating_since(self.last_t).as_ns() as f64;
        self.last_t = t;
        self.level = level;
    }

    /// Adds `delta` to the current level at instant `t`.
    pub fn add(&mut self, t: SimTime, delta: f64) {
        let lv = self.level;
        self.set(t, lv + delta);
    }

    /// Current level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Integral of the signal (level × seconds) from start through `t`.
    pub fn integral(&self, t: SimTime) -> f64 {
        let tail = self.level * t.saturating_since(self.last_t).as_ns() as f64;
        (self.integral + tail) / 1e9
    }

    /// Time-weighted mean level from start through `t` (0 over an empty
    /// interval).
    pub fn mean(&self, t: SimTime) -> f64 {
        let span = t.saturating_since(self.start).as_ns();
        if span == 0 {
            return 0.0;
        }
        self.integral(t) * 1e9 / span as f64
    }
}

/// Accumulates a quantity into fixed windows of simulated time, yielding a
/// per-window rate series — e.g. bytes per 1 ms window → a bandwidth
/// timeline (Fig 3d of the paper).
///
/// # Example
///
/// ```
/// use desim::stats::RateTracker;
/// use desim::{SimDelta, SimTime};
/// let mut bw = RateTracker::new(SimDelta::from_ms(1));
/// bw.record(SimTime::from_us(100), 1000.0);
/// bw.record(SimTime::from_us(1500), 500.0);
/// let w = bw.windows(SimTime::from_ms(2));
/// assert_eq!(w, vec![1000.0, 500.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RateTracker {
    window: SimDelta,
    buckets: Vec<f64>,
}

impl RateTracker {
    /// Creates a tracker with the given window size.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero.
    pub fn new(window: SimDelta) -> Self {
        assert!(window > SimDelta::ZERO, "zero window");
        RateTracker {
            window,
            buckets: Vec::new(),
        }
    }

    /// Window size.
    pub fn window(&self) -> SimDelta {
        self.window
    }

    /// Adds `amount` at instant `t`.
    pub fn record(&mut self, t: SimTime, amount: f64) {
        let idx = (t.as_ns() / self.window.as_ns()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] += amount;
    }

    /// The per-window totals covering `[0, until)`, zero-filled.
    pub fn windows(&self, until: SimTime) -> Vec<f64> {
        let n = (until.as_ns().div_ceil(self.window.as_ns())) as usize;
        let mut out = vec![0.0; n];
        for (i, v) in self.buckets.iter().take(n).enumerate() {
            out[i] = *v;
        }
        out
    }

    /// Fraction of windows in `[0, until)` whose total is at least `thresh`.
    pub fn fraction_at_least(&self, until: SimTime, thresh: f64) -> f64 {
        let w = self.windows(until);
        if w.is_empty() {
            return 0.0;
        }
        w.iter().filter(|&&v| v >= thresh).count() as f64 / w.len() as f64
    }

    /// Total recorded in `[0, until)`.
    pub fn total(&self, until: SimTime) -> f64 {
        self.windows(until).iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.to_string(), "10");
    }

    #[test]
    fn online_stats_welford_matches_direct() {
        let xs = [4.0, 7.0, 13.0, 16.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 10.0).abs() < 1e-12);
        assert!((s.variance() - 22.5).abs() < 1e-9);
        assert_eq!(s.min(), 4.0);
        assert_eq!(s.max(), 16.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn online_stats_empty_is_zeroed() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn histogram_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(0.0); // bin 0
        h.push(9.999); // bin 9
        h.push(10.0); // overflow
        h.push(-5.0); // clamps to bin 0
        assert_eq!(h.bin_count(0), 2);
        assert_eq!(h.bin_count(9), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 4);
        assert_eq!(h.bin_lo(3), 3.0);
        assert_eq!(h.bin_hi(3), 4.0);
        assert!((h.fraction(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..1000 {
            h.push((i % 100) as f64 + 0.5); // uniform over [0, 100)
        }
        assert!((h.quantile(0.5) - 50.0).abs() <= 1.0, "{}", h.quantile(0.5));
        assert!(
            (h.quantile(0.95) - 95.0).abs() <= 1.0,
            "{}",
            h.quantile(0.95)
        );
        assert!(
            (h.quantile(0.99) - 99.0).abs() <= 1.0,
            "{}",
            h.quantile(0.99)
        );
        assert!(h.quantile(0.0) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(1.0));
    }

    #[test]
    fn histogram_quantile_empty_and_overflow() {
        let empty = Histogram::new(0.0, 10.0, 10);
        assert_eq!(empty.quantile(0.5), 0.0);

        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(1.0);
        h.push(50.0); // overflow
        h.push(60.0); // overflow
                      // p99 lands among the overflow samples: pinned to the top edge.
        assert_eq!(h.quantile(0.99), 10.0);
        // A low quantile still resolves inside the binned range.
        assert!(h.quantile(0.3) < 10.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn histogram_quantile_rejects_bad_q() {
        let _ = Histogram::new(0.0, 1.0, 1).quantile(1.5);
    }

    #[test]
    fn histogram_iter_covers_all_bins() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        h.push(1.5);
        let v: Vec<_> = h.iter().collect();
        assert_eq!(v.len(), 4);
        assert_eq!(v[1], (1.0, 2.0, 1));
    }

    #[test]
    fn time_weighted_integral_and_mean() {
        let mut u = TimeWeighted::new(SimTime::ZERO, 2.0);
        u.set(SimTime::from_secs(1), 4.0);
        // 2.0 for 1s, then 4.0 for 1s.
        assert!((u.integral(SimTime::from_secs(2)) - 6.0).abs() < 1e-9);
        assert!((u.mean(SimTime::from_secs(2)) - 3.0).abs() < 1e-9);
        assert_eq!(u.level(), 4.0);
    }

    #[test]
    fn time_weighted_add() {
        let mut occ = TimeWeighted::new(SimTime::ZERO, 0.0);
        occ.add(SimTime::from_ns(10), 1.0);
        occ.add(SimTime::from_ns(20), 1.0);
        occ.add(SimTime::from_ns(30), -2.0);
        assert_eq!(occ.level(), 0.0);
        // 0 for 10ns + 1 for 10ns + 2 for 10ns = 30 level-ns
        assert!((occ.integral(SimTime::from_ns(30)) - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn time_weighted_mean_of_empty_interval_is_zero() {
        let u = TimeWeighted::new(SimTime::from_ns(5), 7.0);
        assert_eq!(u.mean(SimTime::from_ns(5)), 0.0);
    }

    #[test]
    fn rate_tracker_buckets() {
        let mut r = RateTracker::new(SimDelta::from_ms(1));
        r.record(SimTime::from_us(10), 5.0);
        r.record(SimTime::from_us(990), 5.0);
        r.record(SimTime::from_us(2500), 7.0);
        let w = r.windows(SimTime::from_ms(4));
        assert_eq!(w, vec![10.0, 0.0, 7.0, 0.0]);
        assert!((r.total(SimTime::from_ms(4)) - 17.0).abs() < 1e-12);
        assert!((r.fraction_at_least(SimTime::from_ms(4), 7.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rate_tracker_empty() {
        let r = RateTracker::new(SimDelta::from_ms(1));
        assert_eq!(r.fraction_at_least(SimTime::ZERO, 1.0), 0.0);
        assert!(r.windows(SimTime::ZERO).is_empty());
    }
}
