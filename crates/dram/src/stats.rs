//! Memory-system measurements: bandwidth, row-buffer behaviour,
//! and energy. These feed Figs 3(c), 3(d) and the energy breakdowns of
//! Figs 15–16 in the reproduction.

use desim::stats::{Counter, RateTracker};
use desim::{SimDelta, SimTime};

use crate::config::DramConfig;

/// Running measurements over a [`MemorySystem`](crate::MemorySystem).
#[derive(Debug, Clone)]
pub struct MemStats {
    /// Bytes read from DRAM.
    pub bytes_read: Counter,
    /// Bytes written to DRAM.
    pub bytes_written: Counter,
    /// Row activations performed.
    pub activates: Counter,
    /// All-bank refreshes performed (summed over channels).
    pub refreshes: Counter,
    /// Channel-nanoseconds idle in standby (summed over channels).
    pub standby_ns: Counter,
    /// Channel-nanoseconds in power-down (summed over channels).
    pub powerdown_ns: Counter,
    /// Power-down exits (summed over channels).
    pub powerdown_exits: Counter,
    /// Bursts that hit an open row.
    pub row_hits: Counter,
    /// Bursts landing on an idle bank.
    pub row_empties: Counter,
    /// Bursts that required a precharge first.
    pub row_conflicts: Counter,
    /// Requests completed.
    pub requests: Counter,
    /// Bytes per 1 ms window, for the bandwidth timeline (paper Fig 3d).
    pub traffic: RateTracker,
    /// Nanoseconds any channel bus spent transferring data (sum across
    /// channels), for utilization.
    pub busy_ns: u64,
}

impl MemStats {
    /// Creates zeroed statistics with 1 ms bandwidth windows.
    pub fn new() -> Self {
        MemStats {
            bytes_read: Counter::new(),
            bytes_written: Counter::new(),
            activates: Counter::new(),
            refreshes: Counter::new(),
            standby_ns: Counter::new(),
            powerdown_ns: Counter::new(),
            powerdown_exits: Counter::new(),
            row_hits: Counter::new(),
            row_empties: Counter::new(),
            row_conflicts: Counter::new(),
            requests: Counter::new(),
            traffic: RateTracker::new(SimDelta::from_ms(1)),
            busy_ns: 0,
        }
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read.get() + self.bytes_written.get()
    }

    /// Average consumed bandwidth over `[0, until)`, in GB/s.
    pub fn avg_bandwidth_gbps(&self, until: SimTime) -> f64 {
        if until == SimTime::ZERO {
            return 0.0;
        }
        self.total_bytes() as f64 / until.as_secs() / 1e9
    }

    /// Per-1 ms-window bandwidth samples in GB/s over `[0, until)`.
    pub fn bandwidth_windows_gbps(&self, until: SimTime) -> Vec<f64> {
        let w = self.traffic.window().as_secs();
        self.traffic
            .windows(until)
            .into_iter()
            .map(|bytes| bytes / w / 1e9)
            .collect()
    }

    /// Fraction of 1 ms windows in which consumed bandwidth was at least
    /// `frac` of `peak_gbps` (the ">80% of peak" metric of Fig 3d).
    pub fn fraction_of_time_above(&self, until: SimTime, peak_gbps: f64, frac: f64) -> f64 {
        let thresh_bytes = peak_gbps * 1e9 * frac * self.traffic.window().as_secs();
        self.traffic.fraction_at_least(until, thresh_bytes)
    }

    /// Row-buffer hit rate among all bursts.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits.get() + self.row_empties.get() + self.row_conflicts.get();
        if total == 0 {
            0.0
        } else {
            self.row_hits.get() as f64 / total as f64
        }
    }

    /// Total DRAM energy over `[0, until)`, in joules: activates + dynamic
    /// per-byte + background.
    pub fn energy_j(&self, cfg: &DramConfig, until: SimTime) -> f64 {
        let activate = self.activates.get() as f64 * cfg.activate_nj * 1e-9;
        let refresh = self.refreshes.get() as f64 * cfg.refresh_nj * 1e-9;
        let dynamic = self.total_bytes() as f64 * cfg.dynamic_pj_per_byte * 1e-12;
        // Background: transfers and short gaps at standby power, accounted
        // power-down time — plus all *unaccounted* channel time (leading/
        // trailing idle, which in steady state is long-gap idle) — at the
        // power-down rate.
        let total_ns = until.as_ns() as f64 * cfg.channels as f64;
        let standby = (self.busy_ns + self.standby_ns.get()) as f64;
        let pd = (total_ns - standby).max(self.powerdown_ns.get() as f64);
        let background = (cfg.background_mw_per_channel * 1e-3 * standby
            + cfg.powerdown_mw_per_channel * 1e-3 * pd)
            / 1e9;
        activate + refresh + dynamic + background
    }

    /// Aggregate bus utilization over `[0, until)` across all channels.
    pub fn bus_utilization(&self, cfg: &DramConfig, until: SimTime) -> f64 {
        let span = until.as_ns() as f64 * cfg.channels as f64;
        if span == 0.0 {
            0.0
        } else {
            self.busy_ns as f64 / span
        }
    }
}

impl Default for MemStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_math() {
        let mut s = MemStats::new();
        s.bytes_read.add(1_000_000_000);
        s.bytes_written.add(1_000_000_000);
        assert!((s.avg_bandwidth_gbps(SimTime::from_secs(1)) - 2.0).abs() < 1e-9);
        assert_eq!(s.avg_bandwidth_gbps(SimTime::ZERO), 0.0);
    }

    #[test]
    fn window_series_scales_to_gbps() {
        let mut s = MemStats::new();
        // 6.4 MB in the first 1 ms window = 6.4 GB/s.
        s.traffic.record(SimTime::from_us(500), 6.4e6);
        let w = s.bandwidth_windows_gbps(SimTime::from_ms(2));
        assert_eq!(w.len(), 2);
        assert!((w[0] - 6.4).abs() < 1e-9);
        assert_eq!(w[1], 0.0);
        assert!((s.fraction_of_time_above(SimTime::from_ms(2), 6.4, 0.8) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn hit_rate() {
        let mut s = MemStats::new();
        assert_eq!(s.row_hit_rate(), 0.0);
        s.row_hits.add(3);
        s.row_conflicts.add(1);
        assert!((s.row_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn idle_memory_rests_at_powerdown_power() {
        let cfg = DramConfig::lpddr3_table3();
        let s = MemStats::new();
        let e = s.energy_j(&cfg, SimTime::from_secs(1));
        // A totally idle memory spends the second in power-down:
        // 4 channels × 6 mW × 1 s = 0.024 J.
        assert!((e - 0.024).abs() < 1e-9, "{e}");
    }

    #[test]
    fn busy_time_pays_standby_power() {
        let cfg = DramConfig::lpddr3_table3();
        let mut s = MemStats::new();
        // All four channels busy the whole second.
        s.busy_ns = 4_000_000_000;
        let e = s.energy_j(&cfg, SimTime::from_secs(1));
        assert!((e - 0.1).abs() < 1e-9, "{e}");
    }

    #[test]
    fn utilization() {
        let cfg = DramConfig::lpddr3_table3();
        let mut s = MemStats::new();
        s.busy_ns = 2_000_000; // 2 ms of bus time
                               // Over 1 ms on 4 channels = 4 ms of capacity → 50%.
        assert!((s.bus_utilization(&cfg, SimTime::from_ms(1)) - 0.5).abs() < 1e-9);
    }
}
