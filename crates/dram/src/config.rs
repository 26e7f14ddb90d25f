//! Memory-system configuration.

use desim::SimDelta;

/// Largest supported channel count: the memory system tracks the
/// channels a submit or collection touched in a `u64` bitmask.
pub const MAX_CHANNELS: usize = 64;

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Keep rows open after access (exploits streaming locality; FR-FCFS
    /// reorders for hits). The mobile default.
    #[default]
    Open,
    /// Auto-precharge after every burst (better under random traffic;
    /// the ablation shows it loses on frame streams).
    Closed,
}

/// Organization, timing, and energy parameters of the memory system.
///
/// The defaults ([`DramConfig::lpddr3_table3`]) reproduce the platform of
/// the paper's Table 3: LPDDR3, 4 channels, 1 rank, 8 banks,
/// `tCL = tRP = tRCD = 12 ns`, Vdd = 1.2 V.
///
/// # Example
///
/// ```
/// use dram::DramConfig;
/// let cfg = DramConfig::lpddr3_table3();
/// assert_eq!(cfg.channels, 4);
/// assert!(cfg.peak_bandwidth_gbps() > 17.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: usize,
    /// Ranks per channel (timing currently models a single rank).
    pub ranks: usize,
    /// Banks per rank.
    pub banks: usize,
    /// Row (page) size per bank, in bytes.
    pub row_bytes: u64,
    /// Transfer granule, in bytes (one cache line).
    pub line_bytes: u64,
    /// CAS latency.
    pub t_cl: SimDelta,
    /// RAS-to-CAS (activate) delay.
    pub t_rcd: SimDelta,
    /// Precharge delay.
    pub t_rp: SimDelta,
    /// Time one cache line occupies the channel's data bus.
    pub t_line: SimDelta,
    /// Energy to activate (open) a row, in nanojoules.
    pub activate_nj: f64,
    /// Dynamic energy per byte read or written, in picojoules.
    pub dynamic_pj_per_byte: f64,
    /// Standby/background power per channel while active or recently
    /// active, in milliwatts.
    pub background_mw_per_channel: f64,
    /// Power per channel while in power-down, in milliwatts.
    pub powerdown_mw_per_channel: f64,
    /// Idle time after which a channel enters power-down.
    pub t_powerdown_entry: SimDelta,
    /// Exit latency when waking from power-down (tXP).
    pub t_xp: SimDelta,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// All-bank refresh interval (tREFI); refresh is disabled when zero.
    pub t_refi: SimDelta,
    /// All-bank refresh cycle time (tRFC).
    pub t_rfc: SimDelta,
    /// Energy per all-bank refresh, in nanojoules.
    pub refresh_nj: f64,
    /// When `true`, requests complete instantly (the paper's "Ideal" memory)
    /// while energy and bandwidth are still accounted.
    pub ideal: bool,
}

impl DramConfig {
    /// The paper's Table 3 platform: LPDDR3, 4 channels × 1 rank × 8 banks,
    /// 12 ns core timing, 64 B lines, ~4.27 GB/s per channel (LPDDR3-1066
    /// x32; ~17 GB/s aggregate, mobile-class like the measured tablets).
    pub fn lpddr3_table3() -> Self {
        DramConfig {
            channels: 4,
            ranks: 1,
            banks: 8,
            row_bytes: 2048,
            line_bytes: 64,
            t_cl: SimDelta::from_ns(12),
            t_rcd: SimDelta::from_ns(12),
            t_rp: SimDelta::from_ns(12),
            t_line: SimDelta::from_ns(15), // 64 B / 4.27 GB/s (LPDDR3-1066 x32)
            activate_nj: 1.0,
            dynamic_pj_per_byte: 45.0,
            background_mw_per_channel: 25.0,
            powerdown_mw_per_channel: 6.0,
            t_powerdown_entry: SimDelta::from_us(1),
            t_xp: SimDelta::from_ns(10),
            page_policy: PagePolicy::Open,
            t_refi: SimDelta::from_ns(3900),
            t_rfc: SimDelta::from_ns(130),
            refresh_nj: 15.0,
            ideal: false,
        }
    }

    /// The same organization with zero-latency service — the "Ideal" bars of
    /// the paper's Fig 3.
    pub fn ideal() -> Self {
        DramConfig {
            ideal: true,
            ..Self::lpddr3_table3()
        }
    }

    /// Peak data bandwidth across all channels, in GB/s.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        let per_channel = self.line_bytes as f64 / self.t_line.as_secs() / 1e9;
        per_channel * self.channels as f64
    }

    /// Cache lines per row.
    pub fn lines_per_row(&self) -> u64 {
        self.row_bytes / self.line_bytes
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || self.banks == 0 || self.ranks == 0 {
            return Err("channels, ranks and banks must be nonzero".into());
        }
        if self.line_bytes == 0 || self.row_bytes == 0 {
            return Err("line and row sizes must be nonzero".into());
        }
        if !self.row_bytes.is_multiple_of(self.line_bytes) {
            return Err(format!(
                "row size {} not a multiple of line size {}",
                self.row_bytes, self.line_bytes
            ));
        }
        if !self.channels.is_power_of_two() || !self.banks.is_power_of_two() {
            return Err("channel and bank counts must be powers of two".into());
        }
        if self.channels > MAX_CHANNELS {
            return Err(format!(
                "{} channels exceed the supported maximum of {MAX_CHANNELS}",
                self.channels
            ));
        }
        if self.t_line == SimDelta::ZERO && !self.ideal {
            return Err("t_line must be nonzero for a non-ideal memory".into());
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::lpddr3_table3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_validates() {
        DramConfig::lpddr3_table3().validate().unwrap();
        DramConfig::ideal().validate().unwrap();
    }

    #[test]
    fn peak_bandwidth() {
        let cfg = DramConfig::lpddr3_table3();
        assert!((cfg.peak_bandwidth_gbps() - 17.066_666_666_666_666).abs() < 1e-6);
        assert_eq!(cfg.lines_per_row(), 32);
    }

    #[test]
    fn bad_configs_rejected() {
        let mut cfg = DramConfig::lpddr3_table3();
        cfg.channels = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = DramConfig::lpddr3_table3();
        cfg.channels = 3;
        assert!(cfg.validate().is_err());

        let mut cfg = DramConfig::lpddr3_table3();
        cfg.channels = 2 * MAX_CHANNELS;
        assert!(cfg.validate().unwrap_err().contains("maximum"));
        cfg.channels = MAX_CHANNELS;
        cfg.validate().unwrap();

        let mut cfg = DramConfig::lpddr3_table3();
        cfg.row_bytes = 100;
        assert!(cfg.validate().is_err());

        let mut cfg = DramConfig::lpddr3_table3();
        cfg.t_line = SimDelta::ZERO;
        assert!(cfg.validate().is_err());
    }
}
