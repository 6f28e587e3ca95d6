//! DRAM timing and system configuration (paper Table II).

use stepstone_addr::Geometry;

/// DDR4 timing parameters in DRAM clock cycles.
///
/// Defaults are the paper's Table II values for DDR4-2400R (4 GB, x8
/// devices) at a 1.2 GHz DRAM clock. `t_cwl` is 12 per the table; `t_refi`
/// and `t_rfc` follow the DDR4-2400 datasheet (refresh is off by default in
/// experiments, matching the paper's reporting, but can be enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// Burst length on the data bus (BL8 at DDR = 4 clock cycles).
    pub t_bl: u64,
    /// CAS-to-CAS, different bank group.
    pub t_ccds: u64,
    /// CAS-to-CAS, same bank group.
    pub t_ccdl: u64,
    /// Rank-to-rank data-bus switch penalty.
    pub t_rtrs: u64,
    /// Read CAS latency.
    pub t_cl: u64,
    /// Write CAS latency.
    pub t_cwl: u64,
    /// ACT to CAS.
    pub t_rcd: u64,
    /// PRE to ACT.
    pub t_rp: u64,
    /// ACT to PRE (minimum row-open time).
    pub t_ras: u64,
    /// ACT to ACT, same bank.
    pub t_rc: u64,
    /// Read to PRE.
    pub t_rtp: u64,
    /// Write-to-read turnaround, different bank group.
    pub t_wtrs: u64,
    /// Write-to-read turnaround, same bank group.
    pub t_wtrl: u64,
    /// Write recovery (end of write data to PRE).
    pub t_wr: u64,
    /// ACT-to-ACT, different bank group.
    pub t_rrds: u64,
    /// ACT-to-ACT, same bank group.
    pub t_rrdl: u64,
    /// Four-activate window.
    pub t_faw: u64,
    /// Average refresh interval (all-bank REF per rank).
    pub t_refi: u64,
    /// Refresh cycle time.
    pub t_rfc: u64,
}

impl Default for TimingParams {
    fn default() -> Self {
        Self {
            t_bl: 4,
            t_ccds: 4,
            t_ccdl: 6,
            t_rtrs: 2,
            t_cl: 16,
            t_cwl: 12,
            t_rcd: 16,
            t_rp: 16,
            t_ras: 39,
            t_rc: 55,
            t_rtp: 9,
            t_wtrs: 3,
            t_wtrl: 9,
            t_wr: 18,
            t_rrds: 4,
            t_rrdl: 6,
            t_faw: 26,
            t_refi: 9360,
            t_rfc: 313,
        }
    }
}

impl TimingParams {
    /// Read-to-write command gap on a shared data path.
    pub fn rtw(&self) -> u64 {
        self.t_cl + self.t_bl + 2 - self.t_cwl
    }

    /// Write-to-read command gap (same rank), by bank-group sameness.
    pub fn wtr(&self, same_bankgroup: bool) -> u64 {
        self.t_cwl + self.t_bl + if same_bankgroup { self.t_wtrl } else { self.t_wtrs }
    }

    /// CAS-to-CAS command gap by bank-group sameness.
    pub fn ccd(&self, same_bankgroup: bool) -> u64 {
        if same_bankgroup {
            self.t_ccdl
        } else {
            self.t_ccds
        }
    }

    /// ACT-to-ACT (different banks) by bank-group sameness.
    pub fn rrd(&self, same_bankgroup: bool) -> u64 {
        if same_bankgroup {
            self.t_rrdl
        } else {
            self.t_rrds
        }
    }
}

/// Full DRAM system configuration.
///
/// The clock and per-channel bus width used to be associated consts
/// (DDR4-2400 only); they are per-config fields now so DDR5/LPDDR/HBM-style
/// presets can flow through every seconds/bandwidth conversion. Integer Hz
/// keeps the config `Eq`/hashable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    pub geom: Geometry,
    pub timing: TimingParams,
    /// Issue all-bank refreshes every `t_refi` (off by default).
    pub refresh: bool,
    /// DRAM command clock in Hz — also the PIM clock (Table II: 1.2 GHz).
    pub clock_hz: u64,
    /// Peak data bandwidth of one channel in bytes per clock cycle.
    pub channel_bytes_per_cycle: u64,
}

impl Default for DramConfig {
    /// The paper's evaluated part: DDR4-2400R, Table II timing, Fig. 4a
    /// geometry, 64-bit bus (16 B/cycle at 1.2 GHz = 19.2 GB/s).
    fn default() -> Self {
        Self {
            geom: Geometry::default(),
            timing: TimingParams::default(),
            refresh: false,
            clock_hz: 1_200_000_000,
            channel_bytes_per_cycle: 16,
        }
    }
}

impl DramConfig {
    /// Convert DRAM cycles to seconds at this config's clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz as f64
    }

    /// Peak data bandwidth of one channel in GB/s.
    pub fn channel_bandwidth_gbps(&self) -> f64 {
        self.channel_bytes_per_cycle as f64 * self.clock_hz as f64 / 1e9
    }

    /// The paper's DDR4-2400 part (the default; spelled out for symmetry
    /// with the other presets).
    pub fn ddr4_2400() -> Self {
        Self::default()
    }

    /// DDR5-4800-style part: two independent 32-bit sub-channels per DIMM
    /// (modeled as 4 narrower channels at 8 B/cycle), 8 bank groups, BL16,
    /// tighter same-bank-group tCCD_L relative to the burst, and the DDR5
    /// REFab cadence (tREFI1 = 3.9 µs, tRFC1 ≈ 295 ns) at a 2.4 GHz
    /// command clock. Timing values are JEDEC-flavored approximations in
    /// 2.4 GHz cycles, pinned by `ddr5_preset_is_pinned`.
    pub fn ddr5_4800() -> Self {
        Self {
            geom: Geometry {
                channels: 4,
                ranks_per_channel: 1,
                bankgroups_per_rank: 8,
                banks_per_bankgroup: 4,
                rows_per_bank: 32768,
                blocks_per_row: 64,
            },
            timing: TimingParams {
                t_bl: 8, // BL16 on a 32-bit sub-channel = one 64 B block
                t_ccds: 8,
                t_ccdl: 12,
                t_rtrs: 2,
                t_cl: 40,
                t_cwl: 38,
                t_rcd: 39,
                t_rp: 39,
                t_ras: 77,
                t_rc: 116,
                t_rtp: 18,
                t_wtrs: 6,
                t_wtrl: 24,
                t_wr: 72,
                t_rrds: 8,
                t_rrdl: 12,
                t_faw: 32,
                t_refi: 9360,
                t_rfc: 708,
            },
            refresh: false,
            clock_hz: 2_400_000_000,
            channel_bytes_per_cycle: 8,
        }
    }

    /// LPDDR5-6400-style part: x16 channels at 6.4 Gb/s/pin (12.8 GB/s =
    /// 8 B/cycle at an effective 1.6 GHz command clock), BL16, relaxed
    /// core timing, tFAW = 20 ns. Pinned by `lpddr5_preset_is_pinned`.
    pub fn lpddr5_6400() -> Self {
        Self {
            geom: Geometry {
                channels: 2,
                ranks_per_channel: 1,
                bankgroups_per_rank: 4,
                banks_per_bankgroup: 4,
                rows_per_bank: 65536,
                blocks_per_row: 128,
            },
            timing: TimingParams {
                t_bl: 8,
                t_ccds: 8,
                t_ccdl: 10,
                t_rtrs: 4,
                t_cl: 29,
                t_cwl: 14,
                t_rcd: 29,
                t_rp: 29,
                t_ras: 67,
                t_rc: 96,
                t_rtp: 12,
                t_wtrs: 10,
                t_wtrl: 16,
                t_wr: 55,
                t_rrds: 8,
                t_rrdl: 10,
                t_faw: 32,
                t_refi: 6240,
                t_rfc: 448,
            },
            refresh: false,
            clock_hz: 1_600_000_000,
            channel_bytes_per_cycle: 8,
        }
    }

    /// HBM2-style part: wide 128-bit channels (32 B/cycle at 1 GHz =
    /// 32 GB/s each), short bursts (one block in 2 cycles), low absolute
    /// latency in cycles. Pinned by `hbm2_preset_is_pinned`.
    pub fn hbm2() -> Self {
        Self {
            geom: Geometry {
                channels: 4,
                ranks_per_channel: 1,
                bankgroups_per_rank: 4,
                banks_per_bankgroup: 4,
                rows_per_bank: 65536,
                blocks_per_row: 64,
            },
            timing: TimingParams {
                t_bl: 2,
                t_ccds: 2,
                t_ccdl: 4,
                t_rtrs: 2,
                t_cl: 14,
                t_cwl: 7,
                t_rcd: 14,
                t_rp: 14,
                t_ras: 34,
                t_rc: 48,
                t_rtp: 5,
                t_wtrs: 4,
                t_wtrl: 8,
                t_wr: 16,
                t_rrds: 4,
                t_rrdl: 6,
                t_faw: 16,
                t_refi: 3900,
                t_rfc: 260,
            },
            refresh: false,
            clock_hz: 1_000_000_000,
            channel_bytes_per_cycle: 32,
        }
    }

    /// Preset names accepted by [`DramConfig::by_name`], in display order.
    pub const PRESET_NAMES: [&'static str; 4] = ["ddr4", "ddr5", "lpddr5", "hbm2"];

    /// Look up a preset by name (see [`DramConfig::PRESET_NAMES`]).
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "ddr4" | "ddr4-2400" => Some(Self::ddr4_2400()),
            "ddr5" | "ddr5-4800" => Some(Self::ddr5_4800()),
            "lpddr5" | "lpddr5-6400" => Some(Self::lpddr5_6400()),
            "hbm2" | "hbm" => Some(Self::hbm2()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        let t = TimingParams::default();
        assert_eq!(t.t_bl, 4);
        assert_eq!(t.t_ccds, 4);
        assert_eq!(t.t_ccdl, 6);
        assert_eq!(t.t_rtrs, 2);
        assert_eq!(t.t_cl, 16);
        assert_eq!(t.t_rcd, 16);
        assert_eq!(t.t_rp, 16);
        assert_eq!(t.t_ras, 39);
        assert_eq!(t.t_rc, 55);
        assert_eq!(t.t_rtp, 9);
        assert_eq!(t.t_wtrs, 3);
        assert_eq!(t.t_wtrl, 9);
        assert_eq!(t.t_wr, 18);
        assert_eq!(t.t_rrds, 4);
        assert_eq!(t.t_rrdl, 6);
        assert_eq!(t.t_faw, 26);
    }

    #[test]
    fn derived_gaps_are_sane() {
        let t = TimingParams::default();
        assert_eq!(t.rtw(), 16 + 4 + 2 - 12);
        assert_eq!(t.wtr(true), 12 + 4 + 9);
        assert_eq!(t.wtr(false), 12 + 4 + 3);
        assert!(t.ccd(true) > t.ccd(false));
        assert!(t.rrd(true) > t.rrd(false));
    }

    #[test]
    fn channel_bandwidth_is_ddr4_2400() {
        // 16 B/cycle at 1.2 GHz = 19.2 GB/s per channel.
        let cfg = DramConfig::default();
        assert_eq!(cfg.clock_hz, 1_200_000_000);
        assert_eq!(cfg.channel_bytes_per_cycle, 16);
        assert!((cfg.channel_bandwidth_gbps() - 19.2).abs() < 1e-9);
        assert!((cfg.cycles_to_seconds(1_200_000_000) - 1.0).abs() < 1e-12);
        assert_eq!(cfg, DramConfig::ddr4_2400());
    }

    /// Every preset must satisfy the structural relations the timing model
    /// relies on (no u64 underflow in `rtw`, same-BG gaps ≥ different-BG).
    fn check_invariants(cfg: &DramConfig) {
        cfg.geom.validate();
        let t = &cfg.timing;
        assert!(t.t_cl + t.t_bl + 2 >= t.t_cwl, "rtw underflows");
        assert!(t.ccd(true) >= t.ccd(false));
        assert!(t.rrd(true) >= t.rrd(false));
        assert!(t.wtr(true) >= t.wtr(false));
        assert!(t.t_rc >= t.t_ras);
        assert!(t.t_faw >= t.rrd(false));
        assert!(cfg.clock_hz > 0 && cfg.channel_bytes_per_cycle > 0);
        // One 64 B block must fit the burst the timing charges for it.
        assert!(t.t_bl * cfg.channel_bytes_per_cycle >= 64);
        // Arena layout (weight 1<<30, buffers 1<<33..1<<33+2<<31) must not
        // alias through the mapping's address range.
        assert!(cfg.geom.capacity_bytes() >= 16 << 30, "arenas would alias");
    }

    #[test]
    fn ddr5_preset_is_pinned() {
        let cfg = DramConfig::ddr5_4800();
        check_invariants(&cfg);
        assert_eq!(cfg.clock_hz, 2_400_000_000);
        assert_eq!(cfg.channel_bytes_per_cycle, 8);
        assert!((cfg.channel_bandwidth_gbps() - 19.2).abs() < 1e-9);
        let g = cfg.geom;
        assert_eq!((g.channels, g.ranks_per_channel), (4, 1));
        assert_eq!((g.bankgroups_per_rank, g.banks_per_bankgroup), (8, 4));
        assert_eq!((g.rows_per_bank, g.blocks_per_row), (32768, 64));
        let t = cfg.timing;
        assert_eq!(
            (t.t_bl, t.t_ccds, t.t_ccdl, t.t_rtrs, t.t_cl, t.t_cwl),
            (8, 8, 12, 2, 40, 38)
        );
        assert_eq!((t.t_rcd, t.t_rp, t.t_ras, t.t_rc, t.t_rtp), (39, 39, 77, 116, 18));
        assert_eq!((t.t_wtrs, t.t_wtrl, t.t_wr), (6, 24, 72));
        assert_eq!((t.t_rrds, t.t_rrdl, t.t_faw), (8, 12, 32));
        assert_eq!((t.t_refi, t.t_rfc), (9360, 708));
    }

    #[test]
    fn lpddr5_preset_is_pinned() {
        let cfg = DramConfig::lpddr5_6400();
        check_invariants(&cfg);
        assert_eq!(cfg.clock_hz, 1_600_000_000);
        assert_eq!(cfg.channel_bytes_per_cycle, 8);
        assert!((cfg.channel_bandwidth_gbps() - 12.8).abs() < 1e-9);
        let g = cfg.geom;
        assert_eq!((g.channels, g.ranks_per_channel), (2, 1));
        assert_eq!((g.bankgroups_per_rank, g.banks_per_bankgroup), (4, 4));
        assert_eq!((g.rows_per_bank, g.blocks_per_row), (65536, 128));
        let t = cfg.timing;
        assert_eq!(
            (t.t_bl, t.t_ccds, t.t_ccdl, t.t_rtrs, t.t_cl, t.t_cwl),
            (8, 8, 10, 4, 29, 14)
        );
        assert_eq!((t.t_rcd, t.t_rp, t.t_ras, t.t_rc, t.t_rtp), (29, 29, 67, 96, 12));
        assert_eq!((t.t_wtrs, t.t_wtrl, t.t_wr), (10, 16, 55));
        assert_eq!((t.t_rrds, t.t_rrdl, t.t_faw), (8, 10, 32));
        assert_eq!((t.t_refi, t.t_rfc), (6240, 448));
    }

    #[test]
    fn hbm2_preset_is_pinned() {
        let cfg = DramConfig::hbm2();
        check_invariants(&cfg);
        assert_eq!(cfg.clock_hz, 1_000_000_000);
        assert_eq!(cfg.channel_bytes_per_cycle, 32);
        assert!((cfg.channel_bandwidth_gbps() - 32.0).abs() < 1e-9);
        let g = cfg.geom;
        assert_eq!((g.channels, g.ranks_per_channel), (4, 1));
        assert_eq!((g.bankgroups_per_rank, g.banks_per_bankgroup), (4, 4));
        assert_eq!((g.rows_per_bank, g.blocks_per_row), (65536, 64));
        let t = cfg.timing;
        assert_eq!(
            (t.t_bl, t.t_ccds, t.t_ccdl, t.t_rtrs, t.t_cl, t.t_cwl),
            (2, 2, 4, 2, 14, 7)
        );
        assert_eq!((t.t_rcd, t.t_rp, t.t_ras, t.t_rc, t.t_rtp), (14, 14, 34, 48, 5));
        assert_eq!((t.t_wtrs, t.t_wtrl, t.t_wr), (4, 8, 16));
        assert_eq!((t.t_rrds, t.t_rrdl, t.t_faw), (4, 6, 16));
        assert_eq!((t.t_refi, t.t_rfc), (3900, 260));
    }

    #[test]
    fn preset_lookup_covers_every_name() {
        for name in DramConfig::PRESET_NAMES {
            assert!(DramConfig::by_name(name).is_some(), "{name}");
        }
        assert_eq!(DramConfig::by_name("ddr4"), Some(DramConfig::default()));
        assert!(DramConfig::by_name("ddr6").is_none());
    }
}
