//! SDRAM device configuration and internal address mapping.

use core::fmt;

use crate::fault::{FaultConfig, PPM};

/// Timing and geometry parameters of one SDRAM device (one external bank
/// of the PVA memory system).
///
/// Defaults model the paper's prototype: Micron 256 Mbit SDRAM-like
/// parts at 100 MHz, RAS and CAS latencies of two cycles each, four
/// internal banks with independent row buffers (§5.1, §6.1). All times
/// are in memory-clock cycles.
///
/// # Examples
///
/// ```
/// use sdram::SdramConfig;
/// let cfg = SdramConfig::default();
/// assert_eq!(cfg.t_rcd, 2);
/// assert_eq!(cfg.internal_banks, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdramConfig {
    /// ACTIVATE-to-READ/WRITE delay (RAS-to-CAS, `tRCD`).
    pub t_rcd: u32,
    /// READ-to-data delay (CAS latency, `tCL`).
    pub t_cas: u32,
    /// PRECHARGE-to-ACTIVATE delay (`tRP`).
    pub t_rp: u32,
    /// Minimum ACTIVATE-to-PRECHARGE time (`tRAS`).
    pub t_ras: u32,
    /// Minimum ACTIVATE-to-ACTIVATE time, same internal bank (`tRC`).
    pub t_rc: u32,
    /// WRITE-to-PRECHARGE recovery (`tWR`).
    pub t_wr: u32,
    /// Number of internal banks (row buffers) per device.
    pub internal_banks: u32,
    /// log2 of the row (page) size in device words.
    pub log2_cols: u32,
    /// log2 of the number of rows per internal bank.
    pub log2_rows: u32,
    /// Memory chips (ranks) behind one bank controller (§4.3.1
    /// capacity scaling: "use a single bank controller for multiple
    /// slots, but maintain different current row registers"). Each rank
    /// carries its own internal banks and row buffers; high local-
    /// address bits select the rank (chip select).
    pub ranks: u32,
    /// Number of bank groups the internal banks are divided into
    /// (DDR4/HBM-style topology). `1` models a flat SDR/DDR3 device
    /// with no group distinction; must be a power of two, at most
    /// [`MAX_BANK_GROUPS`] and at most `internal_banks`. Consecutive
    /// internal banks alternate groups (`bank & (bank_groups - 1)`),
    /// so page-interleaved streams cross groups and see `tCCD_S`.
    pub bank_groups: u32,
    /// Words transferred per column command (burst length). `1` models
    /// the paper's SDR part (one word per CAS); `8` models a BL8
    /// DDR3/DDR4-class device. Bus occupancy of a burst is
    /// [`SdramConfig::burst_cycles`] and is enforced through `tCCD`
    /// (which must cover it).
    pub burst_words: u32,
    /// Data transfers per memory-clock cycle: `1` for single data rate,
    /// `2` for DDR-style devices. Only the ratio to `burst_words`
    /// matters to the model (it sets the burst's bus occupancy).
    pub data_rate: u32,
    /// Minimum CAS-to-CAS spacing within the *same* bank group
    /// (`tCCD_L`); `0` disables the constraint (SDR parts issue a CAS
    /// per cycle).
    pub t_ccd_l: u32,
    /// Minimum CAS-to-CAS spacing across *different* bank groups
    /// (`tCCD_S`); `0` disables the constraint. Must not exceed
    /// `t_ccd_l`.
    pub t_ccd_s: u32,
    /// Minimum ACTIVATE-to-ACTIVATE spacing between *different* banks
    /// of the device (`tRRD`); `0` disables the constraint. (Same-bank
    /// spacing is `tRC`.)
    pub t_rrd: u32,
    /// Four-activate window (`tFAW`): at most four ACTIVATEs may issue
    /// within any window of this many cycles; `0` disables the
    /// constraint.
    pub t_faw: u32,
    /// Cycles an AUTO REFRESH occupies the whole device (`tRFC`).
    pub t_rfc: u32,
    /// Average interval between required refresh commands in cycles
    /// (64 ms / 8192 rows at 100 MHz is ~781); `0` disables refresh.
    pub refresh_interval: u64,
    /// Store a SEC-DED Hamming(72,64) check byte with every word,
    /// correcting single-bit and detecting double-bit errors on read
    /// (see [`crate::ecc`]). Off by default — the paper's ideal device.
    pub ecc: bool,
    /// Fault-injection configuration; [`FaultConfig::none`] (the
    /// default) models the ideal, fault-free device.
    pub fault: FaultConfig,
}

impl Default for SdramConfig {
    fn default() -> Self {
        SdramConfig {
            t_rcd: 2,
            t_cas: 2,
            t_rp: 2,
            t_ras: 5,
            t_rc: 7,
            t_wr: 1,
            internal_banks: 4,
            log2_cols: 9, // 512-word pages
            log2_rows: 13,
            ranks: 1,
            bank_groups: 1,
            burst_words: 1,
            data_rate: 1,
            t_ccd_l: 0,
            t_ccd_s: 0,
            t_rrd: 0,
            t_faw: 0,
            t_rfc: 8,
            refresh_interval: 0,
            ecc: false,
            fault: FaultConfig::none(),
        }
    }
}

/// Upper bound on [`SdramConfig::bank_groups`]: the per-group channel
/// timers live in fixed-size hardware-style arrays
/// (see [`crate::ChannelTimers`]).
pub const MAX_BANK_GROUPS: u32 = 8;

/// A named device generation the workspace ships a timing profile for.
///
/// The typed form of the old ad-hoc `SdramConfig::{sram_like, ...}`
/// constructors: every shipped profile is an enum variant, so sweeps
/// (the `pva-bench techsweep` scenario, the analysis passes) iterate
/// [`DevicePreset::ALL`] instead of maintaining hand-written lists.
///
/// # Examples
///
/// ```
/// use sdram::{DevicePreset, SdramConfig};
///
/// // The SDR profile is the paper's prototype device, bit-identical
/// // to `SdramConfig::default()`.
/// assert_eq!(SdramConfig::for_device(DevicePreset::Sdr100), SdramConfig::default());
/// // Modern generations carry channel constraints the SDR part lacks.
/// let ddr3 = SdramConfig::for_device(DevicePreset::Ddr3_1600);
/// assert_eq!(ddr3.burst_words, 8);
/// assert!(ddr3.t_faw > 0);
/// assert_eq!(DevicePreset::from_name("ddr3-1600"), Some(DevicePreset::Ddr3_1600));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DevicePreset {
    /// The paper's prototype: Micron 256 Mbit SDR SDRAM at 100 MHz
    /// (identical to `SdramConfig::default()`).
    Sdr100,
    /// Idealized uniform-latency device modeling SRAM comparators.
    SramLike,
    /// The SDR part with periodic AUTO REFRESH enabled.
    SdrRefresh,
    /// EDO-like conventional DRAM (§2.3.2): one row buffer, slower core.
    EdoLike,
    /// SLDRAM-like analogue (§2.3.4): 8 internal banks.
    SldramLike,
    /// Direct-Rambus-like analogue (§2.3.5): 32 internal banks.
    DrdramLike,
    /// A DDR3-1600-class profile at the 800 MHz command clock: BL8,
    /// two bank groups with a tCCD_L/tCCD_S split (DDR4-style), tRRD
    /// and tFAW activate throttling, periodic refresh.
    Ddr3_1600,
    /// An LPDDR/HBM-class short-channel profile: many banks in four
    /// groups, short core timings, BL4 at double data rate.
    Hbm2Like,
}

impl DevicePreset {
    /// Every shipped device generation, oldest first.
    pub const ALL: [DevicePreset; 8] = [
        DevicePreset::EdoLike,
        DevicePreset::Sdr100,
        DevicePreset::SdrRefresh,
        DevicePreset::SldramLike,
        DevicePreset::DrdramLike,
        DevicePreset::Ddr3_1600,
        DevicePreset::Hbm2Like,
        DevicePreset::SramLike,
    ];

    /// The short slug naming the preset in tables and run records.
    pub const fn name(self) -> &'static str {
        match self {
            DevicePreset::Sdr100 => "sdr100",
            DevicePreset::SramLike => "sram",
            DevicePreset::SdrRefresh => "sdr-refresh",
            DevicePreset::EdoLike => "edo",
            DevicePreset::SldramLike => "sldram",
            DevicePreset::DrdramLike => "drdram",
            DevicePreset::Ddr3_1600 => "ddr3-1600",
            DevicePreset::Hbm2Like => "hbm2",
        }
    }

    /// A one-line human description for tables and listings.
    pub const fn title(self) -> &'static str {
        match self {
            DevicePreset::Sdr100 => "SDR-100 (paper prototype, 4 banks)",
            DevicePreset::SramLike => "ideal SRAM (uniform latency)",
            DevicePreset::SdrRefresh => "SDR-100 with periodic refresh",
            DevicePreset::EdoLike => "EDO-like (1 row buffer)",
            DevicePreset::SldramLike => "SLDRAM-like (8 banks)",
            DevicePreset::DrdramLike => "DRDRAM-like (32 banks)",
            DevicePreset::Ddr3_1600 => "DDR3-1600-class (BL8, 2 groups)",
            DevicePreset::Hbm2Like => "HBM-class (16 banks, 4 groups)",
        }
    }

    /// Parses a slug ([`name`](DevicePreset::name)) back to its preset.
    pub fn from_name(s: &str) -> Option<DevicePreset> {
        DevicePreset::ALL.into_iter().find(|p| p.name() == s)
    }

    /// The timing profile of this generation — equivalent to
    /// [`SdramConfig::for_device`].
    pub fn config(self) -> SdramConfig {
        let base = SdramConfig::default();
        match self {
            DevicePreset::Sdr100 => base,
            DevicePreset::SramLike => SdramConfig {
                t_rcd: 0,
                t_cas: 1,
                t_rp: 0,
                t_ras: 0,
                t_rc: 0,
                t_wr: 0,
                internal_banks: 1,
                log2_cols: 22,
                log2_rows: 0,
                t_rfc: 0,
                ..base
            },
            DevicePreset::SdrRefresh => SdramConfig {
                refresh_interval: 781,
                ..base
            },
            DevicePreset::EdoLike => SdramConfig {
                t_rcd: 3,
                t_cas: 2,
                t_rp: 3,
                t_ras: 6,
                t_rc: 9,
                internal_banks: 1,
                ..base
            },
            DevicePreset::SldramLike => SdramConfig {
                internal_banks: 8,
                ..base
            },
            DevicePreset::DrdramLike => SdramConfig {
                t_rcd: 3,
                t_cas: 4,
                t_rp: 3,
                t_ras: 7,
                t_rc: 10,
                internal_banks: 32,
                log2_rows: 11,
                ..base
            },
            // DDR3-1600 speed bin at the 800 MHz command clock:
            // tRCD/tCL/tRP 13.75 ns ≈ 11 cycles, tRAS 35 ns = 28,
            // tRC 48.75 ns = 39, tWR 15 ns = 12, tRFC(4Gb) 160 ns = 128,
            // tREFI 7.8 µs = 6240, tRRD 7.5 ns = 6, tFAW 32.5 ns = 26.
            // The tCCD_L/tCCD_S split over two bank groups is the
            // DDR4-refinement the sweep is asking about: BL8 occupies
            // the bus for 4 command-clock cycles, so tCCD_S = 4 is the
            // burst back-to-back floor and tCCD_L = 5 adds the
            // same-group penalty.
            DevicePreset::Ddr3_1600 => SdramConfig {
                t_rcd: 11,
                t_cas: 11,
                t_rp: 11,
                t_ras: 28,
                t_rc: 39,
                t_wr: 12,
                internal_banks: 8,
                bank_groups: 2,
                burst_words: 8,
                data_rate: 2,
                t_ccd_l: 5,
                t_ccd_s: 4,
                t_rrd: 6,
                t_faw: 26,
                t_rfc: 128,
                refresh_interval: 6240,
                ..base
            },
            // HBM-class short channel: low absolute latency, many small
            // banks in four groups, BL4 at double data rate (2-cycle
            // bursts), tight tRRD/tFAW, small 256-word rows.
            DevicePreset::Hbm2Like => SdramConfig {
                t_rcd: 7,
                t_cas: 7,
                t_rp: 7,
                t_ras: 17,
                t_rc: 24,
                t_wr: 8,
                internal_banks: 16,
                bank_groups: 4,
                log2_cols: 8,
                burst_words: 4,
                data_rate: 2,
                t_ccd_l: 4,
                t_ccd_s: 2,
                t_rrd: 4,
                t_faw: 15,
                t_rfc: 120,
                refresh_interval: 3900,
                ..base
            },
        }
    }
}

impl fmt::Display for DevicePreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl SdramConfig {
    /// The timing profile of a shipped device generation — the typed
    /// replacement for the old ad-hoc preset constructors.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdram::{DevicePreset, SdramConfig};
    /// let cfg = SdramConfig::for_device(DevicePreset::SldramLike);
    /// assert_eq!(cfg.internal_banks, 8);
    /// ```
    pub fn for_device(preset: DevicePreset) -> Self {
        preset.config()
    }

    /// Total row buffers the controller must track:
    /// `ranks * internal_banks`.
    pub fn total_row_buffers(&self) -> u32 {
        self.ranks * self.internal_banks
    }

    /// Memory-clock cycles one burst occupies the data bus:
    /// `ceil(burst_words / data_rate)`. `1` for the SDR part.
    pub fn burst_cycles(&self) -> u32 {
        self.burst_words.div_ceil(self.data_rate.max(1))
    }

    /// The bank group an effective row-buffer index belongs to.
    ///
    /// Consecutive internal banks alternate groups (a bit mask, like the
    /// hardware wiring), so the page-interleaved address map spreads
    /// adjacent pages across groups and streams see `tCCD_S`.
    pub fn bank_group_of(&self, bank: u32) -> u32 {
        bank & (self.bank_groups - 1)
    }

    /// Whether this part declares any post-SDR channel structure —
    /// bank groups, multi-word bursts, or the tCCD/tRRD/tFAW channel
    /// gates. The generation-aware scheduling policy keys off this:
    /// on parts that declare nothing (the SDR-era presets) it keeps
    /// strict arrival order, which is what the goldens pin.
    pub fn declares_channel_structure(&self) -> bool {
        self.bank_groups > 1
            || self.burst_words > 1
            || self.t_ccd_l > 0
            || self.t_ccd_s > 0
            || self.t_rrd > 0
            || self.t_faw > 0
    }

    /// Total capacity behind the controller in words (all ranks).
    pub fn capacity_words(&self) -> u64 {
        (self.total_row_buffers() as u64) << (self.log2_cols + self.log2_rows)
    }

    /// Checks every consistency rule and returns all violations.
    ///
    /// The rules are the invariants the device model and the address
    /// mapper rely on; a config that passes cannot drive the simulator
    /// into a state the bank FSM has no transition for. The same pass
    /// runs in three places: here (asserted by [`Sdram::new`]), in the
    /// `pva-analysis` binary over every preset, and in the randomized
    /// property tests.
    ///
    /// [`Sdram::new`]: crate::Sdram::new
    pub fn check(&self) -> Vec<ConfigError> {
        let mut errs = Vec::new();
        if self.internal_banks == 0 || !self.internal_banks.is_power_of_two() {
            // `map()` selects the internal bank with `internal_banks - 1`
            // as a bit mask and counts field width with trailing_zeros().
            errs.push(ConfigError::InternalBanksNotPowerOfTwo(self.internal_banks));
        }
        if self.ranks == 0 {
            errs.push(ConfigError::NoRanks);
        }
        if self.t_cas == 0 {
            errs.push(ConfigError::ZeroCasLatency);
        }
        if self.t_ras == 0 && self.t_rcd != 0 {
            // Uniform-latency (SRAM-like) mode: with tRAS = 0 a precharge
            // may legally land the cycle after ACTIVATE, which the bank
            // FSM only admits when the activate completes instantly.
            errs.push(ConfigError::SramModeNeedsZeroRcd { t_rcd: self.t_rcd });
        }
        if self.t_ras > 0 && self.t_ras < self.t_rcd + self.t_cas {
            errs.push(ConfigError::RowOpenTooShort {
                t_ras: self.t_ras,
                t_rcd: self.t_rcd,
                t_cas: self.t_cas,
            });
        }
        if self.t_rc < self.t_ras + self.t_rp {
            errs.push(ConfigError::CycleTimeTooShort {
                t_rc: self.t_rc,
                t_ras: self.t_ras,
                t_rp: self.t_rp,
            });
        }
        if self.bank_groups == 0
            || !self.bank_groups.is_power_of_two()
            || self.bank_groups > MAX_BANK_GROUPS
            || self.bank_groups > self.internal_banks
        {
            // Group selection is a `bank_groups - 1` bit mask and the
            // per-group channel timers live in a MAX_BANK_GROUPS array.
            errs.push(ConfigError::BankGroupsInvalid {
                bank_groups: self.bank_groups,
                internal_banks: self.internal_banks,
            });
        }
        if self.burst_words == 0 || self.data_rate == 0 {
            errs.push(ConfigError::ZeroBurstGeometry {
                burst_words: self.burst_words,
                data_rate: self.data_rate,
            });
        }
        if self.t_ccd_l < self.t_ccd_s {
            // tCCD_S is the *relaxed* (cross-group) spacing; a stricter
            // cross-group than same-group constraint is not a device.
            errs.push(ConfigError::CcdInversion {
                t_ccd_l: self.t_ccd_l,
                t_ccd_s: self.t_ccd_s,
            });
        }
        if self.burst_words > 0 && self.data_rate > 0 {
            let burst = self.burst_cycles();
            if burst > 1 && self.t_ccd_s < burst {
                // Burst bus occupancy is enforced solely through tCCD;
                // a tCCD_S shorter than the burst would let two bursts
                // overlap on the data bus.
                errs.push(ConfigError::BurstNeedsCcd {
                    burst_cycles: burst,
                    t_ccd_s: self.t_ccd_s,
                });
            }
        }
        if self.refresh_interval > 0 && self.t_rfc == 0 {
            errs.push(ConfigError::RefreshWithoutRfc);
        }
        if self.refresh_interval > 0 && self.refresh_interval <= u64::from(self.t_rfc) {
            errs.push(ConfigError::RefreshIntervalTooShort {
                interval: self.refresh_interval,
                t_rfc: self.t_rfc,
            });
        }
        let ib_bits = if self.internal_banks.is_power_of_two() {
            self.internal_banks.trailing_zeros()
        } else {
            0
        };
        let bits = self.log2_cols + ib_bits + self.log2_rows;
        if bits > 63 {
            errs.push(ConfigError::GeometryOverflow { bits });
        }
        if u64::from(self.fault.transient_ppm) > PPM {
            errs.push(ConfigError::FaultRateOutOfRange {
                rate: "transient_ppm",
                ppm: self.fault.transient_ppm,
            });
        }
        if u64::from(self.fault.stuck_ppm) > PPM {
            errs.push(ConfigError::FaultRateOutOfRange {
                rate: "stuck_ppm",
                ppm: self.fault.stuck_ppm,
            });
        }
        if let Some(bank) = self.fault.hard_failed_bank {
            if bank >= self.total_row_buffers() {
                errs.push(ConfigError::HardFailedBankOutOfRange {
                    bank,
                    banks: self.total_row_buffers(),
                });
            }
        }
        if self.fault.retention_cycles > 0
            && self.refresh_interval > 0
            && self.fault.retention_cycles <= self.refresh_interval
        {
            // A retention window shorter than the refresh period decays
            // every row between refreshes; the device could never hold
            // data and the decay model degenerates to "always corrupt".
            errs.push(ConfigError::RetentionWithinRefreshInterval {
                retention: self.fault.retention_cycles,
                interval: self.refresh_interval,
            });
        }
        errs
    }

    /// Validates the configuration, returning the first violation.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] from [`SdramConfig::check`].
    ///
    /// # Examples
    ///
    /// ```
    /// use sdram::SdramConfig;
    /// assert!(SdramConfig::default().validate().is_ok());
    /// let bad = SdramConfig { internal_banks: 3, ..SdramConfig::default() };
    /// assert!(bad.validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self.check().into_iter().next() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Maps a *device-local* word address to its internal coordinates.
    ///
    /// Low bits select the column, the middle bits the internal bank
    /// (so that consecutive pages rotate across internal banks, giving
    /// the scheduler overlap opportunities), and the high bits the row.
    /// The returned `bank` is the *effective* row-buffer index
    /// `rank * internal_banks + internal_bank`: the rank (chip select)
    /// comes from the highest local-address bits.
    pub fn map(&self, local_addr: u64) -> InternalAddr {
        let col = local_addr & ((1 << self.log2_cols) - 1);
        let bank = (local_addr >> self.log2_cols) & (self.internal_banks as u64 - 1);
        let ib_bits = self.internal_banks.trailing_zeros();
        let row_field = local_addr >> (self.log2_cols + ib_bits);
        let row = row_field & ((1 << self.log2_rows) - 1);
        let rank = row_field >> self.log2_rows;
        InternalAddr {
            bank: (rank as u32) * self.internal_banks + bank as u32,
            row,
            col,
        }
    }
}

impl fmt::Display for SdramConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SDRAM tRCD={} tCL={} tRP={} tRAS={} tRC={} ib={} cols=2^{}",
            self.t_rcd,
            self.t_cas,
            self.t_rp,
            self.t_ras,
            self.t_rc,
            self.internal_banks,
            self.log2_cols
        )
    }
}

/// A violation of the [`SdramConfig`] consistency rules, as reported by
/// [`SdramConfig::check`] / [`SdramConfig::validate`].
///
/// Each variant names the invariant it protects; the payloads carry the
/// offending values so the analysis binary can print actionable
/// diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `internal_banks` must be a nonzero power of two: the address
    /// mapper selects the internal bank with an `internal_banks - 1`
    /// bit mask (the hardware uses the same wiring).
    InternalBanksNotPowerOfTwo(u32),
    /// `ranks` must be at least 1 — a bank controller with no chips
    /// behind it addresses nothing.
    NoRanks,
    /// `t_cas` must be at least 1: data cannot return on the same edge
    /// the column command is registered.
    ZeroCasLatency,
    /// `t_ras == 0` selects the uniform-latency (SRAM-like) mode and
    /// requires `t_rcd == 0` too; otherwise a precharge could arrive
    /// while the activate is still in flight, a state the bank FSM has
    /// no legal transition for.
    SramModeNeedsZeroRcd {
        /// The nonzero `t_rcd` that conflicts with `t_ras == 0`.
        t_rcd: u32,
    },
    /// `t_ras` must cover `t_rcd + t_cas`: a row must stay open long
    /// enough for at least one access to complete inside the
    /// activate-to-precharge window.
    RowOpenTooShort {
        /// Configured `t_ras`.
        t_ras: u32,
        /// Configured `t_rcd`.
        t_rcd: u32,
        /// Configured `t_cas`.
        t_cas: u32,
    },
    /// `t_rc` must cover `t_ras + t_rp`: the activate-to-activate cycle
    /// time cannot be shorter than holding the row open and then
    /// precharging it.
    CycleTimeTooShort {
        /// Configured `t_rc`.
        t_rc: u32,
        /// Configured `t_ras`.
        t_ras: u32,
        /// Configured `t_rp`.
        t_rp: u32,
    },
    /// Refresh is enabled (`refresh_interval > 0`) but `t_rfc == 0`: a
    /// zero-cycle refresh would never be observable and the controller
    /// would re-issue it forever.
    RefreshWithoutRfc,
    /// `refresh_interval` must exceed `t_rfc`, or the device spends
    /// every cycle refreshing and no access can ever issue.
    RefreshIntervalTooShort {
        /// Configured `refresh_interval`.
        interval: u64,
        /// Configured `t_rfc`.
        t_rfc: u32,
    },
    /// The address fields (`log2_cols + log2(internal_banks) +
    /// log2_rows`) exceed 63 bits and would overflow the 64-bit word
    /// address space.
    GeometryOverflow {
        /// Total field width in bits.
        bits: u32,
    },
    /// A parts-per-million fault rate exceeds one million — it is not
    /// a probability.
    FaultRateOutOfRange {
        /// Which rate field is out of range.
        rate: &'static str,
        /// The offending value.
        ppm: u32,
    },
    /// `fault.hard_failed_bank` names an internal bank the device does
    /// not have.
    HardFailedBankOutOfRange {
        /// The configured failed bank.
        bank: u32,
        /// Number of row buffers (`ranks * internal_banks`).
        banks: u32,
    },
    /// `bank_groups` must be a nonzero power of two no larger than
    /// [`MAX_BANK_GROUPS`] or `internal_banks`: group selection is a
    /// bit mask and the channel timers are a fixed-size array.
    BankGroupsInvalid {
        /// Configured `bank_groups`.
        bank_groups: u32,
        /// Configured `internal_banks`.
        internal_banks: u32,
    },
    /// `burst_words` and `data_rate` must both be at least 1 — a zero
    /// burst transfers nothing and a zero data rate never transfers it.
    ZeroBurstGeometry {
        /// Configured `burst_words`.
        burst_words: u32,
        /// Configured `data_rate`.
        data_rate: u32,
    },
    /// `t_ccd_l` must be at least `t_ccd_s`: same-group CAS spacing is
    /// the strict one; the cross-group constraint is the relaxation.
    CcdInversion {
        /// Configured `t_ccd_l`.
        t_ccd_l: u32,
        /// Configured `t_ccd_s`.
        t_ccd_s: u32,
    },
    /// Bursts longer than one cycle require `t_ccd_s` to cover the
    /// burst's bus occupancy ([`SdramConfig::burst_cycles`]), since the
    /// model enforces data-bus occupancy solely through tCCD.
    BurstNeedsCcd {
        /// Bus occupancy of one burst in cycles.
        burst_cycles: u32,
        /// Configured `t_ccd_s`.
        t_ccd_s: u32,
    },
    /// `fault.retention_cycles` does not exceed `refresh_interval`:
    /// every row would decay between consecutive refreshes, so the
    /// device could never retain data even when refreshed on schedule.
    RetentionWithinRefreshInterval {
        /// Configured retention window.
        retention: u64,
        /// Configured refresh interval.
        interval: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::InternalBanksNotPowerOfTwo(v) => {
                write!(f, "internal_banks = {v} is not a nonzero power of two")
            }
            ConfigError::NoRanks => write!(f, "ranks must be at least 1"),
            ConfigError::ZeroCasLatency => write!(f, "t_cas must be at least 1"),
            ConfigError::SramModeNeedsZeroRcd { t_rcd } => {
                write!(
                    f,
                    "t_ras = 0 (uniform-latency mode) requires t_rcd = 0, got {t_rcd}"
                )
            }
            ConfigError::RowOpenTooShort {
                t_ras,
                t_rcd,
                t_cas,
            } => {
                write!(
                    f,
                    "t_ras = {t_ras} is shorter than t_rcd + t_cas = {}",
                    t_rcd + t_cas
                )
            }
            ConfigError::CycleTimeTooShort { t_rc, t_ras, t_rp } => {
                write!(
                    f,
                    "t_rc = {t_rc} is shorter than t_ras + t_rp = {}",
                    t_ras + t_rp
                )
            }
            ConfigError::RefreshWithoutRfc => {
                write!(f, "refresh_interval > 0 requires t_rfc >= 1")
            }
            ConfigError::RefreshIntervalTooShort { interval, t_rfc } => {
                write!(
                    f,
                    "refresh_interval = {interval} must exceed t_rfc = {t_rfc}"
                )
            }
            ConfigError::GeometryOverflow { bits } => {
                write!(f, "address fields span {bits} bits, overflowing u64")
            }
            ConfigError::FaultRateOutOfRange { rate, ppm } => {
                write!(f, "fault rate {rate} = {ppm} exceeds 1_000_000 ppm")
            }
            ConfigError::HardFailedBankOutOfRange { bank, banks } => {
                write!(
                    f,
                    "hard_failed_bank = {bank} but the device has only {banks} row buffers"
                )
            }
            ConfigError::BankGroupsInvalid {
                bank_groups,
                internal_banks,
            } => {
                write!(
                    f,
                    "bank_groups = {bank_groups} must be a nonzero power of two, \
                     at most {MAX_BANK_GROUPS} and at most internal_banks = {internal_banks}"
                )
            }
            ConfigError::ZeroBurstGeometry {
                burst_words,
                data_rate,
            } => {
                write!(
                    f,
                    "burst_words = {burst_words} and data_rate = {data_rate} must both be >= 1"
                )
            }
            ConfigError::CcdInversion { t_ccd_l, t_ccd_s } => {
                write!(
                    f,
                    "t_ccd_l = {t_ccd_l} must be at least t_ccd_s = {t_ccd_s}"
                )
            }
            ConfigError::BurstNeedsCcd {
                burst_cycles,
                t_ccd_s,
            } => {
                write!(
                    f,
                    "t_ccd_s = {t_ccd_s} does not cover the {burst_cycles}-cycle burst bus occupancy"
                )
            }
            ConfigError::RetentionWithinRefreshInterval {
                retention,
                interval,
            } => {
                write!(
                    f,
                    "retention_cycles = {retention} must exceed refresh_interval = {interval}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Internal coordinates of a device word: which internal bank, row
/// (page) and column it lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InternalAddr {
    /// Internal bank index, `0..config.internal_banks`.
    pub bank: u32,
    /// Row (page) index within the internal bank.
    pub row: u64,
    /// Column within the row.
    pub col: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_prototype() {
        let c = SdramConfig::default();
        assert_eq!((c.t_rcd, c.t_cas), (2, 2));
        assert_eq!(c.internal_banks, 4);
    }

    #[test]
    fn map_splits_fields() {
        let c = SdramConfig {
            log2_cols: 4,
            internal_banks: 4,
            ..SdramConfig::default()
        };
        // addr = row 3, bank 2, col 5  => ((3*4)+2)*16 + 5
        let addr = ((3 * 4 + 2) << 4) + 5;
        let ia = c.map(addr);
        assert_eq!(
            ia,
            InternalAddr {
                bank: 2,
                row: 3,
                col: 5
            }
        );
    }

    #[test]
    fn consecutive_pages_rotate_internal_banks() {
        let c = SdramConfig::default();
        let page = 1u64 << c.log2_cols;
        let banks: Vec<u32> = (0..4).map(|i| c.map(i * page).bank).collect();
        assert_eq!(banks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn capacity() {
        let c = SdramConfig {
            internal_banks: 4,
            log2_cols: 9,
            log2_rows: 13,
            ..SdramConfig::default()
        };
        assert_eq!(c.capacity_words(), 4 << 22);
    }

    #[test]
    fn all_presets_validate_clean() {
        for preset in DevicePreset::ALL {
            let cfg = SdramConfig::for_device(preset);
            assert_eq!(cfg.check(), vec![], "preset {preset} must be consistent");
        }
    }

    #[test]
    fn preset_names_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for preset in DevicePreset::ALL {
            assert!(
                seen.insert(preset.name()),
                "duplicate slug {}",
                preset.name()
            );
            assert_eq!(DevicePreset::from_name(preset.name()), Some(preset));
            assert!(!preset.title().is_empty());
        }
        assert_eq!(DevicePreset::from_name("no-such-device"), None);
    }

    #[test]
    fn sdr_preset_is_bit_identical_to_default() {
        assert_eq!(
            SdramConfig::for_device(DevicePreset::Sdr100),
            SdramConfig::default()
        );
    }

    #[test]
    fn burst_cycles_rounds_up() {
        let ddr3 = SdramConfig::for_device(DevicePreset::Ddr3_1600);
        assert_eq!(ddr3.burst_cycles(), 4); // BL8 at DDR
        let odd = SdramConfig {
            burst_words: 5,
            data_rate: 2,
            t_ccd_s: 3,
            t_ccd_l: 3,
            ..SdramConfig::default()
        };
        assert_eq!(odd.burst_cycles(), 3);
        assert_eq!(SdramConfig::default().burst_cycles(), 1);
    }

    #[test]
    fn bank_group_mapping_alternates_groups() {
        let ddr3 = SdramConfig::for_device(DevicePreset::Ddr3_1600);
        let groups: Vec<u32> = (0..4).map(|b| ddr3.bank_group_of(b)).collect();
        assert_eq!(groups, vec![0, 1, 0, 1]);
        // Flat devices put every bank in group 0.
        assert_eq!(SdramConfig::default().bank_group_of(3), 0);
    }

    #[test]
    fn each_rule_fires_on_its_minimal_violation() {
        let base = SdramConfig::default;
        let cases: Vec<(SdramConfig, ConfigError)> = vec![
            (
                SdramConfig {
                    internal_banks: 3,
                    ..base()
                },
                ConfigError::InternalBanksNotPowerOfTwo(3),
            ),
            (SdramConfig { ranks: 0, ..base() }, ConfigError::NoRanks),
            (
                SdramConfig { t_cas: 0, ..base() },
                ConfigError::ZeroCasLatency,
            ),
            (
                SdramConfig {
                    t_ras: 0,
                    t_rc: 2, // keep tRC >= tRAS + tRP
                    ..base()
                },
                ConfigError::SramModeNeedsZeroRcd { t_rcd: 2 },
            ),
            (
                SdramConfig { t_ras: 3, ..base() },
                ConfigError::RowOpenTooShort {
                    t_ras: 3,
                    t_rcd: 2,
                    t_cas: 2,
                },
            ),
            (
                SdramConfig { t_rc: 6, ..base() },
                ConfigError::CycleTimeTooShort {
                    t_rc: 6,
                    t_ras: 5,
                    t_rp: 2,
                },
            ),
            (
                SdramConfig {
                    bank_groups: 3,
                    ..base()
                },
                ConfigError::BankGroupsInvalid {
                    bank_groups: 3,
                    internal_banks: 4,
                },
            ),
            (
                SdramConfig {
                    bank_groups: 8,
                    ..base()
                },
                ConfigError::BankGroupsInvalid {
                    bank_groups: 8,
                    internal_banks: 4,
                },
            ),
            (
                SdramConfig {
                    burst_words: 0,
                    ..base()
                },
                ConfigError::ZeroBurstGeometry {
                    burst_words: 0,
                    data_rate: 1,
                },
            ),
            (
                SdramConfig {
                    t_ccd_l: 2,
                    t_ccd_s: 3,
                    ..base()
                },
                ConfigError::CcdInversion {
                    t_ccd_l: 2,
                    t_ccd_s: 3,
                },
            ),
            (
                SdramConfig {
                    burst_words: 4,
                    data_rate: 1,
                    t_ccd_l: 4,
                    t_ccd_s: 3,
                    ..base()
                },
                ConfigError::BurstNeedsCcd {
                    burst_cycles: 4,
                    t_ccd_s: 3,
                },
            ),
            (
                SdramConfig {
                    refresh_interval: 100,
                    t_rfc: 0,
                    ..base()
                },
                ConfigError::RefreshWithoutRfc,
            ),
            (
                SdramConfig {
                    refresh_interval: 8,
                    t_rfc: 8,
                    ..base()
                },
                ConfigError::RefreshIntervalTooShort {
                    interval: 8,
                    t_rfc: 8,
                },
            ),
            (
                SdramConfig {
                    log2_cols: 40,
                    log2_rows: 30,
                    ..base()
                },
                ConfigError::GeometryOverflow { bits: 72 },
            ),
            (
                SdramConfig {
                    fault: crate::FaultConfig {
                        transient_ppm: 1_000_001,
                        ..crate::FaultConfig::none()
                    },
                    ..base()
                },
                ConfigError::FaultRateOutOfRange {
                    rate: "transient_ppm",
                    ppm: 1_000_001,
                },
            ),
            (
                SdramConfig {
                    fault: crate::FaultConfig {
                        hard_failed_bank: Some(4),
                        ..crate::FaultConfig::none()
                    },
                    ..base()
                },
                ConfigError::HardFailedBankOutOfRange { bank: 4, banks: 4 },
            ),
            (
                SdramConfig {
                    refresh_interval: 781,
                    fault: crate::FaultConfig {
                        retention_cycles: 500,
                        ..crate::FaultConfig::none()
                    },
                    ..base()
                },
                ConfigError::RetentionWithinRefreshInterval {
                    retention: 500,
                    interval: 781,
                },
            ),
        ];
        for (cfg, want) in cases {
            let errs = cfg.check();
            assert!(
                errs.contains(&want),
                "expected {want:?} among {errs:?} for {cfg:?}"
            );
            assert!(cfg.validate().is_err());
        }
    }

    #[test]
    fn check_reports_every_violation_at_once() {
        let cfg = SdramConfig {
            internal_banks: 5,
            ranks: 0,
            t_cas: 0,
            ..SdramConfig::default()
        };
        let errs = cfg.check();
        assert!(errs.len() >= 3, "all three violations reported: {errs:?}");
    }

    #[test]
    fn error_display_is_readable() {
        let e = SdramConfig {
            internal_banks: 3,
            ..SdramConfig::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(
            e.to_string(),
            "internal_banks = 3 is not a nonzero power of two"
        );
    }

    #[test]
    fn map_roundtrip_is_injective() {
        let c = SdramConfig {
            log2_cols: 3,
            log2_rows: 2,
            internal_banks: 2,
            ..SdramConfig::default()
        };
        let mut seen = std::collections::HashSet::new();
        for a in 0..c.capacity_words() {
            assert!(seen.insert(c.map(a)), "duplicate mapping for {a}");
        }
    }
}
