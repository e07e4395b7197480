//! # pva-bench — data generation for every table and figure
//!
//! The scenario registry ([`scenarios`]) and the engine that runs it
//! ([`engine`]) regenerate every table and figure of the paper's
//! evaluation through the `pva-bench` CLI. The functions at the crate
//! root compute the same series directly for library callers. See
//! `EXPERIMENTS.md` for the paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use kernels::{run_cell, run_point, Alignment, CellResult, Kernel, SystemKind, STRIDES};
use pva_sim::{PvaConfig, RowPolicy};

pub mod campaign;
pub mod engine;
pub mod journal;
pub mod json;
pub mod report;
pub mod resilient;
pub mod scenarios;

/// One row of the figure-7/8 stride sweeps: a kernel at a stride, with
/// min/max cycles per system over the five alignments.
#[derive(Debug, Clone)]
pub struct StrideSweepRow {
    /// Kernel name.
    pub kernel: &'static str,
    /// Element stride.
    pub stride: u64,
    /// Cells in [`SystemKind::ALL`] order.
    pub cells: Vec<(SystemKind, CellResult)>,
}

/// Figure 7 (copy, saxpy, scale) or figure 8 (swap, tridiag, vaxpy):
/// each kernel swept over the six strides on all four systems.
pub fn stride_sweep(kernels: &[Kernel]) -> Vec<StrideSweepRow> {
    let mut rows = Vec::new();
    for &k in kernels {
        for &s in &STRIDES {
            rows.push(StrideSweepRow {
                kernel: k.name(),
                stride: s,
                cells: SystemKind::ALL
                    .iter()
                    .map(|&sys| (sys, run_cell(k, s, sys)))
                    .collect(),
            });
        }
    }
    rows
}

/// One row of the figure-9/10 fixed-stride comparisons: a kernel with
/// per-system cycles *normalized to the PVA-SDRAM minimum* (the
/// percentage annotations of the paper's bars).
#[derive(Debug, Clone)]
pub struct FixedStrideRow {
    /// Kernel name.
    pub kernel: &'static str,
    /// Per-system (cycles-min, cycles-max, normalized-%-of-pva-min).
    pub cells: Vec<(SystemKind, CellResult, f64)>,
}

/// Figure 9 (strides 1 and 4) / figure 10 (8, 16, 19): all eight access
/// patterns at one stride.
pub fn fixed_stride(stride: u64) -> Vec<FixedStrideRow> {
    Kernel::ALL
        .iter()
        .map(|&k| {
            let pva_min = run_cell(k, stride, SystemKind::PvaSdram).min;
            FixedStrideRow {
                kernel: k.name(),
                cells: SystemKind::ALL
                    .iter()
                    .map(|&sys| {
                        let cell = run_cell(k, stride, sys);
                        let pct = 100.0 * cell.min as f64 / pva_min as f64;
                        (sys, cell, pct)
                    })
                    .collect(),
            }
        })
        .collect()
}

/// One point of the figure-11 vaxpy detail: stride x alignment on the
/// PVA-SDRAM and PVA-SRAM systems.
#[derive(Debug, Clone)]
pub struct VaxpyDetailPoint {
    /// Element stride.
    pub stride: u64,
    /// Alignment preset.
    pub alignment: &'static str,
    /// PVA over SDRAM cycles.
    pub sdram: u64,
    /// PVA over idealized SRAM cycles.
    pub sram: u64,
}

/// Figure 11: vaxpy across strides and relative alignments, SDRAM vs
/// SRAM back ends.
pub fn vaxpy_detail() -> Vec<VaxpyDetailPoint> {
    let mut out = Vec::new();
    for &stride in &STRIDES {
        for a in Alignment::ALL {
            out.push(VaxpyDetailPoint {
                stride,
                alignment: a.name(),
                sdram: run_point(Kernel::Vaxpy, stride, a, SystemKind::PvaSdram),
                sram: run_point(Kernel::Vaxpy, stride, a, SystemKind::PvaSram),
            });
        }
    }
    out
}

/// The abstract's headline numbers, recomputed on this model.
#[derive(Debug, Clone, Copy)]
pub struct Headline {
    /// Largest speedup of PVA-SDRAM (min) over the cache-line serial
    /// system across the whole design space ("up to 32.8x" in the
    /// paper), and where it occurred.
    pub vs_cacheline: (f64, &'static str, u64),
    /// Largest speedup over the gathering serial system ("3.3x faster
    /// than a pipelined vector unit").
    pub vs_serial_gather: (f64, &'static str, u64),
    /// Worst unit-stride ratio of cache-line serial to PVA ("without
    /// hurting normal cache line fill performance": >= ~1.0 means the
    /// PVA matches line fills).
    pub unit_stride_parity: f64,
    /// Worst-case SDRAM/SRAM ratio over the vaxpy detail (paper: at most
    /// ~15% slower, figure 11).
    pub sram_gap: f64,
}

/// Recomputes the headline claims from full sweeps.
pub fn headline() -> Headline {
    let mut vs_cl: (f64, &'static str, u64) = (0.0, "", 0);
    let mut vs_sg: (f64, &'static str, u64) = (0.0, "", 0);
    let mut parity = f64::MAX;
    for k in Kernel::ALL {
        for &s in &STRIDES {
            let pva = run_cell(k, s, SystemKind::PvaSdram).min as f64;
            let cl = run_cell(k, s, SystemKind::CachelineSerial).min as f64;
            let sg = run_cell(k, s, SystemKind::SerialGather).min as f64;
            if cl / pva > vs_cl.0 {
                vs_cl = (cl / pva, k.name(), s);
            }
            if sg / pva > vs_sg.0 {
                vs_sg = (sg / pva, k.name(), s);
            }
            if s == 1 {
                parity = parity.min(cl / pva);
            }
        }
    }
    let mut gap: f64 = 1.0;
    for p in vaxpy_detail() {
        gap = gap.max(p.sdram as f64 / p.sram as f64);
    }
    Headline {
        vs_cacheline: vs_cl,
        vs_serial_gather: vs_sg,
        unit_stride_parity: parity,
        sram_gap: gap,
    }
}

/// One configuration of the scheduler-ablation study and its cycles on
/// probes chosen to be *scheduler-bound* rather than staging-bus-bound
/// (at full pipelining the 17-cycle/command BC-bus floor hides the
/// scheduler entirely — itself a finding the `ablation_scheduler` bench
/// reports).
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Human-readable configuration label.
    pub label: &'static str,
    /// Single-command gather latency at a non-power-of-two stride
    /// (exercises the FHC path and the §5.2.3 bypass paths).
    pub latency_s5: u64,
    /// vaxpy at stride 16, coincident alignment: every vector in one
    /// external bank, rows conflicting (row policy + open promotion).
    pub vaxpy_s16: u64,
    /// Alternating single-bank reads/writes (polarity rule +
    /// out-of-order issue).
    pub rw_mix_s16: u64,
}

/// The ablation configurations of §5.2, in presentation order.
pub fn ablation_configs() -> Vec<(&'static str, PvaConfig)> {
    let mut out = vec![("baseline (all features)", PvaConfig::default())];

    let mut c = PvaConfig::default();
    c.options.out_of_order = false;
    out.push(("no out-of-order issue", c));

    let mut c = PvaConfig::default();
    c.options.promote_opens = false;
    out.push(("no open/precharge promotion", c));

    let mut c = PvaConfig::default();
    c.options.bypass_paths = false;
    out.push(("no bypass paths", c));

    let mut c = PvaConfig::default();
    c.options.row_policy = RowPolicy::PaperLiteral;
    out.push(("row policy: paper-literal", c));

    let mut c = PvaConfig::default();
    c.options.row_policy = RowPolicy::AlwaysClose;
    out.push(("row policy: always close", c));

    let mut c = PvaConfig::default();
    c.options.row_policy = RowPolicy::AlwaysOpen;
    out.push(("row policy: always open", c));

    let mut c = PvaConfig::default();
    c.options.row_policy = RowPolicy::AlphaHistory;
    out.push(("row policy: 21174 4-bit history", c));

    out
}

/// Ablation probe 1: single-command gather latency at stride 5
/// (non-power-of-two — FHC + §5.2.3 bypass paths).
pub fn ablation_latency_s5(cfg: PvaConfig) -> u64 {
    use pva_core::Vector;
    use pva_sim::{HostRequest, PvaUnit};
    let mut unit = PvaUnit::new(cfg).expect("valid config");
    let v = Vector::new(0, 5, 32).expect("valid vector");
    unit.run(vec![HostRequest::Read { vector: v }])
        .expect("runs")
        .cycles
}

/// Ablation probe 2: vaxpy at stride 16, coincident alignment
/// (bank-bound, row-conflict heavy — the scheduler's home turf).
pub fn ablation_vaxpy_s16(label: &'static str, cfg: PvaConfig) -> u64 {
    use memsys::MemorySystem;
    let k = Kernel::Vaxpy;
    let bases = Alignment::Coincident.bases(k.array_count(), kernels::ARRAY_REGION);
    let trace = k.trace(&bases, 16, kernels::ELEMENTS, kernels::LINE_WORDS);
    memsys::PvaSystem::with_config(label, cfg)
        .run_trace(&trace)
        .cycles
}

/// Ablation probe 3: alternating read/write commands all hitting one
/// bank (polarity rule + out-of-order issue).
pub fn ablation_rw_mix_s16(cfg: PvaConfig) -> u64 {
    use pva_core::Vector;
    use pva_sim::{HostRequest, PvaUnit};
    let mut unit = PvaUnit::new(cfg).expect("valid config");
    let reqs: Vec<HostRequest> = (0..8u64)
        .map(|i| {
            let v = Vector::new(i * 512 * 16, 16, 32).expect("valid vector");
            if i % 2 == 0 {
                HostRequest::Read { vector: v }
            } else {
                HostRequest::Write {
                    vector: v,
                    data: vec![0; 32],
                }
            }
        })
        .collect();
    unit.run(reqs).expect("runs").cycles
}

/// Ablations of the §5.2 design choices: out-of-order issue, open/
/// precharge promotion, bypass paths, and the four row policies.
pub fn ablations() -> Vec<AblationRow> {
    ablation_configs()
        .into_iter()
        .map(|(label, cfg)| AblationRow {
            label,
            latency_s5: ablation_latency_s5(cfg),
            vaxpy_s16: ablation_vaxpy_s16(label, cfg),
            rw_mix_s16: ablation_rw_mix_s16(cfg),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_sweep_has_expected_shape() {
        let rows = stride_sweep(&[Kernel::Scale]);
        assert_eq!(rows.len(), STRIDES.len());
        for r in &rows {
            assert_eq!(r.cells.len(), 4);
        }
    }

    #[test]
    fn fixed_stride_normalizes_to_pva_min() {
        let rows = fixed_stride(1);
        for r in &rows {
            let (sys, _, pct) = r.cells[0];
            assert_eq!(sys, SystemKind::PvaSdram);
            assert!((pct - 100.0).abs() < 1e-9, "{}: {pct}", r.kernel);
        }
    }

    #[test]
    fn headline_directions_are_right() {
        let h = headline();
        assert!(h.vs_cacheline.0 > 5.0, "big win at large strides");
        assert!(h.vs_serial_gather.0 > 1.0, "beats serial gathering");
        assert!(h.unit_stride_parity > 0.7, "line fills not hurt");
        assert!(h.sram_gap < 1.5, "close to SRAM");
    }

    #[test]
    fn ablations_cover_all_switches() {
        let rows = ablations();
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|r| r.latency_s5 > 0));
        // The bypass-path ablation must show up in single-command
        // latency (the §5.2.3 claim).
        let base = rows[0].latency_s5;
        let no_bypass = rows
            .iter()
            .find(|r| r.label.contains("bypass"))
            .expect("bypass row present")
            .latency_s5;
        assert!(no_bypass > base, "bypass paths reduce idle latency");
    }
}
