//! Seeded workload inputs: the vector-command traces each workload
//! simulates and the configurations it simulates them on.

use std::sync::atomic::{AtomicU64, Ordering};

use kernels::{Alignment, Kernel, ARRAY_REGION, ELEMENTS, LINE_WORDS, STRIDES};
use memsys::{OpKind, TraceOp};
use pva_core::SplitMix64;
use pva_sim::{HostRequest, PvaConfig};
use sdram::{DevicePreset, SdramConfig};

use crate::spans;

/// The named workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §6.2 sweep on sdr100 with the event core.
    PaperSdr,
    /// The same kernel traces on ddr3-1600 and hbm2, generation-aware.
    ModernMixed,
    /// Read-only strided gathers on ddr3-1600 and hbm2.
    ModernGather,
    /// The full `pva-bench all` registry with golden verification.
    Campaign,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        Some(match name {
            "paper-sdr" => Workload::PaperSdr,
            "modern-mixed" => Workload::ModernMixed,
            "modern-gather" => Workload::ModernGather,
            "campaign" => Workload::Campaign,
            _ => return None,
        })
    }

    /// Presets the workload's own traffic runs on.
    pub fn presets(self) -> &'static [DevicePreset] {
        match self {
            Workload::PaperSdr | Workload::Campaign => &[DevicePreset::Sdr100],
            Workload::ModernMixed | Workload::ModernGather => {
                &[DevicePreset::Ddr3_1600, DevicePreset::Hbm2Like]
            }
        }
    }
}

/// Alignment slots per kernel and stride, as in the paper's sweep.
pub const SLOTS: usize = 5;

/// Gather batches per preset: 420 batches of 32 line reads on average
/// match the 13440 line reads per preset of the kernel sweep's read
/// half.
const GATHER_BATCHES: usize = 420;

/// One trace simulation: a 1024-element kernel or one gather batch on
/// one configuration.
#[derive(Debug, Clone)]
pub struct Job {
    pub label: String,
    pub preset: DevicePreset,
    pub config: PvaConfig,
    pub ops: Vec<TraceOp>,
    pub requests: Vec<HostRequest>,
    pub read_elems: u64,
    pub write_elems: u64,
}

impl Job {
    fn new(label: String, preset: DevicePreset, ops: Vec<TraceOp>) -> Job {
        let config = config_for(preset);
        let mut read_elems = 0;
        let mut write_elems = 0;
        let requests = ops
            .iter()
            .map(|op| match op.kind {
                OpKind::Read => {
                    read_elems += op.vector.length();
                    HostRequest::Read { vector: op.vector }
                }
                OpKind::Write => {
                    write_elems += op.vector.length();
                    HostRequest::Write {
                        vector: op.vector,
                        data: (0..op.vector.length())
                            .map(|i| op.vector.base() ^ i)
                            .collect(),
                    }
                }
            })
            .collect();
        Job {
            label,
            preset,
            config,
            ops,
            requests,
            read_elems,
            write_elems,
        }
    }
}

/// The shipped configuration for `preset`: event core on, and the
/// generation-aware scheduler at its default (on; inert on SDR parts).
pub fn config_for(preset: DevicePreset) -> PvaConfig {
    let config = PvaConfig {
        sdram: SdramConfig::for_device(preset),
        ..PvaConfig::default()
    };
    debug_assert!(config.fast_sim && config.options.generation_aware);
    config
}

/// Per-array word offsets of the five alignment slots. Slot `j` keeps
/// the paper's `j`-th relative alignment (coincident, bank+1, bank+4,
/// ibank+1, row+1). The seed draws one shift per slot (0..65536 words)
/// that moves all of the slot's arrays together: where the kernel
/// starts in bank, internal bank and row changes, while the relative
/// placement that sets the conflicts, and so the cost spread across
/// traces, stays the paper's. Seed 0 draws no shift and reproduces the
/// paper's five alignments exactly.
pub fn slot_offsets(seed: u64) -> [[u64; 3]; SLOTS] {
    let mut rng = (seed != 0).then(|| SplitMix64::new(seed));
    let mut out = [[0u64; 3]; SLOTS];
    for (slot, a) in out.iter_mut().zip(Alignment::ALL) {
        let shift = rng.as_mut().map_or(0, |r| r.below(1 << 16));
        for (k, o) in slot.iter_mut().enumerate() {
            *o = a.offset(k as u64) + shift;
        }
    }
    out
}

/// Trace operations generated inside `kernels.trace` spans.
pub static TRACED_OPS: AtomicU64 = AtomicU64::new(0);

/// Runs one `Kernel::trace` call inside a `kernels.trace` span.
fn traced_trace(trace: u64, f: impl FnOnce() -> Vec<TraceOp>) -> Vec<TraceOp> {
    let ops = spans::span("kernels.trace", 0, trace, |_| f());
    if spans::enabled() {
        TRACED_OPS.fetch_add(ops.len() as u64, Ordering::Relaxed);
    }
    ops
}

/// The §6.2 kernel sweep (8 kernels x 6 strides x 5 slots) on each
/// preset. Each `Kernel::trace` call is a `kernels.trace` span.
pub fn kernel_jobs(seed: u64, presets: &[DevicePreset], trace: u64) -> Vec<Job> {
    let offsets = slot_offsets(seed);
    let mut traces = Vec::new();
    for kernel in Kernel::ALL {
        for &stride in &STRIDES {
            for (slot, off) in offsets.iter().enumerate() {
                let bases: Vec<u64> = (0..kernel.array_count())
                    .map(|k| k as u64 * ARRAY_REGION + off[k])
                    .collect();
                let ops =
                    traced_trace(trace, || kernel.trace(&bases, stride, ELEMENTS, LINE_WORDS));
                traces.push((format!("{}/s{stride}/slot{slot}", kernel.name()), ops));
            }
        }
    }
    let mut jobs = Vec::new();
    for &p in presets {
        for (label, ops) in &traces {
            jobs.push(Job::new(format!("{}/{label}", p.name()), p, ops.clone()));
        }
    }
    jobs
}

/// Read-only gather batches: per batch the seed draws a base, a stride
/// (1..=20) and a count of line reads (24..=40, 32 on average — one
/// batch moves about as many elements as one kernel array). A batch is
/// the read stream of a `copy` kernel over `count` lines.
pub fn gather_jobs(seed: u64, presets: &[DevicePreset], trace: u64) -> Vec<Job> {
    let mut rng = SplitMix64::new(seed ^ 0x6761_7468_6572);
    let mut jobs = Vec::new();
    for &p in presets {
        for b in 0..GATHER_BATCHES {
            let base = rng.below(2 * ARRAY_REGION);
            let stride = rng.range(1, 21);
            let count = rng.range(24, 41);
            let ops = traced_trace(trace, || {
                Kernel::Copy.trace(&[base, base], stride, count * LINE_WORDS, LINE_WORDS)
            })
            .into_iter()
            .filter(|op| op.kind == OpKind::Read)
            .collect();
            jobs.push(Job::new(
                format!("{}/gather{b}/s{stride}x{count}", p.name()),
                p,
                ops,
            ));
        }
    }
    jobs
}

/// The workload's jobs (empty for the campaign, whose inputs are the
/// `pva-bench` registry).
pub fn jobs(workload: Workload, seed: u64) -> Vec<Job> {
    match workload {
        Workload::PaperSdr | Workload::ModernMixed => {
            kernel_jobs(seed, workload.presets(), spans::new_trace())
        }
        Workload::ModernGather => gather_jobs(seed, workload.presets(), spans::new_trace()),
        Workload::Campaign => Vec::new(),
    }
}

/// Deterministic shuffle (Fisher–Yates) driven by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix64::new(seed ^ 0x7368_7566);
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}
