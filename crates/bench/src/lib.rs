//! # pva-bench — data generation for every table and figure
//!
//! The scenario registry ([`scenarios`]) and the engine that runs it
//! ([`engine`]) regenerate every table and figure of the paper's
//! evaluation through the `pva-bench` CLI. The crate root holds the
//! §5.2 scheduler-ablation configurations and probes the
//! `ablation_scheduler` scenario is built from. See `EXPERIMENTS.md`
//! for the paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use kernels::{Alignment, Kernel};
use pva_sim::{PvaConfig, RowPolicy};

pub mod campaign;
pub mod engine;
pub mod journal;
pub mod json;
pub mod report;
pub mod resilient;
pub mod scenarios;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bypass_paths_cut_single_command_latency() {
        // The §5.2.3 claim the ablation table shows: with the bypass
        // paths off, an idle controller's gather takes longer.
        let configs = ablation_configs();
        assert_eq!(configs.len(), 8);
        let latency = |label: &str| {
            let (_, cfg) = configs
                .iter()
                .find(|(l, _)| l.contains(label))
                .expect("configuration present");
            ablation_latency_s5(*cfg)
        };
        assert!(latency("no bypass") > latency("baseline"));
    }
}
