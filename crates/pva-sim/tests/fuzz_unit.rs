//! Randomized fuzzing of the whole PVA unit: random batches of mixed
//! gathered reads and scattered writes, checked element-for-element
//! against a simple functional memory model, across geometries,
//! scheduler options and refresh settings. Uses the deterministic
//! in-tree [`SplitMix64`] so every failure replays exactly.

use std::collections::HashMap;

use pva_core::{Geometry, SplitMix64, Vector};
use pva_sim::{HostRequest, PvaConfig, PvaUnit, RowPolicy};
use sdram::{DevicePreset, SdramConfig};

const CASES: u64 = 48;

/// Cases per (preset, policy) pair of the generation-part fuzzer: its
/// batches are up to five times larger and run under both loops.
const GENERATION_CASES: u64 = 12;

/// A request recipe the generator produces.
#[derive(Debug, Clone)]
struct Req {
    base: u64,
    stride: u64,
    len: u64,
    write: bool,
    seed: u64,
}

fn req(r: &mut SplitMix64) -> Req {
    Req {
        base: r.below(8192),
        stride: r.range(1, 64),
        len: r.range(1, 33),
        write: r.coin(),
        seed: r.next_u64(),
    }
}

fn reqs(r: &mut SplitMix64, lo: u64, hi: u64) -> Vec<Req> {
    let n = r.range(lo, hi);
    (0..n).map(|_| req(r)).collect()
}

/// Functional oracle: apply the same request sequence to a flat map,
/// reading PVA background values through `unit.peek` on first touch.
/// Returns the run's cycle count.
///
/// Per §5.2.4 the hardware permits WAW reordering between two writes to
/// the same location that are not separated by a read, so addresses
/// touched by more than one write request are excluded from the checks
/// (the paper relies on a write-allocate L2 making that case
/// impossible in practice).
fn run_both(reqs: &[Req], cfg: PvaConfig) -> u64 {
    let mut unit = PvaUnit::new(cfg).expect("valid config");
    let mut oracle: HashMap<u64, u64> = HashMap::new();
    let mut write_count: HashMap<u64, u32> = HashMap::new();
    let mut host: Vec<HostRequest> = Vec::new();
    let mut expected_reads: Vec<(usize, Vec<(u64, u64)>)> = Vec::new();

    for (i, r) in reqs.iter().enumerate() {
        let v = Vector::new(r.base, r.stride, r.len).expect("nonzero");
        if r.write {
            let data: Vec<u64> = (0..r.len).map(|k| r.seed ^ (k << 32) ^ k).collect();
            for (k, addr) in v.addresses().enumerate() {
                oracle.insert(addr, data[k]);
                *write_count.entry(addr).or_default() += 1;
            }
            host.push(HostRequest::Write { vector: v, data });
        } else {
            let want: Vec<(u64, u64)> = v
                .addresses()
                .map(|a| (a, oracle.get(&a).copied().unwrap_or_else(|| unit.peek(a))))
                .collect();
            expected_reads.push((i, want));
            host.push(HostRequest::Read { vector: v });
        }
    }

    let result = unit.run(host).expect("requests fit the line length");
    assert_eq!(result.completions.len(), reqs.len());
    for (idx, want) in expected_reads {
        let got = result.completions[idx]
            .data
            .as_ref()
            .expect("read completion carries data");
        for (k, (addr, val)) in want.iter().enumerate() {
            if write_count.get(addr).copied().unwrap_or(0) > 1 {
                continue; // WAW-ambiguous address (allowed by §5.2.4)
            }
            assert_eq!(got[k], *val, "request {idx} element {k}");
        }
    }
    // Unambiguous oracle writes landed in memory.
    for (&addr, &val) in &oracle {
        if write_count[&addr] > 1 {
            continue;
        }
        assert_eq!(unit.peek(addr), val, "address {addr:#x}");
    }
    result.cycles
}

/// The default prototype configuration serves any mixed batch
/// correctly. Note: reads and writes in one batch respect program
/// order per §5.2.4 (RAW hazards cannot happen).
#[test]
fn default_config_serves_random_batches() {
    let mut r = SplitMix64::new(0xF201);
    for _ in 0..CASES {
        let reqs = reqs(&mut r, 1, 12);
        run_both(&reqs, PvaConfig::default());
    }
}

/// Every scheduler-option corner serves the same batches correctly.
#[test]
fn option_corners_are_correct() {
    let mut r = SplitMix64::new(0xF202);
    for _ in 0..CASES {
        let reqs = reqs(&mut r, 1, 8);
        let mut cfg = PvaConfig::default();
        cfg.options.out_of_order = r.coin();
        cfg.options.promote_opens = r.coin();
        cfg.options.bypass_paths = r.coin();
        cfg.options.row_policy = match r.below(4) {
            0 => RowPolicy::MissPredictsClose,
            1 => RowPolicy::PaperLiteral,
            2 => RowPolicy::AlwaysClose,
            _ => RowPolicy::AlwaysOpen,
        };
        run_both(&reqs, cfg);
    }
}

/// Block-interleaved geometries serve the same batches correctly.
#[test]
fn block_interleave_is_correct() {
    let mut r = SplitMix64::new(0xF203);
    for _ in 0..CASES {
        let reqs = reqs(&mut r, 1, 8);
        let m = r.range(1, 5) as u32;
        let n = r.range(1, 6) as u32;
        let cfg = PvaConfig {
            geometry: Geometry::cacheline_interleaved(1 << m, 1 << n).unwrap(),
            ..PvaConfig::default()
        };
        run_both(&reqs, cfg);
    }
}

/// Refresh-enabled devices serve the same batches correctly.
#[test]
fn refresh_config_is_correct() {
    let mut r = SplitMix64::new(0xF204);
    for _ in 0..CASES {
        let reqs = reqs(&mut r, 1, 8);
        let cfg = PvaConfig {
            sdram: SdramConfig::for_device(DevicePreset::SdrRefresh),
            ..PvaConfig::default()
        };
        run_both(&reqs, cfg);
    }
}

/// The generation-aware parts (DDR3, HBM2), policy on and off, with
/// batches large enough to fill more than 16 vector contexts and
/// transaction ids — past the window walk's fixed 16-entry `skipped`
/// array. Half the cases pin every request to one bank and let the
/// read/write direction run in long stretches, so polarity-anchored
/// windows skip long opposite-direction runs; a quarter use block
/// interleave, whose index-list contexts the bypass range check scans.
/// Each case runs under both simulation loops (the debug build also
/// replays every event-loop jump through the wake-soundness oracle),
/// which must agree on the cycle count and both meet the oracle.
#[test]
fn generation_parts_are_correct_in_both_loops() {
    let mut r = SplitMix64::new(0xF20C);
    for preset in [DevicePreset::Ddr3_1600, DevicePreset::Hbm2Like] {
        for generation_aware in [true, false] {
            for case in 0..GENERATION_CASES {
                let one_bank = r.coin();
                let mut write = r.coin();
                let mut run_left = 0;
                let reqs: Vec<Req> = (0..r.range(8, 41))
                    .map(|_| {
                        let mut q = req(&mut r);
                        if one_bank {
                            q.base = r.below(512) * 16;
                            q.stride = r.range(1, 5) * 16;
                            if run_left == 0 {
                                write = !write;
                                run_left = r.range(1, 25);
                            }
                            run_left -= 1;
                            q.write = write;
                        }
                        q
                    })
                    .collect();
                let wide = r.coin();
                let txns = if wide { r.range(17, 41) } else { r.range(1, 9) } as usize;
                let mut cfg = PvaConfig {
                    sdram: SdramConfig::for_device(preset),
                    transaction_ids: txns,
                    request_fifo_entries: txns,
                    vector_contexts: if wide { r.range(17, 33) } else { r.range(1, 5) } as usize,
                    ..PvaConfig::default()
                };
                if r.below(4) == 0 {
                    cfg.geometry = Geometry::cacheline_interleaved(16, 1 << r.range(1, 4)).unwrap();
                }
                cfg.options.generation_aware = generation_aware;
                let fast = run_both(
                    &reqs,
                    PvaConfig {
                        fast_sim: true,
                        ..cfg
                    },
                );
                let reference = run_both(
                    &reqs,
                    PvaConfig {
                        fast_sim: false,
                        ..cfg
                    },
                );
                assert_eq!(
                    fast,
                    reference,
                    "{} generation_aware={generation_aware} case {case}: cycles",
                    preset.name()
                );
            }
        }
    }
}

/// The kitchen sink: block interleave + multi-rank devices + refresh +
/// CVMS-grade FHC latency, all at once.
#[test]
fn combined_exotic_config_is_correct() {
    let mut r = SplitMix64::new(0xF205);
    for _ in 0..CASES {
        let reqs = reqs(&mut r, 1, 6);
        let cfg = PvaConfig {
            geometry: Geometry::cacheline_interleaved(4, 8).unwrap(),
            sdram: SdramConfig {
                ranks: 2,
                log2_rows: 4,
                log2_cols: 6,
                ..SdramConfig::for_device(DevicePreset::SdrRefresh)
            },
            fhc_latency: 13,
            ..PvaConfig::default()
        };
        run_both(&reqs, cfg);
    }
}

/// The simulation is deterministic: identical batches, identical
/// cycle counts and data.
#[test]
fn simulation_is_deterministic() {
    let mut r = SplitMix64::new(0xF206);
    for _ in 0..CASES {
        let reqs = reqs(&mut r, 1, 8);
        let build = |reqs: &[Req]| -> (u64, Vec<Option<Vec<u64>>>) {
            let mut unit = PvaUnit::new(PvaConfig::default()).expect("valid");
            let host: Vec<HostRequest> = reqs
                .iter()
                .map(|r| {
                    let v = Vector::new(r.base, r.stride, r.len).expect("nonzero");
                    if r.write {
                        HostRequest::Write {
                            vector: v,
                            data: vec![r.seed; r.len as usize],
                        }
                    } else {
                        HostRequest::Read { vector: v }
                    }
                })
                .collect();
            let r = unit.run(host).expect("runs");
            (
                r.cycles,
                r.completions.into_iter().map(|c| c.data).collect(),
            )
        };
        assert_eq!(build(&reqs), build(&reqs));
    }
}

/// Completion order bookkeeping: every request completes exactly once,
/// indices match submission order, reads carry data and writes do not.
#[test]
fn completions_are_well_formed() {
    let mut r = SplitMix64::new(0xF207);
    for _ in 0..CASES {
        let reqs = reqs(&mut r, 1, 10);
        let mut unit = PvaUnit::new(PvaConfig::default()).expect("valid");
        let host: Vec<HostRequest> = reqs
            .iter()
            .map(|r| {
                let v = Vector::new(r.base, r.stride, r.len).expect("nonzero");
                if r.write {
                    HostRequest::Write {
                        vector: v,
                        data: vec![0; r.len as usize],
                    }
                } else {
                    HostRequest::Read { vector: v }
                }
            })
            .collect();
        let result = unit.run(host).expect("runs");
        assert_eq!(result.completions.len(), reqs.len());
        for (i, c) in result.completions.iter().enumerate() {
            assert_eq!(c.request_index, i);
            assert!(c.completed_at >= c.issued_at);
            match reqs[i].write {
                true => assert!(c.data.is_none()),
                false => {
                    assert_eq!(
                        c.data.as_ref().expect("read data").len() as u64,
                        reqs[i].len
                    );
                }
            }
        }
    }
}

/// §5.2.4 consistency semantics, deterministically: a read between two
/// writes to the same location orders them (no WAW ambiguity), and RAW
/// hazards cannot happen.
#[test]
fn polarity_rule_orders_write_read_write() {
    let mut unit = PvaUnit::new(PvaConfig::default()).unwrap();
    let v = Vector::new(0x700, 3, 32).unwrap();
    let first: Vec<u64> = vec![1; 32];
    let second: Vec<u64> = vec![2; 32];
    let r = unit
        .run(vec![
            HostRequest::Write {
                vector: v,
                data: first,
            },
            HostRequest::Read { vector: v },
            HostRequest::Write {
                vector: v,
                data: second.clone(),
            },
        ])
        .unwrap();
    // The read (RAW) sees the first write's data...
    assert_eq!(r.completions[1].data.as_ref().unwrap(), &vec![1u64; 32]);
    // ...and the second write lands last.
    for addr in v.addresses() {
        assert_eq!(unit.peek(addr), 2);
    }
}
