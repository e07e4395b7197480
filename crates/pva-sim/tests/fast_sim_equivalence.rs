//! The next-event fast path (`PvaConfig::fast_sim`) must be cycle-exact:
//! every run — cycles, completions, bus stats, per-bank stats, device
//! stats — must be bit-identical to the plain per-cycle reference model,
//! across strides, mixed read/write traffic, refresh, faults and the
//! watchdog.

use kernels::{Alignment, Kernel, ARRAY_REGION, LINE_WORDS, STRIDES};
use pva_core::{PvaError, Vector};
use pva_sim::{HostRequest, OpKind, PvaConfig, PvaUnit, RunResult};
use sdram::{DevicePreset, SdramConfig};

fn run_with(cfg: PvaConfig, requests: &[HostRequest]) -> Result<RunResult, PvaError> {
    let mut unit = PvaUnit::new(cfg).expect("valid config");
    unit.run(requests.to_vec())
}

fn assert_identical(cfg: PvaConfig, requests: &[HostRequest], label: &str) {
    let mut fast_cfg = cfg;
    fast_cfg.fast_sim = true;
    let mut ref_cfg = cfg;
    ref_cfg.fast_sim = false;
    let fast = run_with(fast_cfg, requests).expect("fast run succeeds");
    let slow = run_with(ref_cfg, requests).expect("reference run succeeds");
    assert_eq!(fast.cycles, slow.cycles, "{label}: cycles");
    assert_eq!(
        fast.completions.len(),
        slow.completions.len(),
        "{label}: completion count"
    );
    for (f, s) in fast.completions.iter().zip(&slow.completions) {
        assert_eq!(f.request_index, s.request_index, "{label}: request order");
        assert_eq!(f.issued_at, s.issued_at, "{label}: issue cycle");
        assert_eq!(f.completed_at, s.completed_at, "{label}: completion cycle");
        assert_eq!(f.data, s.data, "{label}: gathered data");
        assert_eq!(f.faulted, s.faulted, "{label}: fault flags");
    }
    let (fs, ss) = (fast.stats, slow.stats);
    assert_eq!(fs.cycles, ss.cycles, "{label}: stat cycles");
    assert_eq!(
        fs.request_cycles, ss.request_cycles,
        "{label}: request cycles"
    );
    assert_eq!(fs.data_cycles, ss.data_cycles, "{label}: data cycles");
    assert_eq!(fs.idle_cycles, ss.idle_cycles, "{label}: idle cycles");
    assert_eq!(fs.commands, ss.commands, "{label}: commands");
    for (i, (f, s)) in fast.bc_stats.iter().zip(&slow.bc_stats).enumerate() {
        assert_eq!(f.busy_cycles, s.busy_cycles, "{label}: bc {i} busy cycles");
        assert_eq!(f.elements_read, s.elements_read, "{label}: bc {i} reads");
        assert_eq!(
            f.elements_written, s.elements_written,
            "{label}: bc {i} writes"
        );
        assert_eq!(f.turnarounds, s.turnarounds, "{label}: bc {i} turnarounds");
        assert_eq!(f.row_hits, s.row_hits, "{label}: bc {i} row hits");
        assert_eq!(f.activates, s.activates, "{label}: bc {i} activates");
        assert_eq!(f.read_retries, s.read_retries, "{label}: bc {i} retries");
    }
    assert_eq!(fast.sdram, slow.sdram, "{label}: device stats");
}

fn read(base: u64, stride: u64, len: u64) -> HostRequest {
    HostRequest::Read {
        vector: Vector::new(base, stride, len).expect("valid vector"),
    }
}

fn write(base: u64, stride: u64, len: u64) -> HostRequest {
    HostRequest::Write {
        vector: Vector::new(base, stride, len).expect("valid vector"),
        data: (0..len).map(|i| 0xC0DE_0000 + i).collect(),
    }
}

#[test]
fn single_reads_match_across_strides() {
    for stride in [1u64, 2, 4, 8, 16, 19, 48] {
        assert_identical(
            PvaConfig::default(),
            &[read(0x400, stride, 32)],
            &format!("stride {stride}"),
        );
    }
}

#[test]
fn batched_mixed_traffic_matches() {
    let reqs: Vec<HostRequest> = (0..8u64)
        .map(|i| {
            let base = i * 512 * 16;
            if i % 2 == 0 {
                read(base, 16, 32)
            } else {
                write(base, 16, 32)
            }
        })
        .collect();
    assert_identical(PvaConfig::default(), &reqs, "rw mix stride 16");
}

#[test]
fn sram_backend_matches() {
    assert_identical(
        PvaConfig::sram_backend(),
        &[read(0, 19, 32), write(1 << 20, 19, 32)],
        "sram backend",
    );
}

#[test]
fn refresh_heavy_config_matches() {
    let mut cfg = PvaConfig::default();
    cfg.sdram.refresh_interval = 781;
    // Sparse single-bank traffic leaves long quiescent windows that the
    // fast path must not jump past a due refresh.
    let reqs: Vec<HostRequest> = (0..6u64).map(|i| read(i * 512 * 16, 16, 8)).collect();
    assert_identical(cfg, &reqs, "refresh interval 781");
}

#[test]
fn faulty_device_with_retries_matches() {
    let mut cfg = PvaConfig::default();
    cfg.sdram.fault.transient_ppm = 100_000;
    cfg.sdram.fault.seed = 7;
    assert_identical(
        cfg,
        &[read(0, 1, 32), read(1 << 16, 19, 32)],
        "transient faults",
    );

    let mut cfg = PvaConfig::default();
    cfg.sdram.ecc = false;
    cfg.sdram.fault.hard_failed_bank = Some(0);
    cfg.degradation = false;
    cfg.watchdog_cycles = 50_000;
    assert_identical(cfg, &[read(0, 1, 32)], "hard-failed bank, flagged");
}

#[test]
fn block_interleaved_geometry_matches() {
    let cfg = PvaConfig {
        geometry: pva_core::Geometry::new(16, 4, 1).expect("valid geometry"),
        ..PvaConfig::default()
    };
    assert_identical(
        cfg,
        &[read(0, 3, 32), write(1 << 18, 5, 32)],
        "block interleave",
    );
}

#[test]
fn watchdog_fires_at_identical_cycle() {
    // An unrecoverable retry loop: poisoned data, retries never succeed.
    let mut cfg = PvaConfig::default();
    cfg.sdram.ecc = false;
    cfg.sdram.fault.hard_failed_bank = Some(0);
    cfg.degradation = false;
    cfg.max_read_retries = u32::MAX;
    cfg.watchdog_cycles = 3_000;
    let fire = |fast: bool| -> (u64, usize) {
        let mut c = cfg;
        c.fast_sim = fast;
        match run_with(c, &[read(0, 16, 32)]) {
            Err(PvaError::Watchdog {
                cycle,
                stalled_txns,
            }) => (cycle, stalled_txns),
            other => panic!("expected watchdog, got {other:?}"),
        }
    };
    assert_eq!(fire(true), fire(false), "watchdog cycle and stall count");
}

#[test]
fn decaying_rows_match() {
    // Retention decay across an idle-heavy run: a row written early
    // must lose bits identically in both models when revisited past
    // the retention window — a fast-path jump that mis-lands around a
    // retention deadline would flip different bits.
    //
    // Time only passes while work is in flight, so a retry storm on a
    // hard-failed internal bank stretches the clock (exponential
    // backoff leaves long idle gaps the fast path jumps over) while a
    // healthy bank's row quietly decays. The revisit runs as a second
    // batch on the same unit — the clock persists across runs.
    let run2 = |fast: bool| -> (RunResult, RunResult) {
        let mut cfg = PvaConfig {
            fast_sim: fast,
            ..PvaConfig::default()
        };
        cfg.sdram.ecc = false; // poisoned reads stay poisoned -> retries
        cfg.sdram.fault.hard_failed_bank = Some(0);
        cfg.degradation = false; // no spare remap: every retry fails
        cfg.max_read_retries = 7;
        cfg.retry_backoff_cycles = 16;
        cfg.sdram.fault.retention_cycles = 500;
        cfg.sdram.fault.seed = 11;
        let mut unit = PvaUnit::new(cfg).expect("valid config");
        // 8193 = external bank 1, internal bank 1: clear of the failed
        // internal bank 0 on every device.
        let p1 = unit
            .run(vec![write(8193, 16, 32), read(0, 16, 32)])
            .expect("phase 1 completes");
        let p2 = unit
            .run(vec![read(8193, 16, 32)])
            .expect("phase 2 completes");
        (p1, p2)
    };
    let (f1, f2) = run2(true);
    let (s1, s2) = run2(false);
    assert_eq!(f1.cycles, s1.cycles, "phase-1 cycles");
    assert_eq!(f2.cycles, s2.cycles, "phase-2 cycles");
    assert_eq!(
        f2.completions[0].data, s2.completions[0].data,
        "decayed data"
    );
    assert_eq!(f2.sdram, s2.sdram, "device stats");
    assert!(
        f2.sdram.decayed_words > 0,
        "the retention window must actually lapse"
    );
    assert!(
        f1.cycles > 500,
        "the retry storm must stretch the clock past the window"
    );
}

#[test]
fn combined_fault_campaign_matches() {
    // Every fault mechanism at once — transient flips on reads, slow
    // retention decay under refresh, and a hard-failed internal bank
    // remapped into the spare by the degradation layer.
    let mut cfg = PvaConfig::default();
    cfg.sdram.fault.transient_ppm = 50_000;
    cfg.sdram.fault.retention_cycles = 2_000;
    cfg.sdram.fault.hard_failed_bank = Some(1);
    cfg.sdram.fault.seed = 23;
    cfg.sdram.refresh_interval = 781;
    let reqs: Vec<HostRequest> = (0..6u64)
        .map(|i| {
            let base = i * 512 * 16;
            if i % 3 == 2 {
                write(base, 8, 32)
            } else {
                read(base, 8, 32)
            }
        })
        .collect();
    assert_identical(cfg, &reqs, "transient + decay + hard bank");
}

/// Converts a kernel trace into host requests (writes carry a
/// deterministic payload, as the memsys adapter's do).
fn requests_of(trace: &[memsys::TraceOp]) -> Vec<HostRequest> {
    trace
        .iter()
        .map(|op| match op.kind {
            OpKind::Read => HostRequest::Read { vector: op.vector },
            OpKind::Write => HostRequest::Write {
                vector: op.vector,
                data: vec![0u64; op.vector.length() as usize],
            },
        })
        .collect()
}

#[test]
fn fig7_kernel_stride_sweep_matches() {
    // The full figure-7 grid the throughput gate measures: every
    // kernel x stride cell must agree between the two models, not just
    // the hand-picked single-vector cases above.
    const FIG7_KERNELS: [Kernel; 3] = [Kernel::Copy, Kernel::Saxpy, Kernel::Scale];
    // A quarter-length sweep keeps the debug-build runtime reasonable
    // while preserving every per-cell access pattern.
    const ELEMENTS: u64 = 256;
    for kernel in FIG7_KERNELS {
        for stride in STRIDES {
            let bases = Alignment::BankStagger.bases(kernel.array_count(), ARRAY_REGION);
            let trace = kernel.trace(&bases, stride, ELEMENTS, LINE_WORDS);
            assert_identical(
                PvaConfig::default(),
                &requests_of(&trace),
                &format!("{kernel}/s{stride}"),
            );
        }
    }
}

/// A config on the named channel-declaring device preset. These are the
/// parts where the generation-aware policy actually reorders, defers and
/// coalesces, so the fast path's wake hints (the per-context arms that
/// also cover the channel gates) and the cached issue window have the
/// most to get wrong.
fn preset_cfg(preset: DevicePreset) -> PvaConfig {
    PvaConfig {
        sdram: SdramConfig::for_device(preset),
        ..PvaConfig::default()
    }
}

#[test]
fn generation_parts_kernel_sweep_matches() {
    // The scheduler's channel-aware decisions (group-interleaved CAS,
    // tFAW deferral, burst coalescing, the range-disjoint window) must
    // not desynchronize the next-event fast path from the reference
    // stepper on the parts that enable them: every kernel at every
    // stride, with the arrays bank-staggered and row-staggered (row+1
    // puts every array in another row of the same internal bank — the
    // row-conflict worst case).
    const ELEMENTS: u64 = 256;
    for preset in [DevicePreset::Ddr3_1600, DevicePreset::Hbm2Like] {
        for alignment in [Alignment::BankStagger, Alignment::RowStagger] {
            for kernel in Kernel::ALL {
                for stride in STRIDES {
                    let bases = alignment.bases(kernel.array_count(), ARRAY_REGION);
                    let trace = kernel.trace(&bases, stride, ELEMENTS, LINE_WORDS);
                    assert_identical(
                        preset_cfg(preset),
                        &requests_of(&trace),
                        &format!("{}/{alignment}/{kernel}/s{stride}", preset.name()),
                    );
                }
            }
        }
    }
}

#[test]
fn generation_parts_fault_campaign_matches() {
    // Fault handling interleaves retries and backoff timers with the
    // channel gates; both models must walk the identical schedule.
    for preset in [DevicePreset::Ddr3_1600, DevicePreset::Hbm2Like] {
        let mut cfg = preset_cfg(preset);
        cfg.sdram.fault.transient_ppm = 50_000;
        // Must exceed these presets' refresh intervals (6240 / 3900).
        cfg.sdram.fault.retention_cycles = 8_000;
        cfg.sdram.fault.hard_failed_bank = Some(1);
        cfg.sdram.fault.seed = 23;
        let reqs: Vec<HostRequest> = (0..6u64)
            .map(|i| {
                let base = i * 512 * 16;
                if i % 3 == 2 {
                    write(base, 8, 32)
                } else {
                    read(base, 8, 32)
                }
            })
            .collect();
        assert_identical(cfg, &reqs, &format!("{} faults", preset.name()));
    }
}

#[test]
fn wake_path_configs_match() {
    // The sweeps above run every wake source at its default setting;
    // these configurations move the ones the default hides:
    // - turnaround 0 (no turnaround deadline, a polarity flip is just a
    //   CAS) and 3 (several dead cycles the deadline skips, and the
    //   post-work polarity arm);
    // - bypass paths off (the broadcast re-arm lands at `injectable_at`
    //   two cycles out instead of one);
    // - the CVMS-like 13-cycle FHC (the broadcast-cycle re-arm and the
    //   per-cycle FHC hint, long enough to overlap other work).
    let mut configs: Vec<(PvaConfig, String)> = Vec::new();
    for preset in [DevicePreset::Sdr100, DevicePreset::Ddr3_1600] {
        let name = preset.name();
        for turnaround in [0, 3] {
            let mut cfg = preset_cfg(preset);
            cfg.turnaround_cycles = turnaround;
            configs.push((cfg, format!("{name} turnaround {turnaround}")));
        }
        let mut cfg = preset_cfg(preset);
        cfg.options.bypass_paths = false;
        configs.push((cfg, format!("{name} bypass off")));
        let cfg = PvaConfig {
            sdram: SdramConfig::for_device(preset),
            ..PvaConfig::cvms_like()
        };
        configs.push((cfg, format!("{name} cvms-like")));
    }
    const ELEMENTS: u64 = 128;
    for (cfg, label) in &configs {
        for kernel in [Kernel::Copy, Kernel::Saxpy] {
            for stride in STRIDES {
                let bases = Alignment::BankStagger.bases(kernel.array_count(), ARRAY_REGION);
                let trace = kernel.trace(&bases, stride, ELEMENTS, LINE_WORDS);
                assert_identical(
                    *cfg,
                    &requests_of(&trace),
                    &format!("{label}/{kernel}/s{stride}"),
                );
            }
        }
        let mixed: Vec<HostRequest> = (0..8u64)
            .map(|i| {
                let base = i * 512 * 16 + i;
                if i % 2 == 0 {
                    read(base, 3, 32)
                } else {
                    write(base, 3, 32)
                }
            })
            .collect();
        assert_identical(*cfg, &mixed, &format!("{label}/rw mix stride 3"));
    }
}

#[test]
fn ddr3_fig7_sweep_rarely_wakes_idle() {
    // Controllers wake only where they can act: on the fig-7 sweep the
    // throughput probe times, at most 15% of the wake-ups may tick
    // without doing work. (A forced re-tick after every work tick
    // measured 36% here.)
    let mut events = pva_sim::EventStats::default();
    for kernel in [Kernel::Copy, Kernel::Saxpy, Kernel::Scale] {
        for stride in STRIDES {
            let bases = Alignment::BankStagger.bases(kernel.array_count(), ARRAY_REGION);
            let trace = kernel.trace(&bases, stride, kernels::ELEMENTS, LINE_WORDS);
            let mut unit = PvaUnit::new(preset_cfg(DevicePreset::Ddr3_1600)).expect("valid config");
            unit.run(requests_of(&trace)).expect("run succeeds");
            events.absorb(unit.event_stats());
        }
    }
    let idle = events.idle_ticks as f64 / events.events_popped as f64;
    assert!(
        idle <= 0.15,
        "idle ticks are {:.1}% of {} wake-ups",
        idle * 100.0,
        events.events_popped
    );
}

/// Runs `requests` with the generation-aware policy toggled and returns
/// both results for identity comparison.
fn run_policy_pair(cfg: PvaConfig, requests: &[HostRequest]) -> (RunResult, RunResult) {
    let mut on = cfg;
    on.options.generation_aware = true;
    let mut off = cfg;
    off.options.generation_aware = false;
    (
        run_with(on, requests).expect("policy-on run succeeds"),
        run_with(off, requests).expect("policy-off run succeeds"),
    )
}

#[test]
fn generation_policy_is_inert_on_sdr_parts() {
    // On 1-group, burst-length-1 parts every generation-aware decision
    // degenerates to the arrival-order policy: no group to prefer, no
    // tFAW to pace, nothing to coalesce, and the polarity window never
    // extends (the extension is gated on declared channel structure).
    // The committed goldens pin this for the bench kernels; this test
    // pins it for the simulator directly, fault paths included.
    let kernel_reqs = {
        let bases = Alignment::BankStagger.bases(2, ARRAY_REGION);
        requests_of(&Kernel::Copy.trace(&bases, 1, 256, LINE_WORDS))
    };
    let mut faulty = PvaConfig::default();
    faulty.sdram.fault.transient_ppm = 50_000;
    faulty.sdram.fault.seed = 23;
    let cases: Vec<(PvaConfig, Vec<HostRequest>, &str)> = vec![
        (PvaConfig::default(), kernel_reqs, "sdr copy s1"),
        (
            PvaConfig::default(),
            (0..8u64)
                .map(|i| {
                    let base = i * 512 * 16;
                    if i % 2 == 0 {
                        read(base, 16, 32)
                    } else {
                        write(base, 16, 32)
                    }
                })
                .collect(),
            "sdr rw mix",
        ),
        (
            faulty,
            vec![read(0, 1, 32), read(1 << 16, 19, 32)],
            "sdr faults",
        ),
    ];
    for (cfg, reqs, label) in cases {
        assert!(
            !cfg.sdram.declares_channel_structure(),
            "{label}: the identity claim only holds for SDR-era parts"
        );
        let (on, off) = run_policy_pair(cfg, &reqs);
        assert_eq!(on.cycles, off.cycles, "{label}: cycles");
        assert_eq!(on.completions, off.completions, "{label}: completions");
        assert_eq!(on.sdram, off.sdram, "{label}: device stats");
    }
}

#[test]
fn event_accounting_covers_every_cycle() {
    // The fast path's ledger must balance: every simulated cycle is
    // either executed or part of a recorded jump, and the jump
    // histogram's population matches the jump count.
    let mut unit = PvaUnit::new(PvaConfig::default()).expect("valid config");
    let reqs: Vec<HostRequest> = (0..6u64).map(|i| read(i * 512 * 16, 16, 32)).collect();
    let r = unit.run(reqs).expect("run succeeds");
    let ev = unit.event_stats();
    assert_eq!(
        ev.executed_cycles + ev.skipped_cycles,
        r.cycles,
        "executed + skipped covers the run"
    );
    assert_eq!(
        ev.jump_hist.iter().sum::<u64>(),
        ev.jumps,
        "histogram population equals the jump count"
    );
    assert!(ev.skipped_cycles > 0, "sparse traffic must skip cycles");
    assert!(ev.events_popped > 0, "wake-ups drive every executed tick");
    assert!(
        ev.idle_ticks < ev.events_popped,
        "idle ticks are a strict subset of the popped wake-ups"
    );
}
