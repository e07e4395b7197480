//! Workspace integration tests: kernels -> memsys -> pva-sim -> sdram,
//! driven through the `pva` facade.

use pva::core::{split_vector, MmcTlb, Superpage, Vector};
use pva::kernels::{run_cell, run_point, Alignment, Kernel, SystemKind, STRIDES};
use pva::memsys::TraceOp;
use pva::sim::{HostRequest, PvaConfig, PvaUnit};

#[test]
fn facade_reexports_compose() {
    // The doc-comment quickstart, through the facade paths.
    let mut unit = PvaUnit::new(PvaConfig::default()).unwrap();
    let v = Vector::new(0x1000, 19, 32).unwrap();
    let result = unit.run(vec![HostRequest::Read { vector: v }]).unwrap();
    assert_eq!(result.read_data(0).len(), 32);
}

#[test]
fn every_system_runs_every_kernel() {
    // Smoke the full cross product at one (stride, alignment).
    for kernel in Kernel::ALL {
        for system in SystemKind::ALL {
            let c = run_point(kernel, 4, Alignment::BankStagger, system);
            assert!(c > 0, "{} on {}", kernel.name(), system.name());
        }
    }
}

#[test]
fn pva_wins_grow_with_stride_against_cacheline() {
    // The evaluation's central trend: the cache-line system's
    // disadvantage grows monotonically with stride (figures 7-10).
    let mut last_ratio = 0.0;
    for &stride in &STRIDES[..5] {
        // strides 1..16 (19 wraps back to fast)
        let pva = run_cell(Kernel::Saxpy, stride, SystemKind::PvaSdram).min as f64;
        let cls = run_cell(Kernel::Saxpy, stride, SystemKind::CachelineSerial).min as f64;
        let ratio = cls / pva;
        assert!(
            ratio >= last_ratio * 0.95,
            "ratio should grow with stride: {ratio} after {last_ratio}"
        );
        last_ratio = ratio;
    }
}

#[test]
fn prime_stride_restores_parallelism() {
    // Stride 19 performance snaps back to near-unit-stride (§6.3.1),
    // while stride 16 is the single-bank worst case.
    let s1 = run_cell(Kernel::Scale, 1, SystemKind::PvaSdram).min;
    let s16 = run_cell(Kernel::Scale, 16, SystemKind::PvaSdram).min;
    let s19 = run_cell(Kernel::Scale, 19, SystemKind::PvaSdram).min;
    assert!(s19 < s16, "prime stride beats power-of-two: {s19} vs {s16}");
    assert!((s19 as f64) < s1 as f64 * 1.6, "stride 19 near stride 1");
}

#[test]
fn unrolling_helps_slightly_on_pva() {
    // §6.3: copy2/scale2 "yielding only a slight advantage" on the PVA
    // SDRAM system. Allow equality but not large regressions.
    for (plain, unrolled) in [
        (Kernel::Copy, Kernel::Copy2),
        (Kernel::Scale, Kernel::Scale2),
    ] {
        let p = run_cell(plain, 4, SystemKind::PvaSdram).min as f64;
        let u = run_cell(unrolled, 4, SystemKind::PvaSdram).min as f64;
        assert!(
            u <= p * 1.05,
            "{}: unrolled {u} vs plain {p}",
            unrolled.name()
        );
    }
}

#[test]
fn split_vector_feeds_the_unit_correctly() {
    // Virtual vector across scattered physical frames: split through the
    // MMC TLB, run each physical sub-vector through the PVA unit, and
    // verify the concatenated data equals functional reads.
    let mut tlb = MmcTlb::new();
    let frames = [3u64, 0, 2, 1];
    for (i, f) in frames.iter().enumerate() {
        tlb.map(Superpage {
            vbase: i as u64 * 1024,
            pbase: 0x40_0000 + f * 1024,
            size_words: 1024,
        })
        .unwrap();
    }
    let virt = Vector::new(100, 37, 64).unwrap(); // crosses several pages
    let subs = split_vector(&virt, &tlb).unwrap();
    assert!(subs.len() > 1);

    let mut unit = PvaUnit::new(PvaConfig::default()).unwrap();
    let mut gathered = Vec::new();
    for s in &subs {
        for chunk in s.vector.chunks(32) {
            let r = unit.run(vec![HostRequest::Read { vector: chunk }]).unwrap();
            gathered.extend_from_slice(r.read_data(0));
        }
    }
    assert_eq!(gathered.len(), 64);
    for (i, &w) in gathered.iter().enumerate() {
        let vaddr = virt.element(i as u64);
        let paddr = tlb.lookup(vaddr).unwrap().paddr;
        assert_eq!(w, unit.peek(paddr), "element {i}");
    }
}

#[test]
fn trace_cycle_counts_are_positive_and_scale_with_work() {
    for mut sys in SystemKind::ALL.iter().map(|k| k.build()) {
        let small: Vec<TraceOp> = (0..2)
            .map(|i| TraceOp::read(Vector::new(i * 4096, 4, 32).unwrap()))
            .collect();
        let large: Vec<TraceOp> = (0..20)
            .map(|i| TraceOp::read(Vector::new(i * 4096, 4, 32).unwrap()))
            .collect();
        let cs = sys.run_trace(&small);
        sys.reset();
        let cl = sys.run_trace(&large);
        assert!(cl.cycles > cs.cycles, "{}", sys.name());
        assert!(
            cl.bytes_transferred > cs.bytes_transferred,
            "{}",
            sys.name()
        );
    }
}

#[test]
fn write_traffic_round_trips_through_every_pva_config() {
    // End-to-end scatter/gather with data checking under both PVA
    // back ends.
    for cfg in [PvaConfig::default(), PvaConfig::sram_backend()] {
        let mut unit = PvaUnit::new(cfg).unwrap();
        let v = Vector::new(0x9000, 7, 32).unwrap();
        let data: Vec<u64> = (0..32).map(|i| 0xF00D_0000 + i).collect();
        unit.run(vec![HostRequest::Write {
            vector: v,
            data: data.clone(),
        }])
        .unwrap();
        let r = unit.run(vec![HostRequest::Read { vector: v }]).unwrap();
        assert_eq!(r.read_data(0), &data[..]);
    }
}
