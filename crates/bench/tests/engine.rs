//! Engine integration tests: golden rendering for `report::Table`,
//! JSON record round-trips, determinism across worker counts, and
//! byte-identity of scenario output against the committed goldens.

use pva_bench::engine::{run_scenarios, RunRecord, Scenario};
use pva_bench::report::Table;
use pva_bench::scenarios::find;

#[test]
fn table_rendering_is_stable() {
    let mut t = Table::new(vec!["kernel", "stride", "cycles"]);
    t.row(vec!["copy", "1", "1088"]);
    t.row(vec!["vaxpy", "19", "2176"]);
    let expected = "\
kernel  stride  cycles
----------------------
  copy       1    1088
 vaxpy      19    2176
";
    assert_eq!(t.render(), expected);
}

fn must_find(name: &str) -> Scenario {
    find(name).unwrap_or_else(|| panic!("scenario '{name}' not registered"))
}

/// Zeroes the wall-clock fields, which legitimately vary run to run.
fn normalized(mut r: RunRecord) -> RunRecord {
    r.wall_ns = 0;
    r.sim_cycles_per_sec = 0.0;
    for c in &mut r.cells {
        c.wall_ns = 0;
    }
    r
}

#[test]
fn jobs_1_and_jobs_8_produce_identical_records() {
    // Multi-cell scenarios whose text carries no wall-clock numbers.
    let names = ["related_cvms", "design_space", "ext_indirect"];
    let scenarios: Vec<Scenario> = names.iter().map(|n| must_find(n)).collect();
    let refs: Vec<&Scenario> = scenarios.iter().collect();
    let serial = run_scenarios(&refs, 1);
    let parallel = run_scenarios(&refs, 8);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(
            a.text, b.text,
            "{}: text differs across worker counts",
            a.name
        );
        assert_eq!(
            normalized(a.record.clone()),
            normalized(b.record.clone()),
            "{}: record differs across worker counts",
            a.name
        );
    }
}

#[test]
fn engine_records_round_trip_through_json() {
    let s = must_find("table2_kernels");
    let reports = run_scenarios(&[&s], 2);
    let rec = &reports[0].record;
    let parsed = RunRecord::from_json(&rec.to_json()).expect("emitted record parses");
    assert_eq!(&parsed, rec);
    assert_eq!(parsed.schema, "pva-bench-record-v2");
    assert_eq!(parsed.scenario, "table2_kernels");
}

#[test]
fn cheap_scenarios_match_committed_goldens() {
    let results = format!("{}/../../results", env!("CARGO_MANIFEST_DIR"));
    for name in [
        "table1_complexity",
        "table2_kernels",
        "ext_indirect",
        "related_cvms",
        "design_space",
        "scaling_banks",
        // The generation sweep covers every `DevicePreset::ALL` entry
        // (edo first) and doubles as the SDR-equivalence proof: its
        // sdr100 block runs the paper's preset through the same fig-7
        // kernels, so a preset drifting from the legacy default config
        // shows up as a golden mismatch here.
        "techsweep",
    ] {
        let s = must_find(name);
        let reports = run_scenarios(&[&s], 4);
        let golden = std::fs::read_to_string(format!("{results}/{name}.txt"))
            .unwrap_or_else(|e| panic!("golden for {name}: {e}"));
        assert_eq!(reports[0].text, golden, "{name} output drifted from golden");
    }
}

#[test]
fn record_totals_are_cell_sums() {
    let s = must_find("related_cvms");
    let reports = run_scenarios(&[&s], 2);
    let r = &reports[0].record;
    assert_eq!(
        r.total_cycles,
        r.cells.iter().map(|c| c.cycles).sum::<u64>()
    );
    assert_eq!(r.total_bytes, r.cells.iter().map(|c| c.bytes).sum::<u64>());
    assert!(r
        .cells
        .iter()
        .all(|c| !c.system.is_empty() && !c.label.is_empty()));
}
