//! `pva-bench` — the unified experiment CLI.
//!
//! ```text
//! pva-bench list
//! pva-bench <scenario> [--jobs N] [--json DIR] [--out DIR] [--verify DIR]
//!                      [EXEC FLAGS]
//! pva-bench all [--smoke] [--jobs N] [--json DIR] [--out DIR] [--verify DIR]
//!               [--min-speedup [PRESET=]X]... [EXEC FLAGS]
//! pva-bench validate FILE...
//! pva-bench diff A.json B.json
//!
//! EXEC FLAGS: [--journal PATH] [--resume] [--cell-timeout SECS]
//!             [--retries N] [--strict]
//! ```
//!
//! A single scenario prints exactly what its legacy binary printed
//! (goldens live in `results/`). `all` fans every cell of every
//! selected scenario across a work-stealing pool, writes per-scenario
//! text (`--out`) and `BENCH_<name>.json` records (`--json`), and can
//! diff the text against committed goldens (`--verify`). `--min-speedup`
//! gates on the `throughput` scenario's fast-path speedups: `X` is a
//! floor for every preset cell, `PRESET=X` (repeatable) a floor for one
//! cell that overrides the bare floor.
//!
//! Execution is resilient: `--journal` checkpoints every completed cell
//! to a write-ahead JSONL file so a killed run continues with
//! `--resume`; `--cell-timeout` bounds each cell's wall clock (0
//! disables); failing cells retry up to `--retries` times and are then
//! quarantined into the record's `failures` section — or abort the run
//! under `--strict`. `validate` checks `BENCH_*.json` records *and*
//! journal files; `diff` compares two records canonically (ignoring
//! wall-clock fields).
//!
//! Exit codes: 0 ok · 1 runtime error · 2 usage · 3 verify/diff
//! mismatch · 4 schema-invalid input · 5 cell failures present.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use pva_bench::engine::{
    run_scenarios_checked, EngineError, EngineRun, ExecConfig, RunRecord, Scenario, ScenarioReport,
};
use pva_bench::journal;
use pva_bench::resilient::ExecPolicy;
use pva_bench::scenarios::{
    find, scenarios, techsweep_metrics, throughput_metrics, throughput_speedups,
};

/// Everything went fine.
const EXIT_OK: u8 = 0;
/// Runtime/environment error (I/O, unreadable journal, strict-less
/// engine failure).
const EXIT_ERROR: u8 = 1;
/// Bad command line.
const EXIT_USAGE: u8 = 2;
/// `--verify` golden mismatch, `--min-speedup` gate failure, or `diff`
/// records differ.
const EXIT_VERIFY: u8 = 3;
/// `validate`/`diff` input failed to parse or validate.
const EXIT_SCHEMA: u8 = 4;
/// One or more cells were quarantined (also used for `--strict`
/// aborts).
const EXIT_CELL_FAILURES: u8 = 5;

/// What went wrong during a run; folded into one documented exit code.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct RunStatus {
    /// I/O or engine-environment error.
    error: bool,
    /// Quarantined cells present (or a strict abort).
    cell_failures: bool,
    /// Golden text / throughput-gate mismatch.
    verify_mismatch: bool,
    /// A record or journal failed schema validation.
    schema_invalid: bool,
}

/// The documented exit-code mapping, most severe first: cell failures
/// (5) over schema problems (4) over verify mismatches (3) over plain
/// errors (1).
fn exit_code(s: RunStatus) -> u8 {
    if s.cell_failures {
        EXIT_CELL_FAILURES
    } else if s.schema_invalid {
        EXIT_SCHEMA
    } else if s.verify_mismatch {
        EXIT_VERIFY
    } else if s.error {
        EXIT_ERROR
    } else {
        EXIT_OK
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: pva-bench list\n\
         \x20      pva-bench <scenario> [--jobs N] [--json DIR] [--out DIR]\n\
         \x20                           [--verify DIR] [EXEC FLAGS]\n\
         \x20      pva-bench all [--smoke] [--jobs N] [--json DIR] [--out DIR]\n\
         \x20                    [--verify DIR] [--min-speedup [PRESET=]X]... [EXEC FLAGS]\n\
         \x20      pva-bench validate FILE...\n\
         \x20      pva-bench diff A.json B.json\n\
         EXEC FLAGS: [--journal PATH] [--resume] [--cell-timeout SECS]\n\
         \x20           [--retries N] [--strict]\n\
         exit codes: 0 ok, 1 error, 2 usage, 3 verify/diff mismatch,\n\
         \x20           4 schema-invalid, 5 cell failures\n\
         run `pva-bench list` for scenario names"
    );
    std::process::exit(EXIT_USAGE as i32);
}

struct Options {
    jobs: usize,
    smoke: bool,
    json_dir: Option<String>,
    out_dir: Option<String>,
    verify_dir: Option<String>,
    /// `--min-speedup` floors: `(None, x)` for every throughput cell,
    /// `(Some(preset), x)` for one.
    min_speedup: Vec<(Option<String>, f64)>,
    journal: Option<String>,
    resume: bool,
    /// Per-cell wall-clock budget in seconds; 0 disables.
    cell_timeout: f64,
    retries: u32,
    strict: bool,
}

fn parse_options(args: &[String]) -> Options {
    let mut o = Options {
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        smoke: false,
        json_dir: None,
        out_dir: None,
        verify_dir: None,
        min_speedup: Vec::new(),
        journal: None,
        resume: false,
        cell_timeout: 120.0,
        retries: 2,
        strict: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("{flag} takes a value");
                    std::process::exit(EXIT_USAGE as i32);
                })
                .clone()
        };
        match a.as_str() {
            "--smoke" => o.smoke = true,
            "--jobs" => {
                o.jobs = value("--jobs").parse().unwrap_or_else(|_| {
                    eprintln!("--jobs takes a positive integer");
                    std::process::exit(EXIT_USAGE as i32);
                });
                if o.jobs == 0 {
                    eprintln!("--jobs takes a positive integer");
                    std::process::exit(EXIT_USAGE as i32);
                }
            }
            "--json" => o.json_dir = Some(value("--json")),
            "--out" => o.out_dir = Some(value("--out")),
            "--verify" => o.verify_dir = Some(value("--verify")),
            "--min-speedup" => {
                let v = value("--min-speedup");
                let (preset, x) = match v.split_once('=') {
                    Some((p, x)) => (Some(p.to_string()), x),
                    None => (None, v.as_str()),
                };
                let x = x.parse().unwrap_or_else(|_| {
                    eprintln!("--min-speedup takes a number or PRESET=number");
                    std::process::exit(EXIT_USAGE as i32);
                });
                o.min_speedup.push((preset, x));
            }
            "--journal" => o.journal = Some(value("--journal")),
            "--resume" => o.resume = true,
            "--cell-timeout" => {
                o.cell_timeout = value("--cell-timeout").parse().unwrap_or_else(|_| {
                    eprintln!("--cell-timeout takes seconds (0 disables)");
                    std::process::exit(EXIT_USAGE as i32);
                });
                if !o.cell_timeout.is_finite() || o.cell_timeout < 0.0 {
                    eprintln!("--cell-timeout takes seconds (0 disables)");
                    std::process::exit(EXIT_USAGE as i32);
                }
            }
            "--retries" => {
                o.retries = value("--retries").parse().unwrap_or_else(|_| {
                    eprintln!("--retries takes a non-negative integer");
                    std::process::exit(EXIT_USAGE as i32);
                })
            }
            "--strict" => o.strict = true,
            _ => usage(),
        }
    }
    if o.resume && o.journal.is_none() {
        eprintln!("--resume requires --journal PATH");
        std::process::exit(EXIT_USAGE as i32);
    }
    o
}

fn exec_config(o: &Options) -> ExecConfig {
    ExecConfig {
        jobs: o.jobs,
        policy: ExecPolicy {
            cell_timeout: (o.cell_timeout > 0.0).then(|| Duration::from_secs_f64(o.cell_timeout)),
            retries: o.retries,
            strict: o.strict,
            ..ExecPolicy::default()
        },
        journal: o.journal.as_ref().map(PathBuf::from),
        resume: o.resume,
    }
}

/// Attaches scenario-specific derived metrics to the structured
/// records (the throughput scenario's fast-path speedup; the techsweep
/// scenario's generation-aware scheduler counters). Scenarios with
/// quarantined cells keep empty metrics.
fn attach_metrics(reports: &mut [ScenarioReport]) {
    if let Some(r) = reports.iter_mut().find(|r| r.name == "throughput") {
        if r.record.failures.is_empty() {
            r.record.metrics = throughput_metrics(&r.data);
        }
    }
    if let Some(r) = reports.iter_mut().find(|r| r.name == "techsweep") {
        if r.record.failures.is_empty() {
            r.record.metrics = techsweep_metrics(&r.data);
        }
    }
}

fn write_outputs(reports: &[ScenarioReport], opts: &Options) -> Result<(), String> {
    if let Some(dir) = &opts.json_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        for r in reports {
            let path = format!("{dir}/BENCH_{}.json", r.name);
            std::fs::write(&path, r.record.to_json())
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
    }
    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        for r in reports {
            let path = format!("{dir}/{}.txt", r.name);
            std::fs::write(&path, &r.text).map_err(|e| format!("writing {path}: {e}"))?;
        }
    }
    Ok(())
}

/// Diffs rendered text against `<dir>/<name>.txt` goldens; returns the
/// names that mismatched.
fn verify(reports: &[ScenarioReport], dir: &str) -> Vec<String> {
    let mut bad = Vec::new();
    for r in reports.iter().filter(|r| r.golden) {
        let path = format!("{dir}/{}.txt", r.name);
        match std::fs::read_to_string(&path) {
            Ok(golden) if golden == r.text => {}
            Ok(_) => bad.push(format!("{} (differs from {path})", r.name)),
            Err(e) => bad.push(format!("{} (cannot read {path}: {e})", r.name)),
        }
    }
    bad
}

fn gate_speedup(
    reports: &[ScenarioReport],
    floors: &[(Option<String>, f64)],
) -> Result<Vec<String>, String> {
    let t = reports
        .iter()
        .find(|r| r.name == "throughput")
        .ok_or("--min-speedup given but the throughput scenario did not run")?;
    if !t.record.failures.is_empty() {
        return Err("--min-speedup given but a throughput probe cell was quarantined".into());
    }
    check_floors(&throughput_speedups(&t.data), floors)
}

/// Checks each preset's speedup against its floor: the last
/// `PRESET=X` naming it, else the last bare `X`, else none. Returns one
/// line per gated preset, or every failing line; a floor naming a
/// preset with no cell is an error.
fn check_floors(
    speedups: &[(&str, f64)],
    floors: &[(Option<String>, f64)],
) -> Result<Vec<String>, String> {
    for p in floors.iter().filter_map(|(p, _)| p.as_deref()) {
        if speedups.iter().all(|s| s.0 != p) {
            return Err(format!(
                "--min-speedup names '{p}', which has no throughput cell"
            ));
        }
    }
    let floor_of = |preset: &str| {
        let named = floors
            .iter()
            .rev()
            .find(|(p, _)| p.as_deref() == Some(preset));
        named
            .or_else(|| floors.iter().rev().find(|(p, _)| p.is_none()))
            .map(|f| f.1)
    };
    let mut passed = Vec::new();
    let mut failed = Vec::new();
    for &(preset, speedup) in speedups {
        let Some(floor) = floor_of(preset) else {
            continue;
        };
        let line = format!("{preset} fast-path speedup {speedup:.2}x");
        if speedup < floor {
            failed.push(format!(
                "{line} is below the --min-speedup floor {floor:.2}x"
            ));
        } else {
            passed.push(format!("{line} >= {floor:.2}x"));
        }
    }
    if failed.is_empty() {
        Ok(passed)
    } else {
        Err(failed.join("; "))
    }
}

/// Prints quarantined-cell details to stderr; returns how many there
/// were.
fn report_failures(reports: &[ScenarioReport]) -> usize {
    let mut n = 0;
    for r in reports {
        for f in &r.record.failures {
            n += 1;
            eprintln!(
                "cell FAILED: {}: [{}] {} {} after {} attempt(s): {}",
                r.name, f.kind, f.system, f.label, f.attempts, f.message
            );
        }
    }
    n
}

fn run_checked(selected: &[&Scenario], opts: &Options) -> Result<EngineRun, (String, RunStatus)> {
    run_scenarios_checked(selected, &exec_config(opts)).map_err(|e| {
        let status = match &e {
            EngineError::StrictFailure(_) => RunStatus {
                cell_failures: true,
                ..RunStatus::default()
            },
            EngineError::Environment(_) => RunStatus {
                error: true,
                ..RunStatus::default()
            },
        };
        (e.to_string(), status)
    })
}

fn cmd_all(opts: &Options) -> ExitCode {
    let all = scenarios();
    let selected: Vec<&Scenario> = all.iter().filter(|s| !opts.smoke || s.smoke).collect();
    eprintln!(
        "running {} scenario(s) on {} worker(s){}",
        selected.len(),
        opts.jobs,
        if opts.smoke { " [smoke subset]" } else { "" }
    );
    let mut status = RunStatus::default();
    let run = match run_checked(&selected, opts) {
        Ok(run) => run,
        Err((msg, st)) => {
            eprintln!("error: {msg}");
            return ExitCode::from(exit_code(st));
        }
    };
    if run.resumed_cells > 0 {
        eprintln!("resumed {} cell(s) from the journal", run.resumed_cells);
    }
    let mut reports = run.reports;
    attach_metrics(&mut reports);
    if let Err(e) = write_outputs(&reports, opts) {
        eprintln!("error: {e}");
        status.error = true;
    }

    let mut t = pva_bench::report::Table::new(vec![
        "scenario",
        "cells",
        "sim cycles",
        "bytes moved",
        "wall ms",
        "Mcycles/s",
    ]);
    for r in &reports {
        t.row(vec![
            r.name.to_string(),
            r.record.cells.len().to_string(),
            r.record.total_cycles.to_string(),
            r.record.total_bytes.to_string(),
            format!("{:.1}", r.record.wall_ns as f64 / 1e6),
            format!("{:.2}", r.record.sim_cycles_per_sec / 1e6),
        ]);
    }
    println!("{t}");

    if report_failures(&reports) > 0 {
        status.cell_failures = true;
        eprintln!(
            "{} cell(s) quarantined; partial results written (exit code {})",
            run.failed_cells, EXIT_CELL_FAILURES
        );
    }
    if let Some(dir) = &opts.verify_dir {
        let bad = verify(&reports, dir);
        if bad.is_empty() {
            let checked = reports.iter().filter(|r| r.golden).count();
            println!("verify: {checked} scenario(s) byte-identical to {dir}/");
        } else {
            status.verify_mismatch = true;
            for b in &bad {
                eprintln!("verify FAILED: {b}");
            }
        }
    }
    if !opts.min_speedup.is_empty() {
        match gate_speedup(&reports, &opts.min_speedup) {
            Ok(lines) => {
                for line in lines {
                    println!("throughput gate: {line}");
                }
            }
            Err(e) => {
                status.verify_mismatch = true;
                eprintln!("error: {e}");
            }
        }
    }
    ExitCode::from(exit_code(status))
}

fn cmd_one(name: &str, opts: &Options) -> ExitCode {
    let Some(s) = find(name) else {
        eprintln!("unknown scenario '{name}'; run `pva-bench list`");
        return ExitCode::from(EXIT_USAGE);
    };
    let mut status = RunStatus::default();
    let run = match run_checked(&[&s], opts) {
        Ok(run) => run,
        Err((msg, st)) => {
            eprintln!("error: {msg}");
            return ExitCode::from(exit_code(st));
        }
    };
    if run.resumed_cells > 0 {
        eprintln!("resumed {} cell(s) from the journal", run.resumed_cells);
    }
    let mut reports = run.reports;
    attach_metrics(&mut reports);
    if let Err(e) = write_outputs(&reports, opts) {
        eprintln!("error: {e}");
        status.error = true;
    }
    print!("{}", reports[0].text);
    let _ = std::io::stdout().flush();
    if report_failures(&reports) > 0 {
        status.cell_failures = true;
    }
    if let Some(dir) = &opts.verify_dir {
        let bad = verify(&reports, dir);
        if bad.is_empty() {
            if reports.iter().any(|r| r.golden) {
                println!("verify: byte-identical to {dir}/");
            }
        } else {
            status.verify_mismatch = true;
            for b in &bad {
                eprintln!("verify FAILED: {b}");
            }
        }
    }
    ExitCode::from(exit_code(status))
}

fn cmd_list() -> ExitCode {
    let mut t = pva_bench::report::Table::new(vec!["name", "alias", "smoke", "description"]);
    for s in scenarios() {
        t.row(vec![
            s.name.to_string(),
            s.alias.to_string(),
            if s.smoke { "yes" } else { "" }.to_string(),
            s.title.to_string(),
        ]);
    }
    println!("{t}");
    ExitCode::SUCCESS
}

/// Validates one journal file, printing a verdict line.
fn validate_journal(f: &str) -> Result<String, String> {
    match journal::load(std::path::Path::new(f))? {
        None => Ok("empty journal (nothing to resume)".into()),
        Some(r) => Ok(format!(
            "journal for [{}]: {} cell(s), {} failure(s){}",
            r.selection.join(", "),
            r.cells.len(),
            r.failures.len(),
            if r.torn_tail {
                ", torn trailing line (tolerated on resume)"
            } else {
                ""
            }
        )),
    }
}

fn cmd_validate(files: &[String]) -> ExitCode {
    if files.is_empty() {
        usage();
    }
    let mut status = RunStatus::default();
    for f in files {
        let verdict = std::fs::read_to_string(f)
            .map_err(|e| e.to_string())
            .and_then(|text| {
                if text.trim_start().starts_with("{\"journal\"") {
                    validate_journal(f)
                } else {
                    RunRecord::from_json(&text).map(|rec| {
                        format!(
                            "ok ({}, {} cells, {} cycles{}{})",
                            rec.scenario,
                            rec.cells.len(),
                            rec.total_cycles,
                            if rec.resumed > 0 {
                                format!(", {} resumed", rec.resumed)
                            } else {
                                String::new()
                            },
                            if rec.failures.is_empty() {
                                String::new()
                            } else {
                                format!(", {} FAILED cells", rec.failures.len())
                            }
                        )
                    })
                }
            });
        match verdict {
            Ok(line) => println!("{f}: {line}"),
            Err(e) => {
                status.schema_invalid = true;
                eprintln!("{f}: INVALID: {e}");
            }
        }
    }
    ExitCode::from(exit_code(status))
}

/// Compares two run records canonically (wall-clock-derived fields —
/// per-cell and total wall times, throughput, metrics, resumed counts —
/// zeroed on both sides first).
fn cmd_diff(a: &str, b: &str) -> ExitCode {
    let load = |f: &str| -> Result<RunRecord, String> {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        RunRecord::from_json(&text).map_err(|e| format!("{f}: {e}"))
    };
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (a_res, b_res) => {
            for r in [a_res, b_res] {
                if let Err(e) = r {
                    eprintln!("INVALID: {e}");
                }
            }
            return ExitCode::from(EXIT_SCHEMA);
        }
    };
    let (ca, cb) = (ra.canonical(), rb.canonical());
    if ca == cb {
        println!(
            "identical (canonical): {} — {} cells, {} cycles",
            ca.scenario,
            ca.cells.len(),
            ca.total_cycles
        );
        return ExitCode::SUCCESS;
    }
    eprintln!("records differ (canonical comparison):");
    if ca.scenario != cb.scenario {
        eprintln!("  scenario: {} vs {}", ca.scenario, cb.scenario);
    }
    if ca.total_cycles != cb.total_cycles {
        eprintln!("  total_cycles: {} vs {}", ca.total_cycles, cb.total_cycles);
    }
    if ca.cells.len() != cb.cells.len() {
        eprintln!("  cells: {} vs {}", ca.cells.len(), cb.cells.len());
    } else {
        for (i, (x, y)) in ca.cells.iter().zip(&cb.cells).enumerate() {
            if x != y {
                eprintln!(
                    "  cell {i} ({}/{}): cycles {} vs {}, bytes {} vs {}",
                    x.system, x.label, x.cycles, y.cycles, x.bytes, y.bytes
                );
            }
        }
    }
    if ca.failures != cb.failures {
        eprintln!("  failures: {} vs {}", ca.failures.len(), cb.failures.len());
    }
    ExitCode::from(EXIT_VERIFY)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => usage(),
        Some("list") => cmd_list(),
        Some("validate") => cmd_validate(&args[1..]),
        Some("diff") => match &args[1..] {
            [a, b] => cmd_diff(a, b),
            _ => usage(),
        },
        Some("all") => cmd_all(&parse_options(&args[1..])),
        Some(name) if name.starts_with('-') => usage(),
        Some(name) => cmd_one(name, &parse_options(&args[1..])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(
        error: bool,
        cell_failures: bool,
        verify_mismatch: bool,
        schema_invalid: bool,
    ) -> RunStatus {
        RunStatus {
            error,
            cell_failures,
            verify_mismatch,
            schema_invalid,
        }
    }

    #[test]
    fn exit_codes_are_distinct_and_documented() {
        let codes = [
            EXIT_OK,
            EXIT_ERROR,
            EXIT_USAGE,
            EXIT_VERIFY,
            EXIT_SCHEMA,
            EXIT_CELL_FAILURES,
        ];
        let mut uniq = codes.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), codes.len(), "codes must be distinct");
        assert_eq!(codes, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn exit_code_mapping_and_precedence() {
        assert_eq!(exit_code(status(false, false, false, false)), EXIT_OK);
        assert_eq!(exit_code(status(true, false, false, false)), EXIT_ERROR);
        assert_eq!(exit_code(status(false, false, true, false)), EXIT_VERIFY);
        assert_eq!(exit_code(status(false, false, false, true)), EXIT_SCHEMA);
        assert_eq!(
            exit_code(status(false, true, false, false)),
            EXIT_CELL_FAILURES
        );
        // Precedence: cell failures > schema > verify > error.
        assert_eq!(
            exit_code(status(true, true, true, true)),
            EXIT_CELL_FAILURES
        );
        assert_eq!(exit_code(status(true, false, true, true)), EXIT_SCHEMA);
        assert_eq!(exit_code(status(true, false, true, false)), EXIT_VERIFY);
    }

    #[test]
    fn speedup_floors_are_per_preset_with_a_bare_default() {
        let speedups = [("sdr100", 2.4), ("ddr3-1600", 2.6), ("hbm2", 2.3)];
        let floor = |p: Option<&str>, x| (p.map(String::from), x);
        // A bare floor gates every cell.
        assert_eq!(
            check_floors(&speedups, &[floor(None, 2.0)]).unwrap().len(),
            3
        );
        let err = check_floors(&speedups, &[floor(None, 2.35)]).unwrap_err();
        assert!(err.contains("hbm2") && !err.contains("sdr100"), "{err}");
        // A named floor overrides the bare one for its cell only.
        let ok = check_floors(&speedups, &[floor(None, 2.35), floor(Some("hbm2"), 2.2)]).unwrap();
        assert_eq!(ok.len(), 3);
        // Named floors alone gate only the cells they name.
        let ok = check_floors(&speedups, &[floor(Some("ddr3-1600"), 2.5)]).unwrap();
        assert_eq!(ok, vec!["ddr3-1600 fast-path speedup 2.60x >= 2.50x"]);
        // A floor for a preset with no cell is an error, not a no-op.
        assert!(check_floors(&speedups, &[floor(Some("ddr4"), 1.0)]).is_err());
    }
}
