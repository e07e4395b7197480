//! Passes through the `pva-bench` engine: the full registry with golden
//! verification (the `campaign` workload), and a simulation workload's
//! own trace set fanned over the engine's pool.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use pva_bench::engine::{
    run_scenarios_checked, CellData, CellSpec, ExecConfig, Scenario, ScenarioReport,
};
use pva_bench::resilient::ExecPolicy;

use crate::inputs::Job;
use crate::sim::{self, Outcome};
use crate::spans::{self, span};

/// Golden texts of the registry's golden scenarios, by scenario name.
pub type Goldens = BTreeMap<&'static str, String>;

/// One engine pass.
pub struct Pass {
    pub wall: Duration,
    pub reports: Vec<ScenarioReport>,
}

impl Pass {
    /// Per-cell host nanoseconds, in grid order.
    pub fn cell_walls(&self) -> Vec<u64> {
        self.reports
            .iter()
            .flat_map(|r| r.record.cells.iter().map(|c| c.wall_ns))
            .collect()
    }

    pub fn cells(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.record.cells.len() as u64)
            .sum()
    }

    /// Cells quarantined by the engine.
    pub fn failures(&self) -> Vec<String> {
        self.reports
            .iter()
            .flat_map(|r| {
                r.record
                    .failures
                    .iter()
                    .map(move |f| format!("{}: {} {}: {}", r.name, f.system, f.label, f.message))
            })
            .collect()
    }
}

/// Engine policy: no retries, so no failure is hidden by a rerun.
fn exec(jobs: usize) -> ExecConfig {
    ExecConfig {
        policy: ExecPolicy {
            retries: 0,
            ..ExecPolicy::default()
        },
        ..ExecConfig::with_jobs(jobs)
    }
}

fn run(selection: &[&Scenario], jobs: usize, trace: u64) -> Result<Pass, String> {
    let t0 = Instant::now();
    let run = span("pva-bench.run_scenarios", 0, trace, |id| {
        CELL_PARENT.store(id, Ordering::Relaxed);
        run_scenarios_checked(selection, &exec(jobs))
    })
    .map_err(|e| format!("engine: {e}"))?;
    Ok(Pass {
        wall: t0.elapsed(),
        reports: run.reports,
    })
}

// ---------------------------------------------------------------------
// The registry campaign.

/// Reads the committed golden of every golden scenario in `selection`
/// from `dir`.
pub fn load_goldens(selection: &[&Scenario], dir: &str) -> Result<Goldens, String> {
    let mut out = Goldens::new();
    for s in selection.iter().filter(|s| s.golden) {
        let path = format!("{dir}/{}.txt", s.name);
        let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        out.insert(s.name, text);
    }
    Ok(out)
}

/// One `pva-bench all` pass on `jobs` workers.
pub fn campaign_pass(selection: &[&Scenario], jobs: usize) -> Result<Pass, String> {
    run(selection, jobs, spans::new_trace())
}

/// Golden scenarios whose text differs from the committed golden.
pub fn verify(pass: &Pass, goldens: &Goldens) -> Vec<String> {
    pass.reports
        .iter()
        .filter(|r| r.golden)
        .filter(|r| goldens.get(r.name) != Some(&r.text))
        .map(|r| format!("{}: differs from the committed golden", r.name))
        .collect()
}

/// Simulated and closed-form cycles of the techsweep cells — the one
/// registry scenario whose cell data keeps the two apart (PVA cycles,
/// then the cache-line and serial-gather closed forms).
pub fn techsweep_cycles(pass: &Pass) -> (u64, u64) {
    pass.reports
        .iter()
        .filter(|r| r.name == "techsweep")
        .flat_map(|r| r.data.iter())
        .filter(|c| c.aux.len() >= 3)
        .fold((0, 0), |(sim, cf), c| {
            (sim + c.aux[0], cf + c.aux[1] + c.aux[2])
        })
}

// ---------------------------------------------------------------------
// A simulation workload's traces through the engine.

static JOBS: OnceLock<Vec<Job>> = OnceLock::new();
/// The slice of the installed jobs the next [`workload_pass`] runs.
static CHUNK: Mutex<Range<usize>> = Mutex::new(0..0);
/// Span id of the running `run_scenarios` call (parent of cell spans).
static CELL_PARENT: AtomicU64 = AtomicU64::new(0);

/// Installs the workload's jobs for [`workload_pass`] and returns
/// them; the first call wins.
pub fn install_jobs(jobs: Vec<Job>) -> &'static [Job] {
    JOBS.get_or_init(|| jobs)
}

fn jobs() -> &'static [Job] {
    JOBS.get().map_or(&[], Vec::as_slice)
}

fn workload_cells() -> Vec<CellSpec> {
    let chunk = CHUNK
        .lock()
        .expect("chunk lock poisoned by a panic")
        .clone();
    chunk
        .map(|i| {
            let job = &jobs()[i];
            CellSpec::new(job.preset.name(), job.label.clone(), move || {
                let job = &jobs()[i];
                let parent = CELL_PARENT.load(Ordering::Relaxed);
                let trace = spans::new_trace();
                let o = span("bench.cell", parent, trace, |id| {
                    sim::simulate(job, job.config, id, trace, false)
                });
                CellData::with_aux(
                    o.cycles,
                    0,
                    vec![
                        o.read_elems,
                        o.bc.elements_read,
                        o.bc.elements_written,
                        o.completions as u64,
                        u64::from(o.drained),
                        u64::from(o.error.is_some()),
                    ],
                )
            })
        })
        .collect()
}

const WORKLOAD: Scenario = Scenario {
    name: "perfbench-workload",
    alias: "",
    title: "The benchmark workload's traces, one cell per trace",
    smoke: false,
    golden: false,
    build: workload_cells,
    render: |_| String::new(),
};

/// One pass of the installed jobs in `chunk` on `workers` workers.
pub fn workload_pass(workers: usize, chunk: Range<usize>) -> Result<Pass, String> {
    *CHUNK.lock().expect("chunk lock poisoned by a panic") = chunk;
    run(&[&WORKLOAD], workers, spans::new_trace())
}

/// The cell outcomes of a workload pass, rebuilt for [`sim::check`].
pub fn workload_outcomes(pass: &Pass) -> Vec<Outcome> {
    pass.reports
        .iter()
        .flat_map(|r| r.data.iter())
        .map(|c| {
            let mut o = Outcome {
                cycles: c.cycles,
                ..Outcome::default()
            };
            if let [read, bc_read, bc_written, completions, drained, error] = c.aux[..] {
                o.read_elems = read;
                o.bc.elements_read = bc_read;
                o.bc.elements_written = bc_written;
                o.completions = completions as usize;
                o.drained = drained == 1;
                o.error = (error == 1).then(|| "simulation error in an engine cell".into());
            } else {
                o.error = Some("engine cell returned no data".into());
            }
            o
        })
        .collect()
}
