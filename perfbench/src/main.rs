//! The PVA benchmark: runs one named workload from a seed, checks every
//! simulation it times, and prints every metric by name with its unit.
//!
//! ```text
//! perfbench --workload <paper-sdr|modern-mixed|modern-gather|campaign>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` records spans
//! around every call into a layer and prints the per-layer metrics. The
//! last line of standard output is the JSON result; the lines before it
//! state the host and the sample counts. See `perfbench/README.md`.

mod campaign;
mod inputs;
mod sdram_driver;
mod sim;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use inputs::{Job, Workload};
use pva_core::{BankId, VectorSolver};
use pva_sim::{BcStats, EventStats, PvaConfig, PvaUnit, UnitStats};
use sdram::{DevicePreset, SdramStats};
use spans::span;
use stats::{median, percentile, Metric};

/// Set-up passes before measuring. One more follows every iteration of
/// the measuring loop, so the set-up samples span the whole run like
/// the other metrics; `setup_s` is the median of all of them.
const SETUP_PASSES: usize = 5;
/// Most simulations of one trace per direct pass.
const MAX_REPS: u64 = 4;
/// Accesses per standalone sdram drive.
const SDRAM_ACCESSES: u64 = 50_000;
/// Traces per preset cross-checked against the reference stepper.
const REFERENCE_SAMPLE: usize = 2;
/// Where the traced run writes its spans, relative to the checkout.
const SPAN_DIR: &str = ".bench_out";
/// Where the committed goldens live, relative to the checkout.
const GOLDEN_DIR: &str = "results";

/// End-to-end metrics, in the order `BENCHMARK.json` lists them.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "runs_per_s",
    "run_ms.p50",
    "run_ms.p99",
    "sim_cycles",
    "campaign_s.j1",
    "peak_rss_mb",
];
/// Per-layer metrics of the traced run, in `BENCHMARK.json` order.
const PER_LAYER: [&str; 38] = [
    "kernels.trace_ns_per_op",
    "pva-core.solve_ns_per_cmd",
    "pva-sim.new_us",
    "pva-sim.submit_ns_per_cmd",
    "pva-sim.run_ns_per_sim_cycle",
    "pva-sim.run_ns_per_executed_cycle",
    "pva-sim.executed_cycle_fraction",
    "pva-sim.events_per_kcycle",
    "pva-sim.mean_jump_cycles",
    "pva-sim.cmd_latency_cycles.p50",
    "pva-sim.cmd_latency_cycles.p99",
    "pva-sim.bus_data_util",
    "pva-sim.turnarounds_per_kcmd",
    "pva-sim.group_switch_rate",
    "pva-sim.elements_per_cas",
    "pva-sim.deferred_activates",
    "sdram.issue_ns_per_cmd",
    "sdram.advance_ns_per_cycle",
    "sdram.row_hit_rate",
    "sdram.cas_per_activate",
    "sdram.refreshes_per_mcycle",
    "memsys.closed_form_ns_per_op",
    "memsys.closed_form_cycles",
    "pva-bench.cell_wall_sum_s",
    "pva-bench.critical_cell_s",
    "pva-bench.scaling_eff",
    "campaign_s.j2",
    "pva-bench.verify_mismatches",
    "trace.overhead_frac",
    "trace.sim_sdram_share",
    "kernels.self_s",
    "pva-core.self_s",
    "pva-sim.self_s",
    "sdram.self_s",
    "memsys.self_s",
    "pva-bench.self_s",
    "bench.self_s",
    "error_rate",
];

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

/// Attempted operations and every failure among them.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, attempted: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failures.extend(failures);
    }

    fn error_rate(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }
}

/// What a run prints besides the result line.
struct Report {
    notes: Vec<String>,
    tally: Tally,
    metrics: Vec<Metric>,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Times `SETUP_PASSES` set-ups; the first is timed from process start.
/// Returns the last pass's product and the set-up seconds of each.
fn timed_setup<T>(
    start: Instant,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut out = None;
    for i in 0..SETUP_PASSES {
        let t0 = if i == 0 { start } else { Instant::now() };
        out = Some(f()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((out.expect("at least one set-up pass"), times))
}

/// Seconds one more set-up takes.
fn setup_again<T>(f: impl FnOnce() -> Result<T, String>) -> Result<f64, String> {
    let t0 = Instant::now();
    f()?;
    Ok(t0.elapsed().as_secs_f64())
}

/// Builds the workload's jobs and a unit per preset (validating each
/// configuration), as a user would before simulating.
fn sim_setup(workload: Workload, seed: u64) -> Result<Vec<Job>, String> {
    let jobs = inputs::jobs(workload, seed);
    for &p in workload.presets() {
        PvaUnit::new(inputs::config_for(p)).map_err(|e| format!("{}: {e}", p.name()))?;
    }
    Ok(jobs)
}

/// The fig-7 kernels (copy, saxpy, scale) at the paper's six strides,
/// coincident alignment, on sdr100: the campaign's own simulation
/// traffic, used to measure its layers in the traced run.
fn campaign_probe_jobs() -> Vec<Job> {
    let fig7 = ["copy/", "saxpy/", "scale/"];
    inputs::kernel_jobs(0, &[DevicePreset::Sdr100], spans::new_trace())
        .into_iter()
        .filter(|j| j.label.ends_with("/slot0"))
        .filter(|j| {
            fig7.iter()
                .any(|k| j.label.starts_with(&format!("sdr100/{k}")))
        })
        .collect()
}

/// Summed exact counters of one pass over a job set.
#[derive(Default)]
struct Counts {
    cycles: u64,
    commands: u64,
    unit: UnitStats,
    events: EventStats,
    bc: BcStats,
    sdram: SdramStats,
    per_preset: Vec<(DevicePreset, SdramStats)>,
}

impl Counts {
    fn add(&mut self, job: &Job, o: &sim::Outcome) {
        self.cycles += o.cycles;
        self.commands += job.requests.len() as u64;
        self.unit.cycles += o.unit.cycles;
        self.unit.data_cycles += o.unit.data_cycles;
        self.events.absorb(&o.events);
        self.bc.merge(&o.bc);
        self.sdram.merge(&o.sdram);
        match self.per_preset.iter_mut().find(|(p, _)| *p == job.preset) {
            Some((_, s)) => s.merge(&o.sdram),
            None => self.per_preset.push((job.preset, o.sdram)),
        }
    }
}

/// Direct single-threaded passes over a job set.
struct Direct {
    /// Each trace's fastest untraced simulation, in host nanoseconds.
    /// The minimum over passes filters out interference from other
    /// tenants of the host, which swings single passes by tens of
    /// percent.
    best_ns: Vec<u64>,
    /// (runs, host ns) of untraced and traced passes after the first.
    untraced: (u64, u64),
    traced: (u64, u64),
    /// Each trace's simulated cycles on the first pass; later passes and
    /// engine cells must repeat them exactly.
    cycles: Vec<Option<u64>>,
    counts: Counts,
    latencies: Vec<u64>,
    passes: usize,
    /// Host nanoseconds of each untraced pass.
    pass_ns: Vec<u64>,
    outcomes: Vec<sim::Outcome>,
    /// The median trace's simulated cycles, set after the first pass
    /// when long traces are repeated.
    rep_unit: Option<u64>,
    /// Repeat long traces (untraced runs only: in a traced run every
    /// pass must run the same mix, so the traced and untraced rates
    /// compare).
    repeat_long: bool,
}

impl Direct {
    fn new(traces: usize, repeat_long: bool) -> Direct {
        Direct {
            best_ns: vec![u64::MAX; traces],
            untraced: (0, 0),
            traced: (0, 0),
            cycles: vec![None; traces],
            counts: Counts::default(),
            latencies: Vec::new(),
            passes: 0,
            pass_ns: Vec::new(),
            outcomes: vec![sim::Outcome::default(); traces],
            rep_unit: None,
            repeat_long,
        }
    }

    /// Simulations of trace `i` per pass after the first: one per median
    /// trace length, up to `MAX_REPS` (1 when long traces are not
    /// repeated). The longest traces set `run_ms.p99`, and a long trace
    /// needs a longer quiet stretch of the host, so they get more tries.
    fn reps(&self, i: usize) -> u64 {
        match (self.rep_unit, self.cycles[i]) {
            (Some(unit), Some(c)) => c.div_ceil(unit.max(1)).clamp(1, MAX_REPS),
            _ => 1,
        }
    }

    /// One pass over `jobs` in `order`, recording spans if `traced`.
    fn pass(&mut self, jobs: &[Job], order: &[usize], traced: bool, tally: &mut Tally) {
        let collect = traced && self.latencies.is_empty();
        spans::set_enabled(traced);
        let mut pass_ns = 0;
        for &i in order {
            for _ in 0..self.reps(i) {
                let job = &jobs[i];
                let tr = spans::new_trace();
                let o = span("bench.run", 0, tr, |id| {
                    sim::simulate(job, job.config, id, tr, collect)
                });
                // Checks run outside the simulation's timed window.
                tally.add(1, sim::check(job, &o, self.cycles[i]));
                let kind = if traced {
                    &mut self.traced
                } else {
                    &mut self.untraced
                };
                // The first pass warms caches and the allocator; the
                // traced/untraced rate comparison leaves it out.
                if self.passes > 0 {
                    kind.0 += 1;
                    kind.1 += o.host_ns;
                }
                if !traced {
                    self.best_ns[i] = self.best_ns[i].min(o.host_ns);
                    pass_ns += o.host_ns;
                }
                if self.cycles[i].is_none() {
                    self.cycles[i] = Some(o.cycles);
                    self.counts.add(job, &o);
                }
                if collect {
                    self.latencies.extend(&o.latencies);
                }
                self.outcomes[i] = sim::Outcome {
                    latencies: Vec::new(),
                    ..o
                };
            }
        }
        if self.repeat_long && self.rep_unit.is_none() {
            let mut cycles: Vec<u64> = self.cycles.iter().flatten().copied().collect();
            cycles.sort_unstable();
            self.rep_unit = cycles.get(cycles.len() / 2).copied();
        }
        spans::set_enabled(false);
        if !traced {
            self.pass_ns.push(pass_ns);
        }
        self.passes += 1;
    }

    fn sim_cycles(&self) -> u64 {
        self.cycles.iter().flatten().sum()
    }
}

/// The traced run's direct passes, until `budget` has passed (at least
/// two). Every other pass records spans; the others give the untraced
/// rate it is compared to.
fn traced_direct_passes(
    jobs: &[Job],
    order: &[usize],
    budget: Duration,
    tally: &mut Tally,
) -> Direct {
    let t0 = Instant::now();
    let mut d = Direct::new(jobs.len(), false);
    while d.passes < 2 || t0.elapsed() < budget {
        d.pass(jobs, order, d.passes % 2 == 1, tally);
    }
    d
}

/// Engine pass walls: the fastest one-worker wall of each chunk (for
/// `campaign_s.j1`), and the last whole pass at each worker count (for
/// the traced run's engine metrics).
#[derive(Default)]
struct EngineTimes {
    /// Fastest one-worker wall of each chunk.
    best: Vec<f64>,
    /// Every one-worker pass wall.
    walls: Vec<f64>,
    last_j1: Option<campaign::Pass>,
    last_j2: Option<campaign::Pass>,
}

impl EngineTimes {
    /// Records a one-worker pass over chunk `chunk`.
    fn record_j1(&mut self, chunk: usize, p: campaign::Pass) {
        let wall = p.wall.as_secs_f64();
        if self.best.len() <= chunk {
            self.best.resize(chunk + 1, f64::INFINITY);
        }
        self.best[chunk] = self.best[chunk].min(wall);
        self.walls.push(wall);
        self.last_j1 = Some(p);
    }

    /// Every one of `chunks` chunks ran.
    fn covers(&self, chunks: usize) -> bool {
        self.best.len() == chunks && self.best.iter().all(|w| w.is_finite())
    }

    /// The sum over chunks of each chunk's fastest wall.
    fn wall(&self) -> f64 {
        self.best.iter().sum()
    }
}

/// Traces per engine chunk. A chunk takes tens of milliseconds, so the
/// fastest wall of each is taken in a quiet stretch of the host.
const CHUNK_TRACES: usize = 30;

fn chunks(traces: usize) -> Vec<std::ops::Range<usize>> {
    (0..traces)
        .step_by(CHUNK_TRACES)
        .map(|a| a..(a + CHUNK_TRACES).min(traces))
        .collect()
}

/// Checks an engine pass over `jobs` against the cycles the direct
/// passes measured; returns how many cells' cycles differed.
fn check_workload_pass(
    jobs: &[Job],
    cycles: &[Option<u64>],
    p: &campaign::Pass,
    tally: &mut Tally,
) -> u64 {
    let mut fails = p.failures();
    let mut mismatches = 0;
    for ((job, o), &c) in jobs.iter().zip(campaign::workload_outcomes(p)).zip(cycles) {
        mismatches += u64::from(Some(o.cycles) != c);
        fails.extend(sim::check(job, &o, c));
    }
    tally.add(p.cells(), fails);
    mismatches
}

/// The end-to-end metrics, from each run's best host time (one run is
/// a trace simulation, or a campaign cell) and the engine passes.
fn end_to_end(setup: &[f64], best_ns: &[u64], sim_cycles: u64, e: &EngineTimes) -> Vec<Metric> {
    vec![
        m("setup_s", median(setup), "s"),
        m(
            "runs_per_s",
            ratio(best_ns.len() as u64, best_ns.iter().sum()) * 1e9,
            "1/s",
        ),
        m("run_ms.p50", percentile(best_ns, 50.0) as f64 / 1e6, "ms"),
        m("run_ms.p99", percentile(best_ns, 99.0) as f64 / 1e6, "ms"),
        m("sim_cycles", sim_cycles as f64, "cycles"),
        m("campaign_s.j1", e.wall(), "s"),
        m("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
    ]
}

fn run(args: &Args, start: Instant) -> Result<Report, String> {
    spans::set_enabled(args.trace);
    let budget = Duration::from_secs_f64(args.seconds);
    match args.workload {
        Workload::Campaign => run_campaign(args, start, budget),
        w => run_sim(args, w, start, budget),
    }
}

fn run_sim(args: &Args, w: Workload, start: Instant, budget: Duration) -> Result<Report, String> {
    let (jobs, mut setup) = timed_setup(start, || sim_setup(w, args.seed))?;
    let jobs = campaign::install_jobs(jobs);
    spans::set_enabled(false);
    let setup_spans = spans::take();
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    inputs::shuffle(&mut order, args.seed);
    let mut tally = Tally::default();
    let mut mismatches = 0;

    let (d, e, direct_spans, engine_spans) = if args.trace {
        // Direct passes for half the budget, then one traced engine
        // pass at each worker count.
        let d = traced_direct_passes(jobs, &order, budget / 2, &mut tally);
        let direct_spans = spans::take();
        let mut e = EngineTimes::default();
        spans::set_enabled(true);
        let p = campaign::workload_pass(1, 0..jobs.len())?;
        mismatches += check_workload_pass(jobs, &d.cycles, &p, &mut tally);
        e.record_j1(0, p);
        let p = campaign::workload_pass(2, 0..jobs.len())?;
        mismatches += check_workload_pass(jobs, &d.cycles, &p, &mut tally);
        e.last_j2 = Some(p);
        spans::set_enabled(false);
        (d, e, direct_spans, spans::take())
    } else {
        // Direct and engine passes interleave over the whole budget, so
        // both see the host's quiet and busy stretches alike.
        let t0 = Instant::now();
        let mut d = Direct::new(jobs.len(), true);
        let mut e = EngineTimes::default();
        let chunks = chunks(jobs.len());
        while d.passes < 2 || !e.covers(chunks.len()) || t0.elapsed() < budget {
            d.pass(jobs, &order, false, &mut tally);
            for (k, r) in chunks.iter().enumerate() {
                let p = campaign::workload_pass(1, r.clone())?;
                let (jobs, cycles) = (&jobs[r.clone()], &d.cycles[r.clone()]);
                mismatches += check_workload_pass(jobs, cycles, &p, &mut tally);
                e.record_j1(k, p);
            }
            setup.push(setup_again(|| sim_setup(w, args.seed))?);
        }
        (d, e, Vec::new(), Vec::new())
    };

    let mut notes = vec![format!(
        "workload {} seed {}: {} traces, {} direct passes, {} one-worker engine passes",
        args.name,
        args.seed,
        jobs.len(),
        d.passes,
        e.walls.len(),
    )];

    if !args.trace {
        notes.push(format!(
            "run_ms samples: {} traces, each the best of {} passes",
            d.best_ns.len(),
            d.pass_ns.len()
        ));
        notes.push(format!(
            "direct pass ms: {:?}",
            d.pass_ns.iter().map(|&n| n / 1_000_000).collect::<Vec<_>>()
        ));
        notes.push(format!("engine chunk best s: {:?}", e.best));
        let metrics = end_to_end(&setup, &d.best_ns, d.sim_cycles(), &e);
        return Ok(Report {
            notes,
            tally,
            metrics,
        });
    }

    // Traced run: layer probes on the same jobs.
    spans::set_enabled(true);
    let probe = layer_probes(jobs, &d, args.seed, &mut tally);
    spans::set_enabled(false);
    let probe_spans = spans::take();

    let mut all = setup_spans;
    all.extend(direct_spans.iter().cloned());
    all.extend(engine_spans);
    all.extend(probe_spans);
    let j1 = e.last_j1.as_ref().expect("one j1 pass");
    let j2 = e.last_j2.as_ref().expect("one j2 pass");
    let metrics = layer_metrics(LayerInputs {
        all: &all,
        direct: &direct_spans,
        d: &d,
        probe: &probe,
        j1,
        j2,
        mismatches,
        tally: &tally,
    });
    write_spans(args, &all, &mut notes);
    Ok(Report {
        notes,
        tally,
        metrics,
    })
}

fn run_campaign(args: &Args, start: Instant, budget: Duration) -> Result<Report, String> {
    let campaign_setup = || {
        let registry = pva_bench::scenarios::scenarios();
        let selection: Vec<&pva_bench::engine::Scenario> = registry.iter().collect();
        let goldens = campaign::load_goldens(&selection, GOLDEN_DIR)?;
        Ok((registry, goldens))
    };
    let ((registry, goldens), mut setup) = timed_setup(start, campaign_setup)?;
    let probe_jobs = if args.trace {
        campaign_probe_jobs()
    } else {
        Vec::new()
    };
    spans::set_enabled(false);
    let setup_spans = spans::take();
    // The seed permutes the scenario order the pool is fed in.
    let mut selection: Vec<&pva_bench::engine::Scenario> = registry.iter().collect();
    inputs::shuffle(&mut selection, args.seed);
    let mut tally = Tally::default();
    let mut mismatches = 0u64;
    let mut sim_cycles = None;
    let mut closed_form;
    let mut cell_best: Vec<u64> = Vec::new();

    // One-worker passes until the budget is spent; the traced run makes
    // one pass at each worker count.
    let mut e = EngineTimes::default();
    let mut workers = 1;
    let t0 = Instant::now();
    spans::set_enabled(args.trace);
    loop {
        let p = campaign::campaign_pass(&selection, workers)?;
        let mut fails = p.failures();
        let bad = campaign::verify(&p, &goldens);
        mismatches += bad.len() as u64;
        fails.extend(bad);
        let (sim, cf) = campaign::techsweep_cycles(&p);
        if *sim_cycles.get_or_insert(sim) != sim {
            fails.push(format!("techsweep sim_cycles {sim} differs between passes"));
        }
        closed_form = cf;
        tally.add(p.cells() + goldens.len() as u64, fails);
        if workers == 1 {
            let walls = p.cell_walls();
            cell_best.resize(walls.len(), u64::MAX);
            for (b, w) in cell_best.iter_mut().zip(walls) {
                *b = (*b).min(w);
            }
            e.record_j1(0, p);
        } else {
            e.last_j2 = Some(p);
        }
        setup.push(setup_again(campaign_setup)?);
        if args.trace && workers == 1 {
            workers = 2;
        } else if args.trace || t0.elapsed() >= budget {
            break;
        }
    }
    spans::set_enabled(false);
    let engine_spans = spans::take();
    let mut notes = vec![format!(
        "workload campaign seed {}: {} scenarios, {} golden, {} one-worker engine passes",
        args.seed,
        selection.len(),
        goldens.len(),
        e.walls.len(),
    )];

    if !args.trace {
        notes.push(format!(
            "run_ms samples: {} cells, each the best of {} passes",
            cell_best.len(),
            e.walls.len()
        ));
        notes.push(format!("engine pass s: {:?}", e.walls));
        notes.push(format!(
            "closed-form baseline cycles of the techsweep cells (not in sim_cycles): {closed_form}"
        ));
        let metrics = end_to_end(&setup, &cell_best, sim_cycles.unwrap_or(0), &e);
        return Ok(Report {
            notes,
            tally,
            metrics,
        });
    }

    // Traced run: the layers below the engine, measured on the
    // campaign's own fig-7 traffic.
    let mut order: Vec<usize> = (0..probe_jobs.len()).collect();
    inputs::shuffle(&mut order, args.seed);
    let d = traced_direct_passes(&probe_jobs, &order, budget.mul_f64(0.25), &mut tally);
    let direct_spans = spans::take();
    spans::set_enabled(true);
    let mut probe = layer_probes(&probe_jobs, &d, args.seed, &mut tally);
    spans::set_enabled(false);
    probe.closed_form_cycles += closed_form;
    let mut all = setup_spans;
    all.extend(engine_spans);
    all.extend(direct_spans.iter().cloned());
    all.extend(spans::take());
    let metrics = layer_metrics(LayerInputs {
        all: &all,
        direct: &direct_spans,
        d: &d,
        probe: &probe,
        j1: e.last_j1.as_ref().expect("one j1 pass"),
        j2: e.last_j2.as_ref().expect("one j2 pass"),
        mismatches,
        tally: &tally,
    });
    write_spans(args, &all, &mut notes);
    Ok(Report {
        notes,
        tally,
        metrics,
    })
}

/// Results of the per-layer probes of a traced run.
#[derive(Default)]
struct Probe {
    solve_ns: u64,
    solve_cmds: u64,
    closed_form_ns: u64,
    closed_form_ops: u64,
    closed_form_cycles: u64,
    sdram_issue_ns: f64,
    sdram_cmds: u64,
    sdram_advance_ns: f64,
    sdram_cycles: u64,
}

/// Cross-checks a sample against the reference stepper, and times
/// `pva-core`, `memsys` and a standalone `sdram` on the same traffic.
fn layer_probes(jobs: &[Job], d: &Direct, seed: u64, tally: &mut Tally) -> Probe {
    let mut p = Probe::default();
    let trace = spans::new_trace();

    // Event core vs reference stepper, cycle for cycle.
    let mut sample: Vec<usize> = (0..jobs.len()).collect();
    inputs::shuffle(&mut sample, seed ^ 0x0072_6566);
    let presets: Vec<DevicePreset> = d.counts.per_preset.iter().map(|(p, _)| *p).collect();
    for preset in presets {
        for &i in sample
            .iter()
            .filter(|&&i| jobs[i].preset == preset)
            .take(REFERENCE_SAMPLE)
        {
            let job = &jobs[i];
            let reference = PvaConfig {
                fast_sim: false,
                ..job.config
            };
            let r = span("bench.reference", 0, trace, |id| {
                sim::simulate(job, reference, id, trace, false)
            });
            tally.add(1, sim::check_against_reference(job, &d.outcomes[i], &r));
        }
    }

    // pva-core: solver build plus first hit on every bank, per command.
    for job in jobs {
        let g = job.config.geometry;
        let t0 = Instant::now();
        span("pva-core.solve", 0, trace, |_| {
            for op in &job.ops {
                let s = VectorSolver::new(&op.vector, &g);
                for b in 0..g.banks() as usize {
                    std::hint::black_box(s.first_hit(BankId::new(b)));
                }
            }
        });
        p.solve_ns += t0.elapsed().as_nanos() as u64;
        p.solve_cmds += job.ops.len() as u64;
    }

    // memsys: the closed-form comparators, parameterised per preset as
    // the techsweep scenario does. Their cycles stay out of sim_cycles.
    for job in jobs {
        let sd = job.config.sdram;
        let mut cacheline = memsys::CachelineSerial::new(memsys::CachelineConfig {
            line_words: kernels::LINE_WORDS,
            ras: u64::from(sd.t_rcd),
            cas: u64::from(sd.t_cas),
            burst: 16u64.div_ceil(u64::from(sd.data_rate.max(1))),
        });
        let mut serial = memsys::SerialGather::new(memsys::SerialGatherConfig {
            t_rp: u64::from(sd.t_rp),
            t_rcd: u64::from(sd.t_rcd),
            t_cas: u64::from(sd.t_cas),
        });
        use memsys::MemorySystem as _;
        let t0 = Instant::now();
        let a = span("memsys.cacheline", 0, trace, |_| {
            cacheline.run_trace(&job.ops)
        });
        let b = span("memsys.serial_gather", 0, trace, |_| {
            serial.run_trace(&job.ops)
        });
        p.closed_form_ns += t0.elapsed().as_nanos() as u64;
        p.closed_form_ops += 2 * job.ops.len() as u64;
        p.closed_form_cycles += a.cycles + b.cycles;
    }

    // sdram: a standalone device per preset, fed this traffic's mix.
    for (preset, mix) in &d.counts.per_preset {
        let dr = sdram_driver::drive(*preset, mix, seed, SDRAM_ACCESSES, spans::new_trace());
        tally.add(dr.commands.max(1), dr.failures);
        p.sdram_issue_ns += dr.issue_ns_per_cmd * dr.commands as f64;
        p.sdram_cmds += dr.commands;
        p.sdram_advance_ns += dr.advance_ns_per_cycle * dr.cycles as f64;
        p.sdram_cycles += dr.cycles;
    }
    p
}

struct LayerInputs<'a> {
    all: &'a [spans::Span],
    direct: &'a [spans::Span],
    d: &'a Direct,
    probe: &'a Probe,
    j1: &'a campaign::Pass,
    j2: &'a campaign::Pass,
    mismatches: u64,
    tally: &'a Tally,
}

fn layer_metrics(x: LayerInputs) -> Vec<Metric> {
    let c = &x.d.counts;
    let cas = c.sdram.reads + c.sdram.writes;
    let (new_ns, new_n) = spans::total_ns(x.direct, "pva-sim.new");
    let (submit_ns, _) = spans::total_ns(x.direct, "pva-sim.submit");
    let (run_ns, _) = spans::total_ns(x.direct, "pva-sim.run_until");
    let (trace_ns, _) = spans::total_ns(x.all, "kernels.trace");
    // Cycles and commands of the traced direct passes: every traced
    // pass simulates the whole job set once.
    let traced_passes = x.d.passes as u64 / 2;
    let sim_cycles = c.cycles * traced_passes;
    let exec_cycles = c.events.executed_cycles * traced_passes;
    let commands = c.commands * traced_passes;
    let trace_ops = inputs::TRACED_OPS.load(std::sync::atomic::Ordering::Relaxed);

    let layers = spans::layer_self_ns(x.all);
    let layer = |l: &str| layers.get(l).copied().unwrap_or(0);
    let total: u64 = layers.values().sum();

    let j1_walls = x.j1.cell_walls();
    let rate = |(runs, ns): (u64, u64)| runs as f64 / (ns as f64 / 1e9);

    vec![
        m("kernels.trace_ns_per_op", ratio(trace_ns, trace_ops), "ns"),
        m(
            "pva-core.solve_ns_per_cmd",
            ratio(x.probe.solve_ns, x.probe.solve_cmds),
            "ns",
        ),
        m("pva-sim.new_us", ratio(new_ns, new_n) / 1e3, "us"),
        m(
            "pva-sim.submit_ns_per_cmd",
            ratio(submit_ns, commands),
            "ns",
        ),
        m(
            "pva-sim.run_ns_per_sim_cycle",
            ratio(run_ns, sim_cycles),
            "ns",
        ),
        m(
            "pva-sim.run_ns_per_executed_cycle",
            ratio(run_ns, exec_cycles),
            "ns",
        ),
        m(
            "pva-sim.executed_cycle_fraction",
            ratio(c.events.executed_cycles, c.cycles),
            "ratio",
        ),
        m(
            "pva-sim.events_per_kcycle",
            1e3 * ratio(c.events.events_popped, c.cycles),
            "1/kcycle",
        ),
        m(
            "pva-sim.mean_jump_cycles",
            ratio(c.events.skipped_cycles, c.events.jumps),
            "cycles",
        ),
        m(
            "pva-sim.cmd_latency_cycles.p50",
            percentile(&x.d.latencies, 50.0) as f64,
            "cycles",
        ),
        m(
            "pva-sim.cmd_latency_cycles.p99",
            percentile(&x.d.latencies, 99.0) as f64,
            "cycles",
        ),
        m(
            "pva-sim.bus_data_util",
            ratio(c.unit.data_cycles, c.unit.cycles),
            "ratio",
        ),
        m(
            "pva-sim.turnarounds_per_kcmd",
            1e3 * ratio(c.bc.turnarounds, c.commands),
            "1/kcmd",
        ),
        m(
            "pva-sim.group_switch_rate",
            ratio(c.bc.group_switches, cas),
            "ratio",
        ),
        m(
            "pva-sim.elements_per_cas",
            ratio(c.bc.elements_read + c.bc.elements_written, cas),
            "ratio",
        ),
        m(
            "pva-sim.deferred_activates",
            c.bc.deferred_activates as f64,
            "count",
        ),
        m(
            "sdram.issue_ns_per_cmd",
            x.probe.sdram_issue_ns / x.probe.sdram_cmds.max(1) as f64,
            "ns",
        ),
        m(
            "sdram.advance_ns_per_cycle",
            x.probe.sdram_advance_ns / x.probe.sdram_cycles.max(1) as f64,
            "ns",
        ),
        m(
            "sdram.row_hit_rate",
            1.0 - ratio(c.sdram.activates.min(cas), cas),
            "ratio",
        ),
        m(
            "sdram.cas_per_activate",
            ratio(cas, c.sdram.activates),
            "ratio",
        ),
        m(
            "sdram.refreshes_per_mcycle",
            1e6 * ratio(c.sdram.refreshes, c.cycles),
            "1/Mcycle",
        ),
        m(
            "memsys.closed_form_ns_per_op",
            ratio(x.probe.closed_form_ns, x.probe.closed_form_ops),
            "ns",
        ),
        m(
            "memsys.closed_form_cycles",
            x.probe.closed_form_cycles as f64,
            "cycles",
        ),
        m(
            "pva-bench.cell_wall_sum_s",
            j1_walls.iter().sum::<u64>() as f64 / 1e9,
            "s",
        ),
        m(
            "pva-bench.critical_cell_s",
            j1_walls.iter().copied().max().unwrap_or(0) as f64 / 1e9,
            "s",
        ),
        m(
            "pva-bench.scaling_eff",
            x.j1.wall.as_secs_f64() / (2.0 * x.j2.wall.as_secs_f64()),
            "ratio",
        ),
        m("campaign_s.j2", x.j2.wall.as_secs_f64(), "s"),
        m("pva-bench.verify_mismatches", x.mismatches as f64, "count"),
        m(
            "trace.overhead_frac",
            1.0 - rate(x.d.traced) / rate(x.d.untraced),
            "ratio",
        ),
        m(
            "trace.sim_sdram_share",
            ratio(layer("pva-sim") + layer("sdram"), total),
            "ratio",
        ),
        m("kernels.self_s", layer("kernels") as f64 / 1e9, "s"),
        m("pva-core.self_s", layer("pva-core") as f64 / 1e9, "s"),
        m("pva-sim.self_s", layer("pva-sim") as f64 / 1e9, "s"),
        m("sdram.self_s", layer("sdram") as f64 / 1e9, "s"),
        m("memsys.self_s", layer("memsys") as f64 / 1e9, "s"),
        m("pva-bench.self_s", layer("pva-bench") as f64 / 1e9, "s"),
        m("bench.self_s", layer("bench") as f64 / 1e9, "s"),
        m("error_rate", x.tally.error_rate(), "ratio"),
    ]
}

/// Writes the traced run's spans as JSON lines under [`SPAN_DIR`].
fn write_spans(args: &Args, spans: &[spans::Span], notes: &mut Vec<String>) {
    let path = format!("{SPAN_DIR}/spans-{}-seed{}.jsonl", args.name, args.seed);
    let body = format!(
        "{{\"{}\":true}}\n{}",
        stats::host_facts().replace('"', "'"),
        spans::to_jsonl(spans)
    );
    match std::fs::create_dir_all(SPAN_DIR).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => notes.push(format!("spans: {} written to {path}", spans.len())),
        Err(e) => notes.push(format!("spans: not written to {path}: {e}")),
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args, start) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !report
        .metrics
        .iter()
        .map(|m| m.name)
        .eq(expected.iter().copied())
    {
        eprintln!("perfbench: the metrics computed differ from the BENCHMARK.json list");
        return ExitCode::from(1);
    }
    println!("{}", stats::host_facts());
    println!("simulated cycles and closed-form baseline cycles are reported apart");
    for n in &report.notes {
        println!("{n}");
    }
    for f in report.tally.failures.iter().take(20) {
        println!("FAILED: {f}");
    }
    let t = &report.tally;
    println!(
        "{}",
        stats::result_json(
            t.failures.is_empty(),
            t.attempted.max(1),
            t.failures.len() as u64,
            &report.metrics
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists match `BENCHMARK.json`, name for name and in order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let names = |section: &str| -> Vec<String> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
    }
}
