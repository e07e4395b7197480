//! One trace simulation through the public `pva-sim` API, and the
//! correctness checks applied to it outside its timed window.

use std::time::Instant;

use pva_sim::{BcStats, EventStats, PvaConfig, PvaUnit, UnitStats};
use sdram::SdramStats;

use crate::inputs::Job;
use crate::spans::span;

/// What one simulation produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Simulated cycles (the unit's clock when it drained).
    pub cycles: u64,
    /// `run_until` reported the unit idle.
    pub drained: bool,
    /// Watchdog trip or rejected submission, if any.
    pub error: Option<String>,
    pub completions: usize,
    /// Elements delivered in read completions.
    pub read_elems: u64,
    pub unit: UnitStats,
    pub events: EventStats,
    pub bc: BcStats,
    pub sdram: SdramStats,
    /// `completed_at - issued_at` per request (filled when asked).
    pub latencies: Vec<u64>,
    /// Host nanoseconds of the whole simulation.
    pub host_ns: u64,
}

/// Simulates `job` on `config`, with every call into `pva-sim` inside a
/// span under `parent` when tracing is on.
pub fn simulate(job: &Job, config: PvaConfig, parent: u64, trace: u64, latencies: bool) -> Outcome {
    let requests = job.requests.clone();
    let t0 = Instant::now();
    let mut out = Outcome::default();
    let unit = span("pva-sim.new", parent, trace, |_| PvaUnit::new(config));
    let mut unit = match unit {
        Ok(u) => u,
        Err(e) => {
            out.error = Some(format!("PvaUnit::new: {e}"));
            return out;
        }
    };
    let submitted = span("pva-sim.submit", parent, trace, |_| {
        for r in requests {
            unit.submit(r)?;
        }
        Ok::<(), pva_core::PvaError>(())
    });
    if let Err(e) = submitted {
        out.error = Some(format!("submit: {e}"));
        return out;
    }
    match span("pva-sim.run_until", parent, trace, |_| {
        unit.run_until(u64::MAX)
    }) {
        Ok(idle) => out.drained = idle,
        Err(e) => out.error = Some(format!("run_until: {e}")),
    }
    let completions = span("pva-sim.take_completions", parent, trace, |_| {
        unit.take_completions()
    });
    out.host_ns = t0.elapsed().as_nanos() as u64;

    out.cycles = unit.now();
    out.completions = completions.len();
    out.read_elems = completions
        .iter()
        .filter_map(|c| c.data.as_ref())
        .map(|d| d.len() as u64)
        .sum();
    if latencies {
        out.latencies = completions
            .iter()
            .map(|c| c.completed_at - c.issued_at)
            .collect();
    }
    out.unit = *unit.stats();
    out.events = *unit.event_stats();
    for s in unit.bc_stats() {
        out.bc.merge(&s);
    }
    out.sdram = unit.sdram_stats();
    out
}

/// Every way `outcome` fails its job: an error, an undrained unit, a
/// missing completion, an element-count mismatch, or — given the
/// cycles an earlier pass of the same seed measured — non-repeating
/// `sim_cycles`.
pub fn check(job: &Job, outcome: &Outcome, earlier_cycles: Option<u64>) -> Vec<String> {
    let mut bad = Vec::new();
    let who = &job.label;
    if let Some(e) = &outcome.error {
        bad.push(format!("{who}: {e}"));
    }
    if !outcome.drained {
        bad.push(format!("{who}: unit did not drain"));
    }
    if outcome.completions != job.requests.len() {
        bad.push(format!(
            "{who}: {} of {} requests completed",
            outcome.completions,
            job.requests.len()
        ));
    }
    if outcome.read_elems != job.read_elems || outcome.bc.elements_read != job.read_elems {
        bad.push(format!(
            "{who}: read {} / {} elements, trace has {}",
            outcome.read_elems, outcome.bc.elements_read, job.read_elems
        ));
    }
    if outcome.bc.elements_written != job.write_elems {
        bad.push(format!(
            "{who}: wrote {} elements, trace has {}",
            outcome.bc.elements_written, job.write_elems
        ));
    }
    if let Some(c) = earlier_cycles {
        if c != outcome.cycles {
            bad.push(format!(
                "{who}: sim_cycles {} differs from {c} on an earlier pass",
                outcome.cycles
            ));
        }
    }
    bad
}

/// Compares the event core with the reference stepper on one job:
/// cycles and every counter must agree exactly.
pub fn check_against_reference(job: &Job, fast: &Outcome, reference: &Outcome) -> Vec<String> {
    let same = fast.cycles == reference.cycles
        && fast.unit.data_cycles == reference.unit.data_cycles
        && fast.unit.commands == reference.unit.commands
        && fast.bc == reference.bc
        && fast.sdram == reference.sdram;
    if same {
        Vec::new()
    } else {
        vec![format!(
            "{}: event core {} cycles vs reference stepper {} (or a counter differs)",
            job.label, fast.cycles, reference.cycles
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{kernel_jobs, Workload};

    fn small_job() -> Job {
        let mut jobs = kernel_jobs(0, Workload::PaperSdr.presets(), 0);
        jobs.truncate(1);
        jobs.pop().expect("one job")
    }

    #[test]
    fn a_clean_run_passes_every_check() {
        let job = small_job();
        let a = simulate(&job, job.config, 0, 0, true);
        let b = simulate(&job, job.config, 0, 0, false);
        assert!(
            check(&job, &a, None).is_empty(),
            "{:?}",
            check(&job, &a, None)
        );
        assert!(check(&job, &b, Some(a.cycles)).is_empty());
        let reference = PvaConfig {
            fast_sim: false,
            ..job.config
        };
        let r = simulate(&job, reference, 0, 0, false);
        assert!(check_against_reference(&job, &a, &r).is_empty());
        assert_eq!(a.latencies.len(), job.requests.len());
    }

    #[test]
    fn planted_mismatches_are_reported_as_failures() {
        let job = small_job();
        let good = simulate(&job, job.config, 0, 0, false);

        // Non-repeating sim_cycles between passes of one seed.
        assert_eq!(check(&job, &good, Some(good.cycles + 1)).len(), 1);

        // An element-count mismatch.
        let mut lost = good.clone();
        lost.read_elems -= 1;
        assert_eq!(check(&job, &lost, None).len(), 1);

        // An undrained run with a missing completion.
        let mut stuck = good.clone();
        stuck.drained = false;
        stuck.completions -= 1;
        assert_eq!(check(&job, &stuck, None).len(), 2);

        // Event core and reference stepper disagree by one cycle.
        let mut off = good.clone();
        off.cycles += 1;
        assert_eq!(check_against_reference(&job, &good, &off).len(), 1);
    }
}
