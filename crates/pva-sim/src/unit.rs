//! The PVA unit: vector bus + 16 bank controllers + front-end driver.
//!
//! Models the shared split-transaction Vector Bus of §5.2.1 and the
//! overall operation of §5.2.6:
//!
//! * a **request cycle** broadcasts `VEC_READ`/`VEC_WRITE` (base, stride,
//!   transaction id) to every bank controller at once;
//! * **data cycles** move the dense line between the front end and the
//!   staging units — 2 words per cycle on the 128-bit BC bus (alternate
//!   64-bit halves, avoiding turnaround), so a 32-word line stages in 16
//!   cycles;
//! * eight **transaction-complete lines** (modelled by the
//!   [`TransactionTable`]) tell the front end when a gather finished or
//!   a scatter committed;
//! * reads: `VEC_READ` → banks gather in parallel → `STAGE_READ` returns
//!   the line; writes: `STAGE_WRITE` sends the line → `VEC_WRITE` → banks
//!   scatter → completion line deasserts.
//!
//! The front end issues host requests as fast as bus resources allow —
//! the "infinitely fast CPU" assumption of §6.2 under which the paper's
//! numbers are measured.

use std::collections::VecDeque;
use std::sync::Arc;

use pva_core::{BankId, K1Pla, LogicalView, PvaError, WordAddr};
use sdram::SdramStats;

use crate::bank_controller::{BankController, BcStats};
use crate::command::{Completion, HostRequest, OpKind, TxnId, VectorCommand};
use crate::config::PvaConfig;
use crate::sched::{EventQueue, EventStats};
use crate::trace_log::TraceEvent;
use crate::txn::{Transaction, TransactionTable, TxnPhase};

/// What the vector bus is doing this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BusActivity {
    /// Free for a request broadcast or to start staging.
    Idle,
    /// Moving line data for `txn`; `cycles_left` data cycles remain.
    Staging {
        txn: TxnId,
        kind: OpKind,
        cycles_left: u64,
    },
}

/// Aggregate statistics for a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Cycles the vector bus carried a request broadcast.
    pub request_cycles: u64,
    /// Cycles the vector bus carried line data.
    pub data_cycles: u64,
    /// Cycles the vector bus idled.
    pub idle_cycles: u64,
    /// Vector commands broadcast.
    pub commands: u64,
}

/// Result of running a request batch to completion.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total cycles from first request to last completion.
    pub cycles: u64,
    /// Per-request completion records, in submission order.
    pub completions: Vec<Completion>,
    /// Bus-level statistics.
    pub stats: UnitStats,
    /// Per-bank-controller statistics.
    pub bc_stats: Vec<BcStats>,
    /// SDRAM device statistics summed over every bank — fault and ECC
    /// outcomes (`corrected`, `detected_uncorrectable`, `silent`) live
    /// here.
    pub sdram: SdramStats,
}

impl RunResult {
    /// The gathered line of read request `i`.
    ///
    /// # Panics
    ///
    /// Panics if request `i` was a write or is missing.
    pub fn read_data(&self, i: usize) -> &[u64] {
        self.completions[i]
            .data
            .as_deref()
            .expect("request was a read")
    }
}

/// The Parallel Vector Access unit.
///
/// # Examples
///
/// ```
/// use pva_core::Vector;
/// use pva_sim::{HostRequest, PvaConfig, PvaUnit};
///
/// let mut unit = PvaUnit::new(PvaConfig::default())?;
/// let v = Vector::new(0x200, 19, 32)?;
/// let result = unit.run(vec![HostRequest::Read { vector: v }])?;
/// assert_eq!(result.read_data(0).len(), 32);
/// # Ok::<(), pva_core::PvaError>(())
/// ```
#[derive(Debug)]
pub struct PvaUnit {
    config: PvaConfig,
    bcs: Vec<BankController>,
    txns: TransactionTable,
    bus: BusActivity,
    /// Host requests not yet taken by the front end.
    pending: VecDeque<(usize, HostRequest)>,
    /// Write transactions whose data staged; `VEC_WRITE` broadcast next.
    write_broadcasts: VecDeque<TxnId>,
    /// Vector + direction per transaction slot (the command register the
    /// front end holds while a transaction is outstanding).
    vectors: Vec<Option<(pva_core::Vector, OpKind)>>,
    completions: Vec<Completion>,
    now: u64,
    stats: UnitStats,
    total_requests: usize,
    /// Cycle forward progress was last observed (watchdog).
    last_progress: u64,
    /// Progress fingerprint as of `last_progress`.
    progress_mark: (usize, usize, u64),
    /// Scratch for [`finish_transactions`](PvaUnit::finish_transactions)
    /// (capacity reused across cycles when `fast_sim` is on).
    finish_scratch: Vec<(TxnId, OpKind)>,
    /// Reusable buffer for the controllers due at the executing cycle.
    due_scratch: Vec<u32>,
    /// Count of read transactions in [`TxnPhase::ReadyToStage`] — lets
    /// the fast path prove the staging-arbitration scan empty without
    /// walking the transaction table every idle-bus cycle.
    ready_reads: usize,
    /// Pending per-controller wake-ups for the event-driven fast path.
    sched: EventQueue,
    /// Cycles each bank controller has consumed — lags `now` while the
    /// event loop lazily skips a controller, re-synced (via
    /// [`BankController::advance`]) before its next tick.
    bc_clock: Vec<u64>,
    /// How the event-driven loop spent its time (fast path only).
    event_stats: EventStats,
    events: Vec<TraceEvent>,
}

impl PvaUnit {
    /// Builds a unit for the given configuration.
    ///
    /// Word-interleaved geometries use one K1 PLA per bank controller;
    /// block/cache-line interleaved geometries instantiate the §4.3.1
    /// arrangement of `N` logical first-hit units per controller.
    ///
    /// # Errors
    ///
    /// Returns [`PvaError::NotPowerOfTwo`] if the geometry has
    /// `width_words > 1` (multi-word-wide banks are reduced to logical
    /// banks at design time; model them as more banks instead), or
    /// [`PvaError::InvalidConfig`] if the configuration violates a
    /// [`PvaConfig::check`] consistency rule.
    pub fn new(config: PvaConfig) -> Result<Self, PvaError> {
        if config.geometry.width_words() != 1 {
            return Err(PvaError::NotPowerOfTwo(config.geometry.width_words()));
        }
        config
            .validate()
            .map_err(|e| PvaError::InvalidConfig(e.rule()))?;
        let bcs: Vec<BankController> = if config.geometry.block_words() == 1 {
            let pla = Arc::new(K1Pla::new(&config.geometry));
            (0..config.geometry.banks() as usize)
                .map(|b| BankController::new(BankId::new(b), config, pla.clone()))
                .collect()
        } else {
            let view = Arc::new(LogicalView::new(&config.geometry));
            (0..config.geometry.banks() as usize)
                .map(|b| {
                    BankController::new_block_interleaved(BankId::new(b), config, view.clone())
                })
                .collect()
        };
        Ok(PvaUnit {
            config,
            bcs,
            txns: TransactionTable::new(config.transaction_ids),
            bus: BusActivity::Idle,
            pending: VecDeque::new(),
            write_broadcasts: VecDeque::new(),
            vectors: vec![None; config.transaction_ids],
            completions: Vec::new(),
            now: 0,
            stats: UnitStats::default(),
            total_requests: 0,
            last_progress: 0,
            progress_mark: (0, 0, 0),
            finish_scratch: Vec::new(),
            due_scratch: Vec::new(),
            ready_reads: 0,
            sched: EventQueue::default(),
            bc_clock: Vec::new(),
            event_stats: EventStats::default(),
            events: Vec::new(),
        })
    }

    /// The configuration.
    pub const fn config(&self) -> &PvaConfig {
        &self.config
    }

    /// Current cycle.
    pub const fn now(&self) -> u64 {
        self.now
    }

    /// Drains the merged, cycle-ordered trace log (empty unless
    /// [`PvaConfig::record_trace`] is set).
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        let mut all = std::mem::take(&mut self.events);
        for bc in &mut self.bcs {
            all.extend(bc.drain_events());
        }
        all.sort_by_key(|e| e.cycle());
        all
    }

    /// Functional write of a global word (test setup / preloading).
    pub fn preload(&mut self, addr: WordAddr, value: u64) {
        let bank = self.config.geometry.decode_bank(addr).index();
        let local = self.config.geometry.bank_local_addr(addr);
        self.bcs[bank].device_mut().poke(local, value);
    }

    /// Functional read of a global word.
    pub fn peek(&self, addr: WordAddr) -> u64 {
        let bank = self.config.geometry.decode_bank(addr).index();
        let local = self.config.geometry.bank_local_addr(addr);
        self.bcs[bank].device().peek(local)
    }

    /// Runs a batch of host requests to completion, returning cycle
    /// counts and gathered data.
    ///
    /// # Errors
    ///
    /// Returns [`PvaError::VectorTooLong`] if any request exceeds the
    /// hardware line length (split with [`pva_core::Vector::chunks`]
    /// first), [`PvaError::WriteLineMismatch`] if a write's data is not
    /// one word per element, or [`PvaError::Watchdog`] if no transaction
    /// makes forward progress for [`PvaConfig::watchdog_cycles`] cycles
    /// (an internal deadlock or an unrecoverable fault loop).
    pub fn run(&mut self, requests: Vec<HostRequest>) -> Result<RunResult, PvaError> {
        // Validate the whole batch before accepting any of it.
        for r in &requests {
            if r.vector().length() > self.config.line_words {
                return Err(PvaError::VectorTooLong(
                    r.vector().length(),
                    self.config.line_words,
                ));
            }
            if let HostRequest::Write { vector, data } = r {
                if data.len() as u64 != vector.length() {
                    return Err(PvaError::WriteLineMismatch {
                        expected: vector.length(),
                        got: data.len() as u64,
                    });
                }
            }
        }
        for r in requests {
            self.submit(r)?;
        }
        let start = self.now;
        self.drive(u64::MAX)?;
        self.completions.sort_by_key(|c| c.request_index);
        Ok(RunResult {
            cycles: self.now - start,
            completions: std::mem::take(&mut self.completions),
            stats: self.stats,
            bc_stats: self.bcs.iter().map(|bc| *bc.stats()).collect(),
            sdram: self.sdram_stats(),
        })
    }

    /// Summed SDRAM device statistics across every bank controller.
    pub fn sdram_stats(&self) -> SdramStats {
        let mut total = SdramStats::default();
        for bc in &self.bcs {
            total.merge(bc.device().stats());
        }
        total
    }

    /// Bus-level statistics accumulated so far (incremental API;
    /// [`PvaUnit::run`] returns a snapshot in its [`RunResult`]).
    pub const fn stats(&self) -> &UnitStats {
        &self.stats
    }

    /// Per-bank-controller statistics accumulated so far.
    pub fn bc_stats(&self) -> Vec<BcStats> {
        self.bcs.iter().map(|bc| *bc.stats()).collect()
    }

    /// How the event-driven fast path spent its time, cumulative over
    /// every [`run`](PvaUnit::run)/[`run_until`](PvaUnit::run_until)
    /// call on this unit. All-zero when the reference stepper ran
    /// (`fast_sim` off).
    pub const fn event_stats(&self) -> &EventStats {
        &self.event_stats
    }

    /// Advances the unit until all submitted work completes **or** the
    /// global clock reaches `deadline`, whichever comes first — the
    /// batched form of [`step`](PvaUnit::step) that lets the fast path
    /// jump idle stretches instead of ticking through them. Returns
    /// whether the unit fully drained. Completions accumulate for
    /// [`take_completions`](PvaUnit::take_completions).
    ///
    /// # Errors
    ///
    /// Returns [`PvaError::Watchdog`] exactly as
    /// [`run`](PvaUnit::run) would, at the identical cycle — the
    /// deadline only bounds time, it never masks a hang that fires
    /// within it.
    pub fn run_until(&mut self, deadline: u64) -> Result<bool, PvaError> {
        self.drive(deadline)?;
        Ok(self.idle())
    }

    /// Advances until idle or `deadline`: serially (reference model) or
    /// via the event loop (`fast_sim`).
    fn drive(&mut self, deadline: u64) -> Result<(), PvaError> {
        if !self.config.fast_sim {
            while !self.idle() && self.now < deadline {
                self.step_inner()?;
            }
            return Ok(());
        }
        self.run_events(deadline)
    }

    /// Enqueues one host request without advancing time — the
    /// incremental half of the API, for callers (CPU models,
    /// memory-controller front ends) that interleave their own work with
    /// the memory system. Returns the request's submission index.
    ///
    /// # Errors
    ///
    /// Returns [`PvaError::VectorTooLong`] if the request exceeds the
    /// hardware line length, or [`PvaError::WriteLineMismatch`] if a
    /// write's data is not one word per element.
    pub fn submit(&mut self, request: HostRequest) -> Result<usize, PvaError> {
        if request.vector().length() > self.config.line_words {
            return Err(PvaError::VectorTooLong(
                request.vector().length(),
                self.config.line_words,
            ));
        }
        if let HostRequest::Write { vector, data } = &request {
            if data.len() as u64 != vector.length() {
                return Err(PvaError::WriteLineMismatch {
                    expected: vector.length(),
                    got: data.len() as u64,
                });
            }
        }
        let index = self.total_requests;
        self.pending.push_back((index, request));
        self.total_requests += 1;
        Ok(index)
    }

    /// Advances the unit one clock cycle (incremental API).
    ///
    /// # Errors
    ///
    /// Returns [`PvaError::Watchdog`] if no transaction has made forward
    /// progress for [`PvaConfig::watchdog_cycles`] cycles while work is
    /// outstanding — the simulation aborts instead of hanging. Disabled
    /// when `watchdog_cycles` is 0.
    pub fn step(&mut self) -> Result<(), PvaError> {
        self.step_inner().map(|_| ())
    }

    /// [`step`](PvaUnit::step), additionally reporting whether the
    /// cycle changed any state beyond pure counter advancement.
    fn step_inner(&mut self) -> Result<bool, PvaError> {
        let did_work = self.tick();
        self.watchdog_check()?;
        Ok(did_work)
    }

    /// Post-tick watchdog bookkeeping, shared by the serial stepper and
    /// the event loop: tracks the progress fingerprint and aborts when
    /// nothing has moved for [`PvaConfig::watchdog_cycles`] cycles.
    fn watchdog_check(&mut self) -> Result<(), PvaError> {
        if self.config.watchdog_cycles == 0 || self.idle() {
            self.last_progress = self.now;
            self.progress_mark = self.progress_fingerprint();
            return Ok(());
        }
        let mark = self.progress_fingerprint();
        if mark != self.progress_mark {
            self.progress_mark = mark;
            self.last_progress = self.now;
        } else if self.now - self.last_progress >= self.config.watchdog_cycles {
            return Err(PvaError::Watchdog {
                cycle: self.now,
                stalled_txns: self.txns.open_count(),
            });
        }
        Ok(())
    }

    /// Earliest cycle the front end (bus + transaction table) does
    /// non-counter work without any bank controller acting first, given
    /// the current cycle has not yet executed. `Some(now)` when the bus
    /// has a broadcast, staging grant, or request acceptance to perform
    /// this very cycle; `Some(later)` when the bus is mid-transfer —
    /// the intermediate data beats are pure counter advancement and
    /// only the final beat (transaction close / `VEC_WRITE` hand-off)
    /// changes state; `None` when the front end is blocked until a
    /// controller deposits. Front-end state only changes at executed
    /// cycles, so the event loop may jump the gaps this exposes.
    fn front_wake(&self) -> Option<u64> {
        match self.bus {
            BusActivity::Staging { cycles_left, .. } => Some(self.now + cycles_left - 1),
            BusActivity::Idle => {
                if !self.write_broadcasts.is_empty()
                    || self.ready_reads > 0
                    || (!self.pending.is_empty()
                        && self.txns.open_count() < self.config.transaction_ids)
                {
                    Some(self.now)
                } else {
                    None
                }
            }
        }
    }

    /// The event-driven fast path: instead of ticking every component
    /// every cycle, executes only cycles where the front end is live or
    /// a bank controller is due, and bulk-advances across the provably
    /// idle gaps. Cycle-exact with the reference stepper by
    /// construction:
    ///
    /// * every controller tick reports the earliest cycle the
    ///   controller could act again ([`BankController::wake_hint`]);
    ///   every cycle before it replays the same no-op;
    /// * a broadcast re-arms the controllers it hits at the first cycle
    ///   the new entry can make them act: the broadcast cycle itself
    ///   when its address still needs the FHC (the reference model
    ///   starts the multiply-add that same tick), else the cycle it
    ///   becomes injectable;
    /// * skipped cycles advance only the pure counters — cycle/idle
    ///   stats here, device clocks and restimers lazily per controller
    ///   on its next wake;
    /// * jumps are clamped so a pending watchdog fires at the identical
    ///   cycle, and to `deadline` for bounded runs.
    fn run_events(&mut self, deadline: u64) -> Result<(), PvaError> {
        // Arm every controller for the current cycle: the first
        // executed cycle ticks them all exactly like the reference
        // model, and their wake hints take over from there.
        self.sched.reset(self.bcs.len());
        self.bc_clock.clear();
        self.bc_clock.resize(self.bcs.len(), self.now);
        for b in 0..self.bcs.len() {
            self.sched.wake(b, self.now);
        }
        while !self.idle() && self.now < deadline {
            // Busy-stretch fast path: a controller re-woken at `t + 1`
            // during the last executed cycle is due *now*, so the
            // earliest event is the current cycle and the jump logic
            // below could only ever produce a zero-length skip. The
            // watchdog needs no clamp either — it only bounds jumps,
            // and `exec_cycle` runs its per-cycle check regardless.
            if self.sched.has_due_next(self.now) {
                self.exec_cycle()?;
                continue;
            }
            let candidate = match (self.front_wake(), self.sched.next_event()) {
                (Some(f), Some(e)) => Some(f.min(e)),
                (Some(f), None) => Some(f),
                (None, Some(e)) => Some(e),
                (None, None) => None,
            };
            let mut target = match candidate {
                Some(c) => c,
                // Every controller is parked and the front end is
                // blocked, yet work is outstanding: a genuine stall.
                // Jump straight to the watchdog's firing cycle (or
                // crawl, matching the reference hang, when disabled).
                None if self.config.watchdog_cycles == 0 => self.now,
                None => {
                    self.last_progress
                        .saturating_add(self.config.watchdog_cycles)
                        - 1
                }
            };
            if self.config.watchdog_cycles > 0 {
                // The reference fires at the first post-tick cycle with
                // now - last_progress >= watchdog_cycles; never jump
                // past the cycle whose execution reaches it.
                target = target.min(
                    self.last_progress
                        .saturating_add(self.config.watchdog_cycles)
                        - 1,
                );
            }
            if target >= deadline {
                // Nothing can happen before the deadline: skip to it.
                #[cfg(debug_assertions)]
                self.assert_wake_sound(deadline);
                self.skip_to(deadline);
                break;
            }
            #[cfg(debug_assertions)]
            self.assert_wake_sound(target);
            self.skip_to(target);
            self.exec_cycle()?;
        }
        // Re-align every lazily-skipped controller with the unit clock
        // so the incremental API (`step`) and later batched calls see a
        // uniform time base, and disarm the queue (broadcasts issued
        // through `step` must not touch it).
        for (bc, clock) in self.bcs.iter_mut().zip(&mut self.bc_clock) {
            let lag = self.now - *clock;
            if lag > 0 {
                bc.advance(lag);
            }
            *clock = self.now;
        }
        self.sched.reset(0);
        Ok(())
    }

    /// Bulk-advances the unit clock to `target` without executing the
    /// intervening cycles. Each one would have been either an idle bus
    /// arbitration or an intermediate staging data beat, plus a no-op
    /// tick in every controller; controller clocks catch up lazily at
    /// their next wake.
    fn skip_to(&mut self, target: u64) {
        let gap = target - self.now;
        if gap == 0 {
            return;
        }
        self.stats.cycles += gap;
        if let BusActivity::Staging { cycles_left, .. } = &mut self.bus {
            // Mid-transfer beats: move the beat counter in bulk. The
            // final beat does real work, so the jump never covers it.
            debug_assert!(gap < *cycles_left, "the closing beat must execute");
            *cycles_left -= gap;
            self.stats.data_cycles += gap;
        } else {
            self.stats.idle_cycles += gap;
        }
        self.now = target;
        self.event_stats.skipped_cycles += gap;
        self.event_stats.record_jump(gap);
    }

    /// Debug-build wake-hint soundness oracle: before every jump the
    /// event loop is about to take, prove — by brute force — that the
    /// skipped window really is dead time for every bank controller.
    ///
    /// For each controller, the window `[bc_clock[b], target)` is the
    /// stretch its hint claimed nothing happens in. The oracle clones
    /// the controller (and the transaction table) and replays the
    /// window cycle-by-cycle, then compares against a second clone that
    /// takes the same bulk `advance` the lazy catch-up path will take:
    /// identical controller and device statistics, and an untouched
    /// transaction table, mean every replayed tick was the no-op the
    /// hint promised. A `compute_wake` source that forgets a wake
    /// condition (a stale row-timer bound, a dropped read-return check)
    /// trips these assertions on the first sweep that crosses it.
    ///
    /// This is the dynamic half of the `pva-analysis` wake-hint pass:
    /// the static pass checks that every trigger in the controller has
    /// a matching source in `compute_wake`; this oracle checks that the
    /// computed cycle itself is never too late.
    #[cfg(debug_assertions)]
    fn assert_wake_sound(&self, target: u64) {
        for (b, bc) in self.bcs.iter().enumerate() {
            let from = self.bc_clock[b];
            if target <= from {
                continue;
            }
            let mut ticked = bc.clone();
            let mut txns = self.txns.clone();
            for t in from..target {
                ticked.tick(t, &mut txns);
            }
            let mut advanced = bc.clone();
            advanced.advance(target - from);
            assert_eq!(
                ticked.stats(),
                advanced.stats(),
                "bank controller {b}: cycle-by-cycle replay of {from}..{target} diverged \
                 from the bulk advance — compute_wake returned an unsound hint"
            );
            assert_eq!(
                ticked.device().stats(),
                advanced.device().stats(),
                "bank controller {b}: device activity inside the skipped window \
                 {from}..{target} — compute_wake returned an unsound hint"
            );
            assert_eq!(
                txns.progress_counters(),
                self.txns.progress_counters(),
                "bank controller {b}: transaction progress inside the skipped window \
                 {from}..{target} — compute_wake returned an unsound hint"
            );
            assert_eq!(
                txns.open_count(),
                self.txns.open_count(),
                "bank controller {b}: transaction opened/closed inside the skipped window \
                 {from}..{target} — compute_wake returned an unsound hint"
            );
        }
    }

    /// Executes one full cycle of the event loop: bus arbitration, all
    /// due bank controllers (in index order, like the reference), and
    /// transaction bookkeeping, then reschedules each ticked controller
    /// from its outcome.
    fn exec_cycle(&mut self) -> Result<(), PvaError> {
        let t = self.now;
        // A broadcast inside bus_step may wake a hit controller at `t`,
        // so it is drained below within this same cycle.
        self.bus_step();
        let mut bc_work = false;
        // One batched drain: controller ticks never wake another
        // controller at the same cycle (hints clamp to `now + 1`;
        // broadcasts happen in `bus_step` above), so the due set is
        // fixed before the first tick runs.
        let mut due = std::mem::take(&mut self.due_scratch);
        self.sched.drain_due(t, &mut due);
        self.event_stats.events_popped += due.len() as u64;
        for &b in &due {
            let b = b as usize;
            let lag = t - self.bc_clock[b];
            if lag > 0 {
                self.bcs[b].advance(lag);
            }
            self.bc_clock[b] = t + 1;
            let worked = self.bcs[b].tick(t, &mut self.txns);
            bc_work |= worked;
            if !worked {
                self.event_stats.idle_ticks += 1;
            }
            // Every tick publishes its hint; no hint means nothing to
            // do, parked until a broadcast re-arms it.
            if let Some(w) = self.bcs[b].wake_hint() {
                self.sched.wake(b, w);
            }
        }
        self.due_scratch = due;
        // Phase transitions require a deposit or commit this very cycle
        // (they happen the cycle the last element lands), and every
        // deposit/commit marks its controller's tick as work — no
        // controller work means the scan is provably empty.
        if bc_work {
            self.finish_transactions();
        }
        self.stats.cycles += 1;
        self.now += 1;
        self.event_stats.executed_cycles += 1;
        self.watchdog_check()
    }

    /// A change in this tuple is what the watchdog counts as forward
    /// progress: requests draining, transactions opening/closing, or
    /// elements being gathered/committed. Deliberately excludes raw
    /// SDRAM command counts — an unrecoverable retry loop issues reads
    /// forever without ever completing anything.
    fn progress_fingerprint(&self) -> (usize, usize, u64) {
        if self.config.fast_sim {
            // O(1) form of the scan below, from the transaction table's
            // incrementally-maintained counters (asserted equal to a
            // fresh scan in debug builds). The reference model keeps
            // the per-cycle walk as the baseline cost.
            let (open, moved) = self.txns.progress_counters();
            let outstanding = self.pending.len() + open + self.write_broadcasts.len();
            return (outstanding, open, moved);
        }
        let moved: u64 = self
            .txns
            .iter_open()
            .map(|(_, t)| t.collected_count + t.committed_count)
            .sum();
        (self.outstanding(), self.txns.open_count(), moved)
    }

    /// Whether all submitted work has fully completed.
    pub fn idle(&self) -> bool {
        self.pending.is_empty()
            && self.txns.open_count() == 0
            && self.write_broadcasts.is_empty()
            && self.bus == BusActivity::Idle
    }

    /// Number of requests accepted but not yet completed.
    pub fn outstanding(&self) -> usize {
        self.pending.len() + self.txns.open_count() + self.write_broadcasts.len()
    }

    /// Drains completion records accumulated so far (incremental API;
    /// [`PvaUnit::run`] drains them itself).
    pub fn take_completions(&mut self) -> Vec<Completion> {
        let mut out = std::mem::take(&mut self.completions);
        out.sort_by_key(|c| c.request_index);
        out
    }

    /// Advances the whole unit one cycle. Returns whether any component
    /// (bus, bank controller, transaction table) changed state beyond
    /// pure counter advancement.
    fn tick(&mut self) -> bool {
        let mut work = self.bus_step();
        for bc in &mut self.bcs {
            work |= bc.tick(self.now, &mut self.txns);
        }
        work |= self.finish_transactions();
        self.stats.cycles += 1;
        self.now += 1;
        work
    }

    /// One vector-bus arbitration step. Returns `false` only when the
    /// bus idled with nothing to broadcast, stage, or accept.
    fn bus_step(&mut self) -> bool {
        match self.bus {
            BusActivity::Staging {
                txn,
                kind,
                cycles_left,
            } => {
                self.stats.data_cycles += 1;
                let left = cycles_left - 1;
                if left > 0 {
                    self.bus = BusActivity::Staging {
                        txn,
                        kind,
                        cycles_left: left,
                    };
                    return true;
                }
                self.bus = BusActivity::Idle;
                match kind {
                    OpKind::Read => {
                        // STAGE_READ done: line delivered to the host.
                        let t = self.txns.close(txn);
                        self.vectors[txn.0 as usize] = None;
                        if self.config.record_trace {
                            self.events.push(TraceEvent::Completed {
                                cycle: self.now,
                                txn,
                                request_index: t.request_index,
                            });
                        }
                        let line = t.line();
                        self.completions.push(Completion {
                            request_index: t.request_index,
                            issued_at: t.issued_at,
                            completed_at: self.now,
                            data: Some(line),
                            faulted: t.faulted,
                        });
                    }
                    OpKind::Write => {
                        // STAGE_WRITE done: broadcast VEC_WRITE next.
                        self.write_broadcasts.push_back(txn);
                    }
                }
                true
            }
            BusActivity::Idle => {
                // Priority 1: broadcast a staged write's VEC_WRITE.
                if let Some(txn) = self.write_broadcasts.pop_front() {
                    self.broadcast(txn);
                    return true;
                }
                // Priority 2: stage a completed read (drains txn ids).
                // The fast path proves the scan empty from the
                // ready-read counter; the reference model walks the
                // table every idle-bus cycle.
                let ready = if self.config.fast_sim && self.ready_reads == 0 {
                    debug_assert!(!self
                        .txns
                        .iter_open()
                        .any(|(_, t)| t.kind == OpKind::Read && t.phase == TxnPhase::ReadyToStage));
                    None
                } else {
                    self.txns
                        .iter_open()
                        .filter(|(_, t)| {
                            t.kind == OpKind::Read && t.phase == TxnPhase::ReadyToStage
                        })
                        .min_by_key(|(_, t)| t.issued_at)
                        .map(|(id, t)| (id, t.length))
                };
                if let Some((id, len)) = ready {
                    self.ready_reads -= 1;
                    self.txns.get_mut(id).expect("open").phase = TxnPhase::Staging;
                    if self.config.record_trace {
                        self.events.push(TraceEvent::StageStart {
                            cycle: self.now,
                            txn: id,
                            kind: OpKind::Read,
                        });
                    }
                    self.bus = BusActivity::Staging {
                        txn: id,
                        kind: OpKind::Read,
                        // pva-lint: allow(nonconst-div): stage_words_per_cycle is a power of two by config validation (bus width); a shift
                        cycles_left: len.div_ceil(self.config.stage_words_per_cycle),
                    };
                    // This cycle already carries the first data beat.
                    self.bus_step();
                    return true;
                }
                // Priority 3: accept the next host request (the
                // pending check first: it is free, while the free-slot
                // scan walks the table).
                if !self.pending.is_empty() {
                    if let Some(free) = self.txns.free_id() {
                        let (index, req) = self.pending.pop_front().expect("non-empty");
                        match req {
                            HostRequest::Read { vector } => {
                                self.txns.open(
                                    free,
                                    Transaction {
                                        kind: OpKind::Read,
                                        length: vector.length(),
                                        request_index: index,
                                        issued_at: self.now,
                                        collected: vec![None; vector.length() as usize],
                                        collected_count: 0,
                                        committed_count: 0,
                                        write_line: None,
                                        faulted: Vec::new(),
                                        phase: TxnPhase::InBanks,
                                    },
                                );
                                self.open_vector(free, vector, OpKind::Read);
                                self.broadcast(free);
                            }
                            HostRequest::Write { vector, data } => {
                                let line = Arc::new(data);
                                self.txns.open(
                                    free,
                                    Transaction {
                                        kind: OpKind::Write,
                                        length: vector.length(),
                                        request_index: index,
                                        issued_at: self.now,
                                        collected: Vec::new(),
                                        collected_count: 0,
                                        committed_count: 0,
                                        write_line: Some(line),
                                        faulted: Vec::new(),
                                        phase: TxnPhase::InBanks,
                                    },
                                );
                                self.open_vector(free, vector, OpKind::Write);
                                // STAGE_WRITE first (§5.2.6), then the
                                // VEC_WRITE broadcast.
                                if self.config.record_trace {
                                    self.events.push(TraceEvent::StageStart {
                                        cycle: self.now,
                                        txn: free,
                                        kind: OpKind::Write,
                                    });
                                }
                                self.bus = BusActivity::Staging {
                                    txn: free,
                                    kind: OpKind::Write,
                                    cycles_left: vector
                                        .length()
                                        // pva-lint: allow(nonconst-div): stage_words_per_cycle is a power of two by config validation (bus width); a shift
                                        .div_ceil(self.config.stage_words_per_cycle),
                                };
                                self.stats.data_cycles += 1;
                                if let BusActivity::Staging { cycles_left, .. } = &mut self.bus {
                                    *cycles_left -= 1;
                                    if *cycles_left == 0 {
                                        self.bus = BusActivity::Idle;
                                        self.write_broadcasts.push_back(free);
                                    }
                                }
                            }
                        }
                        return true;
                    }
                }
                self.stats.idle_cycles += 1;
                false
            }
        }
    }

    /// Remembers the vector of a transaction for its later broadcast.
    fn open_vector(&mut self, id: TxnId, vector: pva_core::Vector, kind: OpKind) {
        // Vectors are stored alongside the transaction via a side table
        // keyed by id (simple because ids are small).
        self.vectors[id.0 as usize] = Some((vector, kind));
    }

    /// Broadcasts the command for transaction `id` to every bank
    /// controller (one request cycle).
    fn broadcast(&mut self, id: TxnId) {
        let (vector, kind) = self.vectors[id.0 as usize].expect("vector recorded at open");
        let cmd = VectorCommand {
            vector,
            kind,
            txn: id,
        };
        let line = self.txns.get(id).and_then(|t| t.write_line.clone());
        let txn = self.txns.get_mut(id).expect("open transaction");
        txn.issued_at = self.now;
        if self.config.record_trace {
            self.events.push(TraceEvent::Broadcast {
                cycle: self.now,
                txn: id,
                vector,
                kind,
            });
        }
        let mut covered = 0;
        for (b, bc) in self.bcs.iter_mut().enumerate() {
            let served = bc.observe_command(&cmd, line.clone(), self.now);
            covered += served;
            if served > 0 {
                // Re-arm the hit controller at the first cycle the new
                // entry can make it act (no-op when the loop is not
                // running — the queue is disarmed).
                self.sched.wake_if_armed(b, bc.broadcast_wake(self.now));
            }
        }
        debug_assert_eq!(covered, vector.length(), "banks must cover the vector");
        self.stats.request_cycles += 1;
        self.stats.commands += 1;
    }

    /// Moves transactions whose banks finished into their next phase and
    /// completes writes. Returns whether any transaction moved.
    fn finish_transactions(&mut self) -> bool {
        // The fast path proves the scan empty from the banks-done
        // counter; the reference model walks the table every cycle.
        if self.config.fast_sim && self.txns.banks_done_count() == 0 {
            debug_assert!(!self
                .txns
                .iter_open()
                .any(|(_, t)| t.phase == TxnPhase::InBanks && t.banks_done()));
            return false;
        }
        // The fast path keeps the buffer's capacity across cycles; the
        // reference path reallocates each call.
        let mut done = std::mem::take(&mut self.finish_scratch);
        done.clear();
        done.extend(
            self.txns
                .iter_open()
                .filter(|(_, t)| t.phase == TxnPhase::InBanks && t.banks_done())
                .map(|(id, t)| (id, t.kind)),
        );
        let moved = !done.is_empty();
        self.txns.consume_banks_done(done.len());
        for &(id, kind) in &done {
            match kind {
                OpKind::Read => {
                    self.txns.get_mut(id).expect("open").phase = TxnPhase::ReadyToStage;
                    self.ready_reads += 1;
                }
                OpKind::Write => {
                    // Transaction-complete line deasserts: data committed.
                    let t = self.txns.close(id);
                    if self.config.record_trace {
                        self.events.push(TraceEvent::Completed {
                            cycle: self.now,
                            txn: id,
                            request_index: t.request_index,
                        });
                    }
                    self.completions.push(Completion {
                        request_index: t.request_index,
                        issued_at: t.issued_at,
                        completed_at: self.now,
                        data: None,
                        faulted: Vec::new(),
                    });
                    self.vectors[id.0 as usize] = None;
                }
            }
        }
        if self.config.fast_sim {
            self.finish_scratch = done;
        }
        moved
    }
}
