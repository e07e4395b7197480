//! The Bank Controller (BC) of §5.2.2, one per external SDRAM bank.
//!
//! Subcomponents, mirroring Figure 6 of the paper:
//!
//! * **FirstHit Predict (FHP)** — watches vector commands broadcast on
//!   the BC bus, decides hit/miss for this bank via the PLA tables, and
//!   for power-of-two strides computes the first-hit address immediately
//!   (1 cycle).
//! * **Request FIFO / Register File (RQF/RF)** — queues hits awaiting
//!   service; as many entries as outstanding bus transactions.
//! * **FirstHit Calculate (FHC)** — the 2-cycle multiply-add that
//!   finishes address calculation for non-power-of-two strides, working
//!   in parallel with the scheduler.
//! * **Access Scheduler (SCHED)** with **Vector Contexts (VCs)** and
//!   **Scheduling Policy Units (SPUs)** — expands each request's address
//!   series by shift-and-add, reorders row activates / precharges /
//!   reads / writes across contexts (oldest first, daisy-chained), and
//!   drives the SDRAM.
//! * **Staging** — gathered read data is deposited into the shared
//!   [`TransactionTable`] (the model of the wired-OR
//!   transaction-complete lines); write data is pulled from the
//!   broadcast line buffer.
//!
//! Bypass paths (§5.2.3), the bus-polarity rule (§5.2.4), restimer-
//! enforced SDRAM timing (§5.2.5) and the row-management heuristic are
//! all modelled; each is switchable for the ablation benches.

use std::collections::VecDeque;
use std::sync::Arc;

use pva_core::{BankId, FastMap, FirstHit, K1Pla, LogicalView};
use sdram::{CmdClass, InternalAddr, Sdram, SdramCmd};

use crate::command::{OpKind, TxnId, VectorCommand};
use crate::config::{PvaConfig, RowPolicy};
use crate::trace_log::TraceEvent;
use crate::txn::TransactionTable;

/// Encodes (transaction, element index) into an SDRAM read tag.
fn tag_of(txn: TxnId, element: u64) -> u64 {
    ((txn.0 as u64) << 40) | element
}

/// Decodes an SDRAM read tag.
fn untag(tag: u64) -> (TxnId, u64) {
    (TxnId((tag >> 40) as u8), tag & ((1 << 40) - 1))
}

/// Row-address bit set on rows remapped away from a hard-failed
/// internal bank, so they cannot collide with the spare bank's own
/// rows (device row addresses are untruncated 64-bit values; real
/// hardware would burn one spare-region row bit the same way).
const REMAP_ROW_BIT: u64 = 1 << 40;

/// Cap on the exponential retry-backoff shift (`backoff << attempts`),
/// keeping the delay bounded and overflow-free.
const MAX_BACKOFF_SHIFT: u32 = 10;

/// Longest element run one CAS burst may cover (BL8 is the longest
/// burst any shipped generation declares); bounds the stack buffer the
/// scheduler assembles burst items in.
const MAX_COALESCE: usize = 8;

/// A poisoned read awaiting re-issue: the element is re-expanded as a
/// one-element vector context once `not_before` passes.
#[derive(Debug, Clone, Copy)]
struct PendingRetry {
    txn: TxnId,
    element: u64,
    addr: u64,
    /// Earliest cycle the retry may re-enter a vector context.
    not_before: u64,
}

/// The bank's first-hit logic: a single PLA for word interleave, or
/// the §4.1.3/§4.3.1 arrangement of `N` logical-bank copies for block
/// interleave ("replicating the FirstHit logic N times in each bank
/// controller").
#[derive(Debug, Clone)]
enum HitLogic {
    /// Word-interleaved: one K1 PLA, shift-and-add expansion.
    Word(Arc<K1Pla>),
    /// Block-interleaved: N logical first-hit units whose sorted merge
    /// gives this bank's element indices.
    Logical(Arc<LogicalView>),
}

/// A register-file entry: a vector request that hit this bank, plus its
/// address-calculation state (the ACC flag of §5.2.2).
#[derive(Debug, Clone)]
struct RfEntry {
    cmd: VectorCommand,
    /// First element index this bank holds.
    first_index: u64,
    /// Element-index step between this bank's elements (Theorem 4.4).
    index_delta: u64,
    /// First-hit word address; meaningful once `addr_ready`.
    first_addr: u64,
    /// The ACC flag: address calculation complete.
    addr_ready: bool,
    /// FHC multiply-add cycles remaining when `!addr_ready`.
    fhc_cycles_left: u32,
    /// Earliest cycle the scheduler may consume this entry (models FHP /
    /// FIFO / bypass latencies).
    injectable_at: u64,
    /// Dense line to scatter, for writes.
    write_line: Option<Arc<Vec<u64>>>,
    /// Block-interleave only: the merged element-index list of this
    /// bank's N logical first-hit units.
    indices: Option<Arc<Vec<u64>>>,
}

/// A vector context: one request being actively expanded against the
/// SDRAM.
#[derive(Debug, Clone)]
struct VectorContext {
    txn: TxnId,
    kind: OpKind,
    /// Current global word address.
    addr: u64,
    /// Address step per element served: `V.S << (m - s)` (§4.2 step 7).
    addr_step: u64,
    /// Current element index within the vector.
    element: u64,
    /// Element-index step.
    index_delta: u64,
    /// Elements remaining for this bank (including the current one).
    remaining: u64,
    /// Whether the very first operation of this context has issued yet
    /// (drives the autoprecharge predictor).
    first_op_done: bool,
    write_line: Option<Arc<Vec<u64>>>,
    /// Block-interleave only: explicit index list plus cursor (the
    /// hardware holds N per-logical-bank shift-and-add units instead).
    indices: Option<Arc<Vec<u64>>>,
    pos: usize,
    /// Vector base and stride, for index-list address generation.
    base: u64,
    stride: u64,
    /// Cached internal-bank/row/column of `addr` (post-remap). The
    /// mapping inputs are fixed per run (geometry, interleave, the
    /// configured hard-failed bank), so this only changes when `addr`
    /// does — maintained at context creation and element advance, and
    /// asserted against a fresh mapping in debug builds.
    target: (u32, u64, u64),
}

/// Per-bank-controller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BcStats {
    /// Commands this bank hit on.
    pub requests_queued: u64,
    /// Elements read from SDRAM.
    pub elements_read: u64,
    /// Elements written to SDRAM.
    pub elements_written: u64,
    /// Bus turnaround (polarity-reversal) stalls.
    pub turnarounds: u64,
    /// Cycles at least one VC was occupied.
    pub busy_cycles: u64,
    /// CAS commands (single words or coalesced bursts) that left their
    /// row open for the issuing context's own next element — the
    /// scheduler's row-buffer hits, counted once per issued CAS. A
    /// blocked access that observes its open row counts nothing until
    /// its CAS is accepted.
    pub row_hits: u64,
    /// Activates issued (row opens).
    pub activates: u64,
    /// Poisoned reads re-issued (bounded retry with backoff).
    pub read_retries: u64,
    /// Elements whose retries were exhausted and whose (bad) data was
    /// deposited flagged instead.
    pub retries_exhausted: u64,
    /// Accesses remapped away from a hard-failed internal bank into its
    /// spare (graceful degradation).
    pub remapped_accesses: u64,
    /// CAS commands whose bank group differed from the previous CAS on
    /// this channel (the short tCCD_S gate applied instead of tCCD_L).
    /// Always 0 on 1-group parts.
    pub group_switches: u64,
    /// CAS bursts that covered more than one element (BL4/BL8
    /// coalescing of adjacent same-row elements). Always 0 on
    /// burst-length-1 parts.
    pub coalesced_bursts: u64,
    /// Cycles phase A held ACTIVATEs back from the tFAW window's last
    /// free slot so a timing-legal CAS could issue instead. Always 0
    /// when tFAW is 0.
    pub deferred_activates: u64,
}

impl BcStats {
    /// Adds `other`'s counters into `self` — aggregation across the
    /// controllers of a multi-bank system.
    pub fn merge(&mut self, other: &BcStats) {
        self.requests_queued += other.requests_queued;
        self.elements_read += other.elements_read;
        self.elements_written += other.elements_written;
        self.turnarounds += other.turnarounds;
        self.busy_cycles += other.busy_cycles;
        self.row_hits += other.row_hits;
        self.activates += other.activates;
        self.read_retries += other.read_retries;
        self.retries_exhausted += other.retries_exhausted;
        self.remapped_accesses += other.remapped_accesses;
        self.group_switches += other.group_switches;
        self.coalesced_bursts += other.coalesced_bursts;
        self.deferred_activates += other.deferred_activates;
    }
}

/// One bank controller: parallelizing logic + scheduler + one SDRAM
/// device. `Clone` exists for the debug-build wake-soundness oracle,
/// which replays a cloned controller cycle-by-cycle across every
/// window the event loop is about to skip.
#[derive(Debug, Clone)]
pub struct BankController {
    bank: BankId,
    config: PvaConfig,
    hit_logic: HitLogic,
    fifo: VecDeque<RfEntry>,
    vcs: VecDeque<VectorContext>,
    device: Sdram,
    /// Last data-transfer direction on this bank's data bus.
    data_polarity: Option<OpKind>,
    /// Bank group of the last CAS accepted by this controller's device
    /// (`None` before the first). The generation-aware issue policy
    /// prefers CAS candidates from a *different* group, so the
    /// channel's short tCCD_S gate applies instead of tCCD_L.
    last_cas_group: Option<u32>,
    /// First cycle the scheduler may run again after a bus turnaround
    /// (a deadline, like the restimers: at or before the current cycle
    /// when no turnaround is in progress), so the dead cycles between
    /// need no per-cycle countdown.
    turnaround_until: u64,
    /// One-bit autoprecharge predictor per internal bank (§5.2.2).
    autoprecharge_predict: Vec<bool>,
    /// Last row that was open in each internal bank (survives closes).
    last_row: Vec<Option<u64>>,
    /// Four-bit hit/miss history per internal bank (Alpha 21174 style;
    /// only consulted under `RowPolicy::AlphaHistory`).
    row_history: Vec<u8>,
    stats: BcStats,
    /// Poisoned reads waiting out their backoff before re-issue.
    retries: Vec<PendingRetry>,
    /// Retry attempts so far per (transaction, element).
    retry_attempts: FastMap<(u8, u64), u32>,
    /// Base and stride of each observed vector command, kept while its
    /// transaction may still need element addresses recomputed for
    /// retries.
    vec_meta: FastMap<u8, (u64, u64)>,
    /// The earliest future cycle at which this controller could act, as
    /// of the end of the last [`tick`](BankController::tick) (`None` =
    /// nothing to do). Consumed by the unit's next-event fast path
    /// immediately after the tick.
    wake_hint: Option<u64>,
    /// Scratch for [`schedule`](BankController::schedule)'s per-VC
    /// target list (reused across cycles when `fast_sim` is on).
    targets_scratch: Vec<(u32, u64, u64)>,
    /// The issue window (VC indices the polarity rule lets read/write,
    /// oldest first), cached across cycles. Its inputs — the contexts'
    /// kinds and remaining address ranges, and the bus polarity —
    /// change only when a context is pushed, advanced or popped, or the
    /// polarity flips; each of those sites sets `window_stale`. Debug
    /// builds assert the cache against a fresh
    /// [`build_issue_window`](BankController::build_issue_window).
    window: Vec<usize>,
    /// Whether `window` must be rebuilt before its next use.
    window_stale: bool,
    /// FIFO entries still waiting on the FHC multiply-add; lets the
    /// fast path skip the per-cycle FIFO scan once all are ready.
    fhc_pending: usize,
    /// Trace events accumulated since the last drain (only populated
    /// when `config.record_trace`).
    events: Vec<TraceEvent>,
}

impl BankController {
    /// Creates the controller for `bank` on a word-interleaved system.
    pub fn new(bank: BankId, config: PvaConfig, pla: Arc<K1Pla>) -> Self {
        Self::with_hit_logic(bank, config, HitLogic::Word(pla))
    }

    /// Creates the controller for `bank` on a block-interleaved system:
    /// `N` copies of the first-hit logic per controller (§4.3.1).
    pub fn new_block_interleaved(bank: BankId, config: PvaConfig, view: Arc<LogicalView>) -> Self {
        Self::with_hit_logic(bank, config, HitLogic::Logical(view))
    }

    fn with_hit_logic(bank: BankId, config: PvaConfig, hit_logic: HitLogic) -> Self {
        let ib = config.sdram.total_row_buffers() as usize;
        let mut device = Sdram::new(config.sdram);
        // Each controller's device draws an independent (but seed-
        // reproducible) transient-fault stream.
        device.reseed_faults(bank.index() as u64 + 1);
        BankController {
            bank,
            config,
            hit_logic,
            fifo: VecDeque::new(),
            vcs: VecDeque::new(),
            device,
            data_polarity: None,
            last_cas_group: None,
            turnaround_until: 0,
            autoprecharge_predict: vec![false; ib],
            last_row: vec![None; ib],
            row_history: vec![0; ib],
            stats: BcStats::default(),
            retries: Vec::new(),
            retry_attempts: FastMap::default(),
            vec_meta: FastMap::default(),
            wake_hint: None,
            targets_scratch: Vec::new(),
            window: Vec::new(),
            window_stale: true,
            fhc_pending: 0,
            events: Vec::new(),
        }
    }

    /// Drains the accumulated trace events.
    pub fn drain_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Logs an SDRAM operation when tracing is enabled. The mnemonic
    /// comes from the shared [`CmdClass`] table, so the trace log, the
    /// VCD exporter and the device FSM can never drift apart.
    fn log_op(&mut self, op: CmdClass, internal_bank: u32, row: u64) {
        if self.config.record_trace {
            self.events.push(TraceEvent::BankOp {
                cycle: self.device.now(),
                bank: self.bank.index(),
                op: op.mnemonic(),
                internal_bank,
                row,
            });
        }
    }

    /// The bank this controller serves.
    pub const fn bank(&self) -> BankId {
        self.bank
    }

    /// Statistics so far.
    pub const fn stats(&self) -> &BcStats {
        &self.stats
    }

    /// The SDRAM device (for functional inspection in tests).
    pub const fn device(&self) -> &Sdram {
        &self.device
    }

    /// Mutable device access (test preloading).
    pub fn device_mut(&mut self) -> &mut Sdram {
        &mut self.device
    }

    /// Whether this controller has no queued or active work.
    pub fn idle(&self) -> bool {
        self.fifo.is_empty()
            && self.vcs.is_empty()
            && self.retries.is_empty()
            && !self.device.has_in_flight()
    }

    /// Stronger than [`idle`](BankController::idle): nothing queued AND
    /// the device itself is fully at rest, so a tick can only replay
    /// the same empty decision. (A bus turnaround in progress implies
    /// the context that started it is still waiting, so an empty
    /// context list covers it.)
    fn quiet(&self) -> bool {
        self.fifo.is_empty()
            && self.vcs.is_empty()
            && self.retries.is_empty()
            && self.device.quiet()
    }

    /// FHP: observes a vector command broadcast at cycle `now`. Returns
    /// the number of elements this bank will serve (0 = miss, request
    /// not queued).
    pub fn observe_command(
        &mut self,
        cmd: &VectorCommand,
        write_line: Option<Arc<Vec<u64>>>,
        now: u64,
    ) -> u64 {
        let v = &cmd.vector;
        // Remember the vector's base/stride so a poisoned element can be
        // re-expanded into a retry context later (recorded even on a
        // miss: the map is keyed by the 8-bit transaction id, so it
        // stays bounded).
        self.vec_meta.insert(cmd.txn.0, (v.base(), v.stride()));
        let (first, index_delta, count, indices) = match &self.hit_logic {
            HitLogic::Word(pla) => {
                let first = match pla.first_hit(v, self.bank) {
                    FirstHit::Hit(k) => k,
                    FirstHit::Miss => return 0,
                };
                let delta = pla.next_hit(v.stride());
                // pva-lint: allow(nonconst-div): delta = 2^(m-s) by Theorem 4.4; the hardware subvector counter shifts
                let count = (v.length() - first).div_ceil(delta);
                (first, delta, count, None)
            }
            HitLogic::Logical(view) => {
                let idx: Vec<u64> = view.subvector_indices(v, self.bank).collect();
                if idx.is_empty() {
                    return 0;
                }
                let first = idx[0];
                let count = idx.len() as u64;
                (first, 1, count, Some(Arc::new(idx)))
            }
        };
        let pow2 = v.stride().is_power_of_two();
        let bypass = self.config.options.bypass_paths
            && self.fifo.is_empty()
            && self.vcs.len() < self.config.vector_contexts;
        // Pipeline latencies (§5.2.3): FHP enqueues at the end of the
        // broadcast cycle. Power-of-two strides have their address ready
        // immediately; others wait for the FHC multiply-add. The bypass
        // paths save the FIFO write-back/dequeue cycle when the
        // controller is idle.
        let (addr_ready, fhc_left, injectable_at) = if pow2 {
            (true, 0, if bypass { now + 1 } else { now + 2 })
        } else {
            let fhc = self.config.fhc_latency;
            (
                false,
                fhc,
                if bypass {
                    now + 1 + fhc as u64
                } else {
                    now + 2 + fhc as u64
                },
            )
        };
        let first_addr = v.base() + v.stride() * first;
        self.fifo.push_back(RfEntry {
            cmd: *cmd,
            first_index: first,
            index_delta,
            first_addr,
            addr_ready,
            fhc_cycles_left: fhc_left,
            injectable_at,
            write_line,
            indices,
        });
        debug_assert!(
            self.fifo.len() <= self.config.request_fifo_entries,
            "register file sized to outstanding transactions can never overflow"
        );
        if !addr_ready {
            self.fhc_pending += 1;
        }
        self.stats.requests_queued += 1;
        count
    }

    /// Advances the controller one cycle: FHC progress, VC injection,
    /// SPU scheduling, SDRAM issue, data return. Returns whether the
    /// controller changed any state beyond pure counter advancement —
    /// `false` means the identical decision replays every cycle until
    /// the event reported by [`wake_hint`](BankController::wake_hint).
    pub fn tick(&mut self, now: u64, txns: &mut TransactionTable) -> bool {
        // Fully idle controllers dominate single-bank strides (15 of 16
        // every cycle on stride 16). With nothing queued and the device
        // at rest the full tick below is provably a no-op, so only the
        // clock and the wake hint need maintaining.
        if self.config.fast_sim && self.quiet() {
            self.wake_hint = self.compute_wake(now, false);
            self.device.tick();
            return false;
        }

        let mut did_work = false;

        // 1. Return data that reached the pins this cycle. Poisoned
        //    words (ECC-uncorrectable or hard-failed bank) are retried
        //    with exponential backoff up to the configured bound, then
        //    deposited flagged so the transaction still completes.
        if self.config.fast_sim {
            while let Some(ready) = self.device.pop_ready() {
                self.handle_ready(ready, now, txns);
                did_work = true;
            }
        } else {
            for ready in self.device.take_ready_data() {
                self.handle_ready(ready, now, txns);
                did_work = true;
            }
        }

        // 2. FHC: one multiply-add in flight at a time, oldest first
        //    (the workptr scan of §5.2.2), overlapped with scheduling.
        //    The pending count proves the scan empty without walking
        //    the FIFO (the fast path skips it; the reference model
        //    keeps the per-cycle scan).
        if self.fhc_pending > 0 || !self.config.fast_sim {
            if let Some(entry) = self.fifo.iter_mut().find(|e| !e.addr_ready) {
                entry.fhc_cycles_left = entry.fhc_cycles_left.saturating_sub(1);
                if entry.fhc_cycles_left == 0 {
                    entry.addr_ready = true;
                    self.fhc_pending -= 1;
                }
                did_work = true;
            }
        }

        // 3a. Re-inject one due retry as a single-element vector context
        //     (retries take priority over fresh requests: they hold up a
        //     transaction that is otherwise nearly complete).
        if self.vcs.len() < self.config.vector_contexts {
            if let Some(pos) = self.retries.iter().position(|r| r.not_before <= now) {
                let r = self.retries.swap_remove(pos);
                let target = self.target_of_addr(r.addr);
                self.vcs.push_back(VectorContext {
                    txn: r.txn,
                    kind: OpKind::Read,
                    addr: r.addr,
                    addr_step: 0,
                    element: r.element,
                    index_delta: 0,
                    remaining: 1,
                    first_op_done: false,
                    write_line: None,
                    indices: None,
                    pos: 0,
                    base: 0,
                    stride: 0,
                    target,
                });
                self.window_stale = true;
                did_work = true;
            }
        }

        // 3b. Inject the FIFO head into a free vector context (in order).
        if self.vcs.len() < self.config.vector_contexts {
            let consumable = self
                .fifo
                .front()
                .is_some_and(|e| e.addr_ready && e.injectable_at <= now);
            if consumable {
                let e = self.fifo.pop_front().expect("head exists");
                let v = e.cmd.vector;
                let remaining = match &e.indices {
                    Some(idx) => idx.len() as u64,
                    // pva-lint: allow(nonconst-div): index_delta = 2^(m-s) by Theorem 4.4; a shift in hardware
                    None => (v.length() - e.first_index).div_ceil(e.index_delta),
                };
                let target = self.target_of_addr(e.first_addr);
                self.vcs.push_back(VectorContext {
                    txn: e.cmd.txn,
                    kind: e.cmd.kind,
                    addr: e.first_addr,
                    addr_step: v.stride() * e.index_delta,
                    element: e.first_index,
                    index_delta: e.index_delta,
                    remaining,
                    first_op_done: false,
                    write_line: e.write_line,
                    indices: e.indices,
                    pos: 0,
                    base: v.base(),
                    stride: v.stride(),
                    target,
                });
                self.window_stale = true;
                did_work = true;
            }
        }

        if !self.vcs.is_empty() {
            self.stats.busy_cycles += 1;
        }

        // 4. SPU scheduling: pick at most one SDRAM command, unless
        //    the bus is turning around. A due periodic refresh preempts
        //    normal work (§2.2: the contents must be refreshed
        //    typically every 64 ms).
        let turning = now < self.turnaround_until;
        if !turning && !self.service_refresh() {
            self.schedule(txns);
        }
        // A command acceptance (from schedule *or* service_refresh) is
        // work; service_refresh "owning the slot" without issuing is
        // not — that state replays until the blocking timer expires.
        // Scheduling can also mutate state without issuing: starting a
        // bus turnaround is work, the dead cycles after it are not.
        did_work |=
            self.device.command_issued_this_cycle() || (!turning && self.turnaround_until > now);

        // The hint must see the device *before* its tick: a restimer at
        // 1 decrements to 0 now, and the next cycle is the first to see
        // it available.
        self.wake_hint = self.compute_wake(now, did_work);

        // 5. Clock the device.
        self.device.tick();
        did_work
    }

    /// Routes one returned data word: deposit, or retry if poisoned.
    fn handle_ready(&mut self, ready: sdram::ReadReturn, now: u64, txns: &mut TransactionTable) {
        let (txn, element) = untag(ready.tag);
        if ready.poisoned {
            let key = (txn.0, element);
            let attempts = self.retry_attempts.get(&key).copied().unwrap_or(0);
            if attempts < self.config.max_read_retries {
                let (base, stride) = self.vec_meta[&txn.0];
                let backoff =
                    (self.config.retry_backoff_cycles as u64) << attempts.min(MAX_BACKOFF_SHIFT);
                self.retry_attempts.insert(key, attempts + 1);
                self.retries.push(PendingRetry {
                    txn,
                    element,
                    addr: base + stride * element,
                    not_before: now + backoff,
                });
                self.stats.read_retries += 1;
            } else {
                self.retry_attempts.remove(&key);
                self.stats.retries_exhausted += 1;
                txns.deposit_faulted(txn, element, ready.data);
            }
        } else {
            // Clearing a retry record only matters if one exists; the
            // fast path skips the hash on the (overwhelmingly common)
            // clean-data return when no retries are outstanding at all.
            if !self.config.fast_sim || !self.retry_attempts.is_empty() {
                self.retry_attempts.remove(&(txn.0, element));
            }
            txns.deposit(txn, element, ready.data);
        }
    }

    /// The wake hint produced by the last tick: `Some(cycle)` with the
    /// earliest tick that could do work — every tick in between is
    /// guaranteed to replay the same no-op decision — or `None` when
    /// the controller has nothing to do until a broadcast hits it.
    /// Valid only immediately after the producing tick.
    pub const fn wake_hint(&self) -> Option<u64> {
        self.wake_hint
    }

    /// First cycle the request just queued by
    /// [`observe_command`](BankController::observe_command) at `now`
    /// can make this controller act: `now` itself when its address
    /// needs the FHC (the multiply-add starts this tick), else the
    /// cycle it becomes injectable. Any older FIFO entry is already
    /// covered by the controller's own wake hint.
    pub(crate) fn broadcast_wake(&self, now: u64) -> u64 {
        match self.fifo.back() {
            Some(e) if e.addr_ready => e.injectable_at,
            _ => now,
        }
    }

    /// Earliest future cycle at which this controller could act, given
    /// the state the tick in progress leaves behind; `worked` says
    /// whether that tick did work. Must be called *before* the device
    /// tick (the device clock still reads the current cycle). `None`
    /// only when the controller has nothing to do: no FIFO entries,
    /// contexts or retries, no read data in flight and no periodic
    /// refresh configured.
    fn compute_wake(&mut self, now: u64, worked: bool) -> Option<u64> {
        let next = now + 1;
        // The FHC multiply-add progresses every cycle it has an entry.
        if self.fhc_pending > 0 {
            return Some(next);
        }
        // First cycle the scheduler runs again: the next one, or the
        // end of a bus turnaround. `held`: a turnaround kept the
        // scheduler from running this tick, or started in it.
        let sched_from = self.turnaround_until.max(next);
        let held = self.turnaround_until > now;
        let mut wake = u64::MAX;
        // Precise scheduler wakes: for each context, the expiry of
        // exactly the timers gating its next action (activate when its
        // bank is closed, access when its row is open, precharge when
        // another row occupies the bank), no earlier than the scheduler
        // runs. Early wakes are harmless (the tick replays as a no-op);
        // waking on *any* armed timer would also be correct but
        // triggers a no-op tick per unrelated expiry.
        //
        // An arm already in the past means the action is timing-legal
        // and only a non-timer condition (the issue window, a row
        // another window context still uses, the cycle's single
        // command slot) holds it back. After a work tick that condition
        // may just have cleared, so the next cycle must look. After a
        // no-work tick it did not clear, and clears only in some later
        // work tick of this controller (which publishes its own hint)
        // or through the refresh poll below — so it contributes no
        // candidate. While a turnaround holds the scheduler, a legal
        // arm resolves to the turnaround's end instead.
        //
        // These arms also cover the generation-aware policy's channel-
        // global decisions, so no blanket channel-gate arm is needed:
        // activate_ready_at folds in tRRD/tFAW and access_ready_at the
        // group's tCCD; `should_defer_activate` only fires in a cycle
        // where some window CAS is timing-legal, and phase B then
        // issues (a work tick); `last_cas_group` only orders candidates
        // that are already legal.
        for vc in &self.vcs {
            let (ib, row, _) = vc.target;
            let at = match self.device.open_row(ib) {
                None => self.device.activate_ready_at(ib),
                Some(open) if open == row => self.device.access_ready_at(ib),
                Some(_) => self.device.precharge_ready_at(ib),
            };
            if at > now || held {
                wake = wake.min(at.max(sched_from));
            } else if worked {
                return Some(next);
            }
        }
        // A window context whose row is open but whose direction
        // opposes the bus starts a turnaround the next time phase B
        // reaches it, whatever its tRCD/tCCD arm says. A no-work tick
        // never leaves one behind (phase B would have started the
        // turnaround, or a due refresh holds the slot and its poll
        // wakes every cycle), and a turnaround has already flipped the
        // polarity its window is built on.
        if worked && !held && self.config.turnaround_cycles > 0 {
            if let Some(bus) = self.data_polarity {
                let flips = |bc: &Self, i: usize| {
                    let (ib, row, _) = bc.vcs[i].target;
                    bc.vcs[i].kind != bus && bc.device.open_row(ib) == Some(row)
                };
                if (0..self.vcs.len()).any(|i| flips(self, i)) {
                    self.refresh_window();
                    if self.window.iter().any(|&i| flips(self, i)) {
                        return Some(next);
                    }
                }
            }
        }
        // Injection candidates only matter while a context slot is
        // free; when all slots are busy, the unblocking event is a
        // context's CAS (a work tick).
        if self.vcs.len() < self.config.vector_contexts {
            if let Some(e) = self.fifo.front() {
                wake = wake.min(e.injectable_at);
            }
            for r in &self.retries {
                wake = wake.min(r.not_before);
            }
        }
        if let Some(at) = self.device.next_data_at() {
            wake = wake.min(at);
        }
        // Refresh commands share the scheduler's slot.
        if let Some(at) = self.device.next_refresh_wake() {
            wake = wake.min(at.max(sched_from));
        }
        // A candidate already due (a FIFO head or retry that the single
        // injection per cycle left behind) acts next cycle.
        (wake != u64::MAX).then(|| wake.max(next))
    }

    /// Bulk-advances the controller across `cycles` quiescent cycles —
    /// equivalent to `cycles` ticks that each did no work. Only the
    /// pure counters move: busy-cycle stats and the device clock.
    pub fn advance(&mut self, cycles: u64) {
        if !self.vcs.is_empty() {
            self.stats.busy_cycles += cycles;
        }
        self.device.advance(cycles);
    }

    /// Drives the device toward a due AUTO REFRESH: closes open rows,
    /// then issues the refresh. Returns `true` while refresh handling
    /// owns the command slot this cycle.
    fn service_refresh(&mut self) -> bool {
        if !self.device.refresh_due() {
            return false;
        }
        for ib in 0..self.config.sdram.total_row_buffers() {
            if self.device.open_row(ib).is_some() {
                let cmd = SdramCmd::Precharge { bank: ib };
                if self.device.can_issue(&cmd).is_ok() {
                    self.device.issue(cmd).expect("validated");
                }
                // Either precharged or waiting out tRAS/tWR: refresh
                // still pending, keep the slot.
                return true;
            }
        }
        // All rows closed: refresh as soon as tRP clears.
        if self.device.issue(SdramCmd::Refresh).is_ok() {
            self.log_op(CmdClass::Refresh, u32::MAX, 0);
        }
        true
    }

    /// Internal-bank/row/column coordinates of a context's current
    /// element, after any degradation remap.
    fn target_of(&self, vc: &VectorContext) -> (u32, u64, u64) {
        self.target_of_addr(vc.addr)
    }

    /// [`target_of`](BankController::target_of) for a raw word address.
    fn target_of_addr(&self, addr: u64) -> (u32, u64, u64) {
        let local = self.config.geometry.bank_local_addr(addr);
        self.remap(self.config.sdram.map(local))
    }

    /// Graceful degradation: accesses that map to a hard-failed internal
    /// bank are serialized through the next healthy one, in a spare row
    /// region tagged with [`REMAP_ROW_BIT`]. Disabled by config or when
    /// the device has a single row buffer (nowhere to remap to).
    fn remap(&self, ia: InternalAddr) -> (u32, u64, u64) {
        if self.config.degradation {
            if let Some(dead) = self.device.hard_failed_bank() {
                let total = self.config.sdram.total_row_buffers();
                if total > 1 && ia.bank == dead {
                    let spare = if dead + 1 >= total { 0 } else { dead + 1 };
                    return (spare, ia.row | REMAP_ROW_BIT, ia.col);
                }
            }
        }
        (ia.bank, ia.row, ia.col)
    }

    /// The §5.2.2 scheduling pass: promote activates/precharges of
    /// blocked contexts (oldest first), else issue the highest-priority
    /// ready read/write that respects the polarity rule.
    fn schedule(&mut self, txns: &mut TransactionTable) {
        // Precompute VC targets. The fast path keeps the buffer's
        // capacity across cycles; the reference path reallocates each
        // call, preserving the original model for baseline measurement.
        let mut targets = std::mem::take(&mut self.targets_scratch);
        targets.clear();
        if self.config.fast_sim {
            targets.extend(self.vcs.iter().map(|vc| vc.target));
            debug_assert!(
                self.vcs.iter().all(|vc| vc.target == self.target_of(vc)),
                "cached VC target diverged from a fresh mapping"
            );
        } else {
            targets.extend(self.vcs.iter().map(|vc| self.target_of(vc)));
        }
        self.schedule_with(&targets, txns);
        if self.config.fast_sim {
            self.targets_scratch = targets;
        }
    }

    /// The body of [`schedule`](BankController::schedule), split so the
    /// target list can live outside `self` during the borrow.
    fn schedule_with(&mut self, targets: &[(u32, u64, u64)], txns: &mut TransactionTable) {
        // Polarity rule of §5.2.4: a VC may issue a read/write only if no
        // older VC carries the opposite direction (channel-aware parts
        // relax this for provably disjoint contexts — see
        // `build_issue_window`). Known up front: phase A must know
        // which VCs can actually consume an open row.
        self.refresh_window();
        let win = std::mem::take(&mut self.window);
        #[cfg(debug_assertions)]
        {
            let mut fresh = Vec::new();
            self.build_issue_window(&mut fresh);
            assert_eq!(
                win, fresh,
                "cached issue window diverged from a fresh build"
            );
        }
        self.schedule_in_window(targets, &win, txns);
        self.window = win;
    }

    /// Rebuilds the cached issue window if an input changed since it
    /// was last built.
    fn refresh_window(&mut self) {
        if self.window_stale {
            let mut win = std::mem::take(&mut self.window);
            win.clear();
            self.build_issue_window(&mut win);
            self.window = win;
            self.window_stale = false;
        }
    }

    /// [`schedule_with`](BankController::schedule_with) continued, with
    /// the issue window materialized as VC indices (oldest first).
    fn schedule_in_window(
        &mut self,
        targets: &[(u32, u64, u64)],
        window: &[usize],
        txns: &mut TransactionTable,
    ) {
        // tFAW-aware activate pacing (generation-aware policy): decided
        // once per cycle, before phase A runs.
        let defer = self.gen_aware() && self.should_defer_activate(targets, window);
        let mut defer_counted = false;

        // Phase A: row opens / precharges for blocked VCs ("promote row
        // opens and precharges above read and write operations, as long
        // as they do not conflict with the open rows being used by some
        // other VC"). Window members go first: they can consume a row
        // this cycle, and when the polarity anchor has bypassed the
        // oldest VC this ordering is what keeps an out-of-window VC
        // from re-activating the row the window just precharged (a
        // livelock otherwise). With the classic prefix window the
        // order is exactly age order, as before.
        if self.config.options.promote_opens || self.first_ready(targets, window).is_none() {
            for &i in window {
                if self.try_row_management(i, targets, window, defer, &mut defer_counted) {
                    return;
                }
            }
            for i in 0..self.vcs.len() {
                if window.contains(&i) {
                    continue;
                }
                if self.try_row_management(i, targets, window, defer, &mut defer_counted) {
                    return;
                }
            }
        }

        // Phase B: reads/writes within the polarity window. On
        // multi-group parts the generation-aware policy tries CAS
        // candidates whose bank group differs from the last CAS first
        // (`last_cas_group`): a group switch is gated by the short
        // tCCD_S, a repeat by the long tCCD_L. On 1-group parts (and
        // before the first CAS) every candidate is equally preferred
        // and the passes collapse to arrival order.
        let switch_from = if self.gen_aware() && self.config.sdram.bank_groups > 1 {
            self.last_cas_group
        } else {
            None
        };
        if let Some(last) = switch_from {
            for &i in window {
                if self.config.sdram.bank_group_of(targets[i].0) != last
                    && self.try_issue_access(i, targets, txns)
                {
                    return;
                }
            }
            for &i in window {
                if self.config.sdram.bank_group_of(targets[i].0) == last
                    && self.try_issue_access(i, targets, txns)
                {
                    return;
                }
            }
            return;
        }
        for &i in window {
            if self.try_issue_access(i, targets, txns) {
                return;
            }
        }
    }

    /// One phase-A attempt on context `i`: open its row if the bank is
    /// closed, or precharge a conflicting row no window VC still uses.
    /// Returns whether a command was issued (the cycle's slot is
    /// spent).
    fn try_row_management(
        &mut self,
        i: usize,
        targets: &[(u32, u64, u64)],
        window: &[usize],
        defer: bool,
        defer_counted: &mut bool,
    ) -> bool {
        let (ib, row, _) = targets[i];
        match self.device.open_row(ib) {
            None => {
                // Don't burn the tFAW window's last free slot while a
                // timing-legal CAS is waiting: phase B issues the CAS
                // this cycle, the activate follows once a slot frees.
                if defer {
                    if !*defer_counted {
                        self.stats.deferred_activates += 1;
                        *defer_counted = true;
                    }
                    return false;
                }
                // issue() validates and rejects without side effects,
                // so one call both checks and commits.
                let cmd = SdramCmd::Activate { bank: ib, row };
                if self.device.issue(cmd).is_ok() {
                    // Predictor is set on the very first operation of a
                    // new vector context (§5.2.2), using the last row
                    // open *before* this activate.
                    if !self.vcs[i].first_op_done {
                        self.set_predictor(i, ib, row);
                        self.vcs[i].first_op_done = true;
                    }
                    self.last_row[ib as usize] = Some(row);
                    self.stats.activates += 1;
                    self.log_op(CmdClass::Activate, ib, row);
                    return true;
                }
            }
            Some(open) if open != row => {
                // bank_hit_predict: some other VC that can actually
                // issue (inside the polarity window) currently targets
                // the open row — do not close it. VCs outside the
                // window cannot consume the row yet, and honouring
                // their hits could deadlock against the polarity rule.
                let other_hits = window
                    .iter()
                    .any(|&j| j != i && targets[j].0 == ib && targets[j].1 == open);
                let cmd = SdramCmd::Precharge { bank: ib };
                if !other_hits && self.device.issue(cmd).is_ok() {
                    self.log_op(CmdClass::Precharge, ib, open);
                    return true;
                }
            }
            Some(_) => {}
        }
        false
    }

    /// Materializes the issue window for this cycle: the VC indices
    /// (oldest first) the polarity rule permits to read/write.
    ///
    /// Base rule (§5.2.4): the oldest-prefix of one polarity — a VC may
    /// not issue while an older VC carries the opposite direction. With
    /// `out_of_order` off the window is just the oldest VC.
    ///
    /// Channel-aware extension (FR-FCFS-style, after Rixner et al.): on
    /// parts that declare channel structure, an opposite-polarity VC
    /// does not end the window when every access it still owes is
    /// provably disjoint from the candidates behind it — tested
    /// conservatively on word-address bounding ranges, so reordering
    /// across it commutes. This is what lets alternating read/write
    /// streams (dense copy) batch same-polarity accesses: the row stays
    /// open across the batch and the bus turns around once per batch
    /// instead of once per vector. SDR-era parts declare no channel
    /// structure and keep strict arrival order, bit-identical to the
    /// goldens.
    fn build_issue_window(&self, win: &mut Vec<usize>) {
        let Some(front) = self.vcs.front().map(|vc| vc.kind) else {
            return;
        };
        if !self.config.options.out_of_order {
            win.push(0);
            return;
        }
        if !(self.gen_aware() && self.config.sdram.declares_channel_structure()) {
            win.extend((0..self.vcs.len()).take_while(|&i| self.vcs[i].kind == front));
            return;
        }
        // Polarity anchor: stay on the bus's current direction while
        // admissible work of that direction exists — this is what turns
        // an alternating R/W arrival stream into same-polarity batches.
        // Starvation is bounded: a bypassed context holds its
        // transaction slot, so a persistently skipped polarity
        // eventually owns every slot and forces the anchor over.
        if let Some(p) = self.data_polarity {
            self.window_walk(p, win);
            if !win.is_empty() {
                return;
            }
        }
        if self.data_polarity != Some(front) {
            self.window_walk(front, win);
        }
    }

    /// One pass of the channel-aware window walk for a given anchor
    /// polarity: collect anchor-polarity VCs oldest-first, skipping
    /// opposite-polarity VCs whose remaining accesses are provably
    /// (range-)disjoint from every candidate admitted after them.
    fn window_walk(&self, anchor: OpKind, win: &mut Vec<usize>) {
        // Bounding ranges of the opposite-polarity VCs skipped so far.
        // A later anchor-polarity VC joins the window only if it
        // overlaps none of them (ranges are inclusive). A context holds
        // one of `vector_contexts` slots, so `skipped` needs at most
        // that many entries; a walk that would skip more than the
        // array's 16 stops there instead, which only narrows the window
        // (conservative: the contexts behind simply wait their turn).
        let mut skipped = [(0u64, 0u64); 16];
        let mut n_skipped = 0usize;
        for (i, vc) in self.vcs.iter().enumerate() {
            let range = Self::addr_range(vc);
            if vc.kind == anchor {
                let disjoint = skipped[..n_skipped]
                    .iter()
                    .all(|&(lo, hi)| range.1 < lo || hi < range.0);
                if disjoint {
                    win.push(i);
                } else {
                    // A real hazard: nothing younger may bypass either.
                    break;
                }
            } else {
                if n_skipped == skipped.len() {
                    break;
                }
                skipped[n_skipped] = range;
                n_skipped += 1;
            }
        }
    }

    /// Inclusive word-address bounding range of every element a context
    /// still owes. Exact for strided contexts (an arithmetic
    /// progression); for index-list contexts the remaining indices are
    /// scanned (bounded by the command length).
    fn addr_range(vc: &VectorContext) -> (u64, u64) {
        match &vc.indices {
            Some(idx) => {
                let (mut lo, mut hi) = (u64::MAX, 0u64);
                for &e in &idx[vc.pos..] {
                    let a = vc.base + vc.stride * e;
                    lo = lo.min(a);
                    hi = hi.max(a);
                }
                (lo, hi)
            }
            None => (vc.addr, vc.addr + vc.addr_step * (vc.remaining - 1)),
        }
    }

    /// Whether the generation-aware issue policy is enabled. The policy
    /// additionally degenerates to arrival order wherever the device
    /// declares no channel structure (1 bank group, burst length 1,
    /// tFAW 0) — the SDR-era presets — which the golden-identity tests
    /// pin.
    const fn gen_aware(&self) -> bool {
        self.config.options.generation_aware
    }

    /// Whether phase A should hold ACTIVATEs back this cycle: the tFAW
    /// window has exactly one slot free (an activate now closes the
    /// window for the rest of its span) while some context inside the
    /// polarity window has a CAS that is timing-legal right now.
    /// Deferring lets the CAS through this cycle; the activate stream
    /// loses at most the one cycle it must eventually spend waiting on
    /// the window anyway. Never true when tFAW is 0 (the slots read 0
    /// free... all four free) or while tRRD gates activates regardless.
    fn should_defer_activate(&self, targets: &[(u32, u64, u64)], window: &[usize]) -> bool {
        if self.config.sdram.t_faw == 0 || self.device.channel_rrd_remaining() > 0 {
            return false;
        }
        let free = self
            .device
            .channel_faw_remaining()
            .iter()
            .filter(|&&r| r == 0)
            .count();
        if free != 1 {
            return false;
        }
        let now = self.device.now();
        window.iter().any(|&i| {
            let (ib, row, _) = targets[i];
            self.device.open_row(ib) == Some(row) && self.device.access_ready_at(ib) <= now
        })
    }

    /// Length of the run of elements, starting at context `i`'s cursor,
    /// that one CAS burst can cover: successive elements must stay in
    /// internal bank `ib`, row `row`, and occupy strictly consecutive
    /// columns from `col`. Always 1 unless the generation-aware policy
    /// is on and the part bursts more than one word; index-list
    /// (block-interleave) contexts issue per word.
    fn coalesce_run(&self, i: usize, ib: u32, row: u64, col: u64) -> u64 {
        let vc = &self.vcs[i];
        if !self.gen_aware() || vc.indices.is_some() {
            return 1;
        }
        let max =
            u64::from(self.config.sdram.burst_words.min(MAX_COALESCE as u32)).min(vc.remaining);
        let mut k = 1;
        let mut addr = vc.addr;
        while k < max {
            addr += vc.addr_step;
            if self.target_of_addr(addr) != (ib, row, col + k) {
                break;
            }
            k += 1;
        }
        k
    }

    /// One phase-B attempt on context `i`: start a turnaround, issue a
    /// (possibly burst-coalesced) CAS and advance the context, or
    /// decline. Returns whether the scheduling pass is done for this
    /// cycle (`false` = nothing happened, try the next candidate).
    fn try_issue_access(
        &mut self,
        i: usize,
        targets: &[(u32, u64, u64)],
        txns: &mut TransactionTable,
    ) -> bool {
        let (ib, row, col) = targets[i];
        if self.device.open_row(ib) != Some(row) {
            return false;
        }
        let kind = self.vcs[i].kind;
        // Bus turnaround on polarity reversal (§5.2.5).
        if let Some(p) = self.data_polarity {
            if p != kind && self.config.turnaround_cycles > 0 {
                self.turnaround_until =
                    self.device.now() + 1 + u64::from(self.config.turnaround_cycles);
                self.stats.turnarounds += 1;
                self.data_polarity = Some(kind);
                self.window_stale = true;
                return true;
            }
        }
        // Decline before assembling the burst when the device would
        // reject the CAS: tRCD or the group's tCCD still pending. With
        // the row open (so no refresh is busy) and nothing issued yet
        // this cycle, `access_ready_at` is the whole legality test.
        if self.device.access_ready_at(ib) > self.device.now() {
            return false; // try a younger VC
        }
        // Burst coalescing: adjacent same-row elements whose columns
        // are consecutive ride one CAS on BL4/BL8 parts. `k == 1`
        // everywhere else and takes the original single-word path.
        let k = self.coalesce_run(i, ib, row, col);
        let last_for_vc = self.vcs[i].remaining == k;
        // The element after the run feeds both the row-management
        // decision and the context advance below — computed once.
        let next = if last_for_vc {
            None
        } else {
            let vc = &self.vcs[i];
            let next_addr = match &vc.indices {
                Some(idx) => vc.base + vc.stride * idx[vc.pos + 1],
                None => vc.addr + vc.addr_step * k,
            };
            Some((next_addr, self.target_of_addr(next_addr)))
        };
        let next_same_row = next.map(|(_, t)| t.0 == ib && t.1 == row);
        let auto = self.decide_auto_precharge(i, ib, row, targets, next_same_row);
        let txn = self.vcs[i].txn;
        let element = self.vcs[i].element;
        let issued = if k > 1 {
            // One CAS burst covering the whole run; per-word tags
            // (reads) or data (writes) assembled on the stack.
            let vc = &self.vcs[i];
            let mut items = [(0u64, 0u64); MAX_COALESCE];
            for (j, slot) in items[..k as usize].iter_mut().enumerate() {
                let e = element + vc.index_delta * j as u64;
                slot.0 = col + j as u64;
                slot.1 = match kind {
                    OpKind::Read => tag_of(txn, e),
                    OpKind::Write => vc
                        .write_line
                        .as_ref()
                        .expect("write context carries its line")[e as usize],
                };
            }
            match kind {
                OpKind::Read => self
                    .device
                    .issue_read_burst(ib, auto, &items[..k as usize])
                    .is_ok(),
                OpKind::Write => self
                    .device
                    .issue_write_burst(ib, auto, &items[..k as usize])
                    .is_ok(),
            }
        } else {
            let cmd = match kind {
                OpKind::Read => SdramCmd::Read {
                    bank: ib,
                    col,
                    auto_precharge: auto,
                    tag: tag_of(txn, element),
                },
                OpKind::Write => {
                    let line = self.vcs[i]
                        .write_line
                        .as_ref()
                        .expect("write context carries its line");
                    SdramCmd::Write {
                        bank: ib,
                        col,
                        data: line[element as usize],
                        auto_precharge: auto,
                    }
                }
            };
            self.device.issue(cmd).is_ok()
        };
        debug_assert!(issued, "a timing-legal CAS on an open row is accepted");
        if !issued {
            return false;
        }
        let class = match (kind, auto) {
            (OpKind::Read, false) => CmdClass::Read,
            (OpKind::Read, true) => CmdClass::ReadAuto,
            (OpKind::Write, false) => CmdClass::Write,
            (OpKind::Write, true) => CmdClass::WriteAuto,
        };
        if !self.vcs[i].first_op_done {
            self.set_predictor(i, ib, row);
            self.vcs[i].first_op_done = true;
        }
        self.data_polarity = Some(kind);
        self.window_stale = true;
        if next_same_row == Some(true) {
            self.stats.row_hits += 1;
        }
        // Channel bookkeeping for the group-interleave preference.
        let group = self.config.sdram.bank_group_of(ib);
        if self.last_cas_group.is_some_and(|prev| prev != group) {
            self.stats.group_switches += 1;
        }
        self.last_cas_group = Some(group);
        if k > 1 {
            self.stats.coalesced_bursts += 1;
        }
        // Device rows from `map` are narrow; only remapped targets
        // carry the spare-region bit.
        if row & REMAP_ROW_BIT != 0 {
            self.stats.remapped_accesses += k;
        }
        match kind {
            OpKind::Read => {
                self.stats.elements_read += k;
                self.log_op(class, ib, row);
            }
            OpKind::Write => {
                self.stats.elements_written += k;
                txns.commit_writes(txn, k);
                self.log_op(class, ib, row);
            }
        }
        // Advance the context past the run: shift-and-add for word
        // interleave, next list entry for block interleave.
        let vc = &mut self.vcs[i];
        vc.remaining -= k;
        if vc.remaining == 0 {
            self.vcs.remove(i);
        } else {
            let (next_addr, target) = next.expect("non-last element has a next");
            vc.addr = next_addr;
            vc.target = target;
            if let Some(idx) = &vc.indices {
                vc.pos += 1;
                vc.element = idx[vc.pos];
            } else {
                vc.element += vc.index_delta * k;
            }
        }
        true
    }

    /// First VC whose target row is open *and* which the polarity rule
    /// permits to issue — used to decide whether phase A may run when
    /// promotion is disabled. A "ready" VC outside the polarity window
    /// cannot actually issue, so it must not suppress row management
    /// (doing so deadlocks).
    fn first_ready(&self, targets: &[(u32, u64, u64)], window: &[usize]) -> Option<usize> {
        window.iter().copied().find(|&i| {
            let (ib, row, _) = targets[i];
            self.device.open_row(ib) == Some(row)
        })
    }

    /// The ManageRow() decision of §5.2.2: should this access close its
    /// row via auto-precharge?
    fn decide_auto_precharge(
        &self,
        vc_idx: usize,
        ib: u32,
        row: u64,
        targets: &[(u32, u64, u64)],
        next_same_row: Option<bool>,
    ) -> bool {
        // bank_morehit_predict: another VC has a pending access to this
        // same open row.
        let more_hit =
            (0..self.vcs.len()).any(|j| j != vc_idx && targets[j].0 == ib && targets[j].1 == row);
        // bank_close_predict: another VC wants a *different* row in this
        // internal bank.
        let close_predict =
            (0..self.vcs.len()).any(|j| j != vc_idx && targets[j].0 == ib && targets[j].1 != row);
        if let Some(next_same_row) = next_same_row {
            // Vector request not complete: keep the row if our own next
            // element hits it (or someone else will).
            return !(next_same_row || more_hit);
        }
        // Vector request complete.
        if more_hit {
            return false;
        }
        if close_predict || self.autoprecharge_predict[ib as usize] {
            return true;
        }
        false
    }

    /// Sets the one-bit autoprecharge predictor for internal bank `ib`
    /// when a context issues its first operation.
    fn set_predictor(&mut self, _vc_idx: usize, ib: u32, first_row: u64) {
        let matched = self.last_row[ib as usize] == Some(first_row);
        let h = &mut self.row_history[ib as usize];
        *h = ((*h << 1) | matched as u8) & 0xF;
        self.autoprecharge_predict[ib as usize] = match self.config.options.row_policy {
            RowPolicy::PaperLiteral => matched,
            RowPolicy::MissPredictsClose => !matched,
            RowPolicy::AlwaysClose => true,
            RowPolicy::AlwaysOpen => false,
            RowPolicy::AlphaHistory => self.config.options.precharge_policy_reg & (1 << *h) != 0,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::OpKind;
    use crate::txn::{Transaction, TxnPhase};
    use pva_core::Vector;

    fn controller(bank: usize) -> BankController {
        let cfg = PvaConfig::default();
        let pla = Arc::new(K1Pla::new(&cfg.geometry));
        BankController::new(BankId::new(bank), cfg, pla)
    }

    fn open_read_txn(txns: &mut TransactionTable, id: TxnId, len: u64) {
        txns.open(
            id,
            Transaction {
                kind: OpKind::Read,
                length: len,
                request_index: 0,
                issued_at: 0,
                collected: vec![None; len as usize],
                collected_count: 0,
                committed_count: 0,
                write_line: None,
                faulted: Vec::new(),
                phase: TxnPhase::InBanks,
            },
        );
    }

    #[test]
    fn miss_is_not_queued() {
        let mut bc = controller(3);
        // Stride 16 from base 0 only ever hits bank 0.
        let cmd = VectorCommand {
            vector: Vector::new(0, 16, 32).unwrap(),
            kind: OpKind::Read,
            txn: TxnId(0),
        };
        assert_eq!(bc.observe_command(&cmd, None, 0), 0);
        assert!(bc.idle());
    }

    #[test]
    fn unit_stride_gathers_two_elements() {
        // 32-element unit-stride vector on 16 banks: two elements per bank.
        let mut bc = controller(5);
        let mut txns = TransactionTable::new(8);
        open_read_txn(&mut txns, TxnId(0), 32);
        let cmd = VectorCommand {
            vector: Vector::new(0, 1, 32).unwrap(),
            kind: OpKind::Read,
            txn: TxnId(0),
        };
        assert_eq!(bc.observe_command(&cmd, None, 0), 2);
        for now in 1..60 {
            bc.tick(now, &mut txns);
            if bc.idle() {
                break;
            }
        }
        let txn = txns.get(TxnId(0)).unwrap();
        // Elements 5 and 21 (addresses 5 and 21) belong to bank 5.
        assert_eq!(txn.collected_count, 2);
        assert!(txn.collected[5].is_some());
        assert!(txn.collected[21].is_some());
        assert_eq!(bc.stats().elements_read, 2);
    }

    #[test]
    fn gathered_data_matches_device_contents() {
        let mut bc = controller(0);
        let mut txns = TransactionTable::new(8);
        open_read_txn(&mut txns, TxnId(2), 8);
        // Stride 16: all 8 elements land in bank 0, local addrs 0..8*1.
        let cmd = VectorCommand {
            vector: Vector::new(0, 16, 8).unwrap(),
            kind: OpKind::Read,
            txn: TxnId(2),
        };
        assert_eq!(bc.observe_command(&cmd, None, 0), 8);
        for now in 1..200 {
            bc.tick(now, &mut txns);
            if bc.idle() {
                break;
            }
        }
        let txn = txns.get(TxnId(2)).unwrap();
        assert_eq!(txn.collected_count, 8);
        for (i, w) in txn.collected.iter().enumerate() {
            // Element i is at global addr 16i -> local addr i.
            assert_eq!(w.unwrap(), bc.device().peek(i as u64), "element {i}");
        }
    }

    #[test]
    fn writes_commit_and_persist() {
        let mut bc = controller(0);
        let mut txns = TransactionTable::new(8);
        let line: Arc<Vec<u64>> = Arc::new((0..4).map(|i| 0xAA00 + i).collect());
        txns.open(
            TxnId(1),
            Transaction {
                kind: OpKind::Write,
                length: 4,
                request_index: 0,
                issued_at: 0,
                collected: vec![],
                collected_count: 0,
                committed_count: 0,
                write_line: Some(line.clone()),
                faulted: Vec::new(),
                phase: TxnPhase::InBanks,
            },
        );
        let cmd = VectorCommand {
            vector: Vector::new(0, 16, 4).unwrap(),
            kind: OpKind::Write,
            txn: TxnId(1),
        };
        assert_eq!(bc.observe_command(&cmd, Some(line), 0), 4);
        for now in 1..200 {
            bc.tick(now, &mut txns);
            if bc.idle() && txns.get(TxnId(1)).unwrap().banks_done() {
                break;
            }
        }
        assert!(txns.get(TxnId(1)).unwrap().banks_done());
        for i in 0..4u64 {
            assert_eq!(bc.device().peek(i), 0xAA00 + i);
        }
    }

    #[test]
    fn power_of_two_bypass_is_faster_than_fifo_path() {
        // Same command, bypass on vs off: bypass must not be slower.
        let run = |bypass: bool| -> u64 {
            let mut cfg = PvaConfig::default();
            cfg.options.bypass_paths = bypass;
            let pla = Arc::new(K1Pla::new(&cfg.geometry));
            let mut bc = BankController::new(BankId::new(0), cfg, pla);
            let mut txns = TransactionTable::new(8);
            open_read_txn(&mut txns, TxnId(0), 2);
            let cmd = VectorCommand {
                vector: Vector::new(0, 16, 2).unwrap(),
                kind: OpKind::Read,
                txn: TxnId(0),
            };
            bc.observe_command(&cmd, None, 0);
            for now in 1..200 {
                bc.tick(now, &mut txns);
                if txns.get(TxnId(0)).unwrap().banks_done() {
                    return now;
                }
            }
            panic!("never completed");
        };
        assert!(run(true) < run(false));
    }

    #[test]
    fn non_power_of_two_pays_fhc_latency() {
        let run = |stride: u64| -> u64 {
            let mut bc = controller(0);
            let mut txns = TransactionTable::new(8);
            open_read_txn(&mut txns, TxnId(0), 1);
            let cmd = VectorCommand {
                vector: Vector::new(0, stride, 1).unwrap(),
                kind: OpKind::Read,
                txn: TxnId(0),
            };
            bc.observe_command(&cmd, None, 0);
            for now in 1..200 {
                bc.tick(now, &mut txns);
                if txns.get(TxnId(0)).unwrap().banks_done() {
                    return now;
                }
            }
            panic!("never completed");
        };
        // A single-element vector: stride class irrelevant to work, but
        // stride 48 (not a power of two) must pay the 2-cycle FHC.
        let pow2 = run(16);
        let npow2 = run(48);
        assert_eq!(npow2 - pow2, 2);
    }

    #[test]
    fn row_hit_within_vector_leaves_row_open() {
        // Stride 16, consecutive local addresses 0,1,2...: same row.
        let mut bc = controller(0);
        let mut txns = TransactionTable::new(8);
        open_read_txn(&mut txns, TxnId(0), 16);
        let cmd = VectorCommand {
            vector: Vector::new(0, 16, 16).unwrap(),
            kind: OpKind::Read,
            txn: TxnId(0),
        };
        bc.observe_command(&cmd, None, 0);
        for now in 1..400 {
            bc.tick(now, &mut txns);
            if bc.idle() {
                break;
            }
        }
        // One activate serves all 16 accesses.
        assert_eq!(bc.device().stats().activates, 1);
        assert_eq!(bc.device().stats().reads, 16);
    }

    #[test]
    fn turnaround_counted_on_polarity_reversal() {
        let mut bc = controller(0);
        let mut txns = TransactionTable::new(8);
        open_read_txn(&mut txns, TxnId(0), 1);
        let line = Arc::new(vec![7u64]);
        txns.open(
            TxnId(1),
            Transaction {
                kind: OpKind::Write,
                length: 1,
                request_index: 1,
                issued_at: 0,
                collected: vec![],
                collected_count: 0,
                committed_count: 0,
                write_line: Some(line.clone()),
                faulted: Vec::new(),
                phase: TxnPhase::InBanks,
            },
        );
        let read = VectorCommand {
            vector: Vector::new(0, 16, 1).unwrap(),
            kind: OpKind::Read,
            txn: TxnId(0),
        };
        let write = VectorCommand {
            vector: Vector::new(256, 16, 1).unwrap(),
            kind: OpKind::Write,
            txn: TxnId(1),
        };
        bc.observe_command(&read, None, 0);
        bc.observe_command(&write, Some(line), 0);
        for now in 1..400 {
            bc.tick(now, &mut txns);
            if bc.idle() && txns.get(TxnId(1)).unwrap().banks_done() {
                break;
            }
        }
        assert_eq!(bc.stats().turnarounds, 1);
    }
}
