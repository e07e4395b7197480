//! Event queue for the next-event fast path.
//!
//! The reference model ticks every bank controller every cycle. The
//! fast path instead keeps one next-run cycle per controller, executes
//! only cycles where some controller (or the front end) is due, and
//! bulk-advances the clock across the gaps — cycles where provably
//! nothing can change are never executed. Every controller tick, with
//! or without work, publishes a wake hint: the earliest cycle its next
//! tick could act. A controller with nothing to do publishes none and
//! parks until a broadcast re-arms it.
//!
//! The queue is a flat table with a cached minimum rather than a heap:
//! with one entry per controller (16 in the paper's unit), a scan per
//! executed cycle costs less than heap maintenance, drains the due
//! controllers already in the reference model's ascending index order,
//! and needs no invalidation of superseded entries.

/// Number of jump-size histogram buckets in [`EventStats::jump_hist`].
pub const JUMP_BUCKETS: usize = 8;

/// Sentinel in the `next_run` table: no wake-up scheduled.
const PARKED: u64 = u64::MAX;

/// Counters describing how the event-driven loop spent a run: how many
/// cycles were actually executed versus jumped over, and the shape of
/// the jumps. Purely observational — never feeds back into timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventStats {
    /// Cycles the event loop executed in full (bus arbitration, due
    /// controller ticks, transaction bookkeeping).
    pub executed_cycles: u64,
    /// Cycles jumped over in bulk as provable no-ops.
    pub skipped_cycles: u64,
    /// Number of bulk jumps taken (time advances of ≥ 1 cycle).
    pub jumps: u64,
    /// Controller wake-ups popped from the queue.
    pub events_popped: u64,
    /// Popped wake-ups whose controller tick did no work: a hint that
    /// woke the controller earlier than its next action, or the
    /// opening tick of a controller with nothing to do.
    pub idle_ticks: u64,
    /// Histogram of jump sizes: bucket `i` counts jumps of
    /// `2^i ..= 2^(i+1) - 1` cycles; the last bucket is open-ended
    /// (`128+` with the default [`JUMP_BUCKETS`]).
    pub jump_hist: [u64; JUMP_BUCKETS],
}

impl EventStats {
    /// Records one bulk jump of `gap` cycles.
    pub(crate) fn record_jump(&mut self, gap: u64) {
        debug_assert!(gap > 0, "a jump always advances time");
        self.jumps += 1;
        let bucket = (u64::BITS - 1 - gap.leading_zeros()) as usize;
        self.jump_hist[bucket.min(JUMP_BUCKETS - 1)] += 1;
    }

    /// Accumulates another run's counters into this one (for summing
    /// across traces in a sweep).
    pub fn absorb(&mut self, other: &EventStats) {
        self.executed_cycles += other.executed_cycles;
        self.skipped_cycles += other.skipped_cycles;
        self.jumps += other.jumps;
        self.events_popped += other.events_popped;
        self.idle_ticks += other.idle_ticks;
        for (acc, v) in self.jump_hist.iter_mut().zip(other.jump_hist) {
            *acc += v;
        }
    }
}

/// One pending wake-up per bank controller: a flat table indexed by
/// controller plus its cached minimum.
///
/// A unit has a few dozen controllers at most, so one linear scan per
/// executed cycle is cheaper than keeping a heap ordered, and it yields
/// the due controllers in ascending index order — the order the
/// reference model ticks them in — without a sort.
#[derive(Debug)]
pub(crate) struct EventQueue {
    /// Next-run cycle per controller ([`PARKED`] when none).
    next_run: Vec<u64>,
    /// Minimum of `next_run` ([`PARKED`] when every controller is).
    min: u64,
}

impl Default for EventQueue {
    /// A disarmed queue: no controllers, nothing scheduled.
    fn default() -> Self {
        EventQueue {
            next_run: Vec::new(),
            min: PARKED,
        }
    }
}

impl EventQueue {
    /// Clears all state and sizes the queue for `n` controllers, all
    /// parked.
    pub(crate) fn reset(&mut self, n: usize) {
        self.next_run.clear();
        self.next_run.resize(n, PARKED);
        self.min = PARKED;
    }

    /// Schedules controller `idx` to run at `cycle`. An earlier
    /// existing schedule wins — waking early is sound (the tick replays
    /// a no-op and republishes its hint), waking late is not.
    pub(crate) fn wake(&mut self, idx: usize, cycle: u64) {
        debug_assert!(cycle < PARKED, "PARKED is reserved");
        let at = &mut self.next_run[idx];
        if cycle < *at {
            *at = cycle;
            self.min = self.min.min(cycle);
        }
    }

    /// [`wake`](EventQueue::wake), but a silent no-op when the queue is
    /// disarmed (sized for zero controllers) — for callers shared with
    /// the reference path, like the broadcast logic.
    pub(crate) fn wake_if_armed(&mut self, idx: usize, cycle: u64) {
        if idx < self.next_run.len() {
            self.wake(idx, cycle);
        }
    }

    /// Whether some controller is due at or before `now` — the
    /// busy-stretch signature. The event loop uses this to bypass the
    /// full next-event/jump computation: the earliest event *is* the
    /// current cycle, so the only possible "jump" is zero-length.
    pub(crate) fn has_due_next(&self, now: u64) -> bool {
        self.min <= now
    }

    /// Earliest scheduled wake-up cycle across all controllers, or
    /// `None` when every controller is parked.
    pub(crate) fn next_event(&self) -> Option<u64> {
        (self.min != PARKED).then_some(self.min)
    }

    /// Moves *every* controller due at or before `cycle` into `out`, in
    /// ascending index order, and parks them (their ticks reschedule
    /// them); the minimum is recomputed over the controllers left.
    pub(crate) fn drain_due(&mut self, cycle: u64, out: &mut Vec<u32>) {
        out.clear();
        if self.min > cycle {
            return;
        }
        let mut min = PARKED;
        for (idx, at) in self.next_run.iter_mut().enumerate() {
            if *at <= cycle {
                out.push(idx as u32);
                *at = PARKED;
            } else {
                min = min.min(*at);
            }
        }
        self.min = min;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains everything due at `cycle`.
    fn drain(q: &mut EventQueue, cycle: u64) -> Vec<u32> {
        let mut out = Vec::new();
        q.drain_due(cycle, &mut out);
        out
    }

    #[test]
    fn due_controllers_drain_in_ascending_index_order() {
        let mut q = EventQueue::default();
        q.reset(6);
        // Woken out of index order, at mixed cycles all due by 10.
        q.wake(4, 10);
        q.wake(1, 7);
        q.wake(5, 3);
        q.wake(0, 10);
        q.wake(2, 11);
        assert_eq!(q.next_event(), Some(3));
        assert_eq!(drain(&mut q, 10), vec![0, 1, 4, 5]);
        // The drained controllers are parked; only controller 2 is left.
        assert_eq!(drain(&mut q, 10), Vec::<u32>::new());
        assert_eq!(q.next_event(), Some(11));
    }

    #[test]
    fn earlier_wake_wins() {
        let mut q = EventQueue::default();
        q.reset(2);
        q.wake(0, 100);
        q.wake(0, 4); // pulls the schedule in
        q.wake(0, 50); // later than the live entry: ignored
        assert_eq!(q.next_event(), Some(4));
        assert!(!q.has_due_next(3));
        assert!(q.has_due_next(4));
        assert_eq!(drain(&mut q, 4), vec![0]);
        // The superseded cycle-100 schedule is gone with it.
        assert_eq!(drain(&mut q, u64::MAX - 1), Vec::<u32>::new());
        assert_eq!(q.next_event(), None);
    }

    #[test]
    fn parked_controllers_never_drain() {
        let mut q = EventQueue::default();
        q.reset(4);
        q.wake(2, 5);
        assert_eq!(drain(&mut q, u64::MAX - 1), vec![2]);
        // Everyone is parked now: no cycle, however late, drains one.
        assert_eq!(q.next_event(), None);
        assert!(!q.has_due_next(u64::MAX - 1));
        assert_eq!(drain(&mut q, u64::MAX - 1), Vec::<u32>::new());
    }

    #[test]
    fn next_event_after_a_drain_is_the_minimum_left() {
        let mut q = EventQueue::default();
        q.reset(8);
        // Deterministic pseudo-shuffled schedule; later wakes of the
        // same controller are superseded, earlier ones win.
        let mut expect = [u64::MAX; 8];
        for k in 0..64u64 {
            let idx = ((k * 5) % 8) as usize;
            let at = (k * 37) % 101 + 1;
            q.wake(idx, at);
            expect[idx] = expect[idx].min(at);
        }
        let mut drained = 0;
        while let Some(c) = q.next_event() {
            let out = drain(&mut q, c);
            assert!(!out.is_empty(), "the minimum is always due");
            for &idx in &out {
                assert_eq!(
                    expect[idx as usize], c,
                    "controller {idx} drained off-cycle"
                );
                expect[idx as usize] = u64::MAX;
            }
            drained += out.len();
            let left = expect.iter().copied().filter(|&at| at != u64::MAX).min();
            assert_eq!(q.next_event(), left, "minimum of the controllers left");
        }
        assert_eq!(drained, 8, "one live schedule per controller");
    }

    #[test]
    fn wake_if_armed_is_a_no_op_on_a_disarmed_queue() {
        let mut q = EventQueue::default();
        q.wake_if_armed(3, 7);
        assert_eq!(q.next_event(), None);
        q.reset(0);
        q.wake_if_armed(3, 7);
        assert_eq!(q.next_event(), None);
        q.reset(4);
        q.wake_if_armed(3, 7);
        assert_eq!(q.next_event(), Some(7));
    }

    #[test]
    fn reset_clears_all_schedules() {
        let mut q = EventQueue::default();
        q.reset(3);
        q.wake(0, 1);
        q.wake(1, 2);
        q.reset(3);
        assert_eq!(q.next_event(), None);
        q.wake(2, 9);
        assert_eq!(drain(&mut q, 9), vec![2]);
    }

    #[test]
    fn jump_histogram_buckets_by_power_of_two() {
        let mut s = EventStats::default();
        for gap in [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 1 << 20] {
            s.record_jump(gap);
        }
        assert_eq!(s.jump_hist, [1, 2, 2, 2, 2, 2, 2, 2]);
        assert_eq!(s.jumps, 15);
    }

    #[test]
    fn absorb_sums_every_counter() {
        let mut a = EventStats {
            executed_cycles: 10,
            skipped_cycles: 90,
            ..EventStats::default()
        };
        a.record_jump(3);
        let mut b = EventStats {
            executed_cycles: 1,
            skipped_cycles: 9,
            events_popped: 5,
            ..EventStats::default()
        };
        b.record_jump(200);
        a.absorb(&b);
        assert_eq!(a.executed_cycles, 11);
        assert_eq!(a.skipped_cycles, 99);
        assert_eq!(a.jumps, 2);
        assert_eq!(a.events_popped, 5);
        assert_eq!(a.jump_hist[1], 1);
        assert_eq!(a.jump_hist[JUMP_BUCKETS - 1], 1);
    }
}
