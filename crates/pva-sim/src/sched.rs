//! Event queue for the next-event fast path.
//!
//! The reference model ticks every bank controller every cycle. The
//! fast path instead keeps one pending wake-up per controller in a
//! hand-rolled binary min-heap keyed by `(cycle, controller)`, pops the
//! earliest, and bulk-advances the clock across the gap — cycles where
//! provably nothing can change are never executed. Controllers that
//! finish a tick without doing work publish a wake hint (the earliest
//! cycle their next tick could act); controllers fully at rest park
//! until a broadcast re-arms them.
//!
//! The heap uses *lazy invalidation*: [`EventQueue::wake`] never
//! removes a superseded (later) entry, it just records the new earlier
//! cycle in the authoritative `next_run` table and pushes a fresh
//! entry. Stale heap entries — those disagreeing with `next_run` — are
//! discarded when they surface at the top. This keeps every operation
//! O(log n) with no sift-to-arbitrary-position machinery.

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

/// One pending wake-up per bank controller, ordered by cycle.
///
/// Ties on the cycle break toward the lower controller index, so due
/// controllers pop in the same ascending-index order the reference
/// model ticks them in.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// Min-heap of `(cycle, controller)` wake-ups, including stale
    /// entries superseded by an earlier `wake`.
    heap: Vec<(u64, u32)>,
    /// Authoritative next-run cycle per controller ([`PARKED`] when
    /// none); a heap entry is live iff it matches this table.
    next_run: Vec<u64>,
    /// Hot lane for the overwhelmingly common wake target — the cycle
    /// right after the last drain. During a busy stretch every working
    /// controller re-wakes at `t + 1`, and routing those through the
    /// heap costs a sift-up now and a sift-down at the very next
    /// drain, both for nothing. Entries here are always live: after
    /// `drain_due(c)` every `wake` carries a cycle `>= c + 1 ==
    /// soon_cycle`, so nothing can supersede a lane entry.
    soon: Vec<u32>,
    /// The cycle `soon` entries are due at (the cycle after the last
    /// drain; [`PARKED`] before any drain, closing the lane).
    soon_cycle: u64,
}

impl EventQueue {
    /// Clears all state and sizes the queue for `n` controllers, all
    /// parked.
    pub(crate) fn reset(&mut self, n: usize) {
        self.heap.clear();
        self.next_run.clear();
        self.next_run.resize(n, PARKED);
        self.soon.clear();
        self.soon_cycle = PARKED;
    }

    /// Schedules controller `idx` to run at `cycle`. An earlier
    /// existing schedule wins — waking early is sound (the tick replays
    /// a no-op and republishes its hint), waking late is not.
    pub(crate) fn wake(&mut self, idx: usize, cycle: u64) {
        debug_assert!(cycle < PARKED, "PARKED is reserved");
        if cycle < self.next_run[idx] {
            self.next_run[idx] = cycle;
            if cycle == self.soon_cycle {
                self.soon.push(idx as u32);
            } else {
                self.push(cycle, idx as u32);
            }
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

    /// Whether controllers are already scheduled for the cycle right
    /// after the last drain — the busy-stretch signature. The event
    /// loop uses this to bypass the full next-event/jump computation:
    /// the earliest event *is* the next cycle, so the only possible
    /// "jump" is zero-length.
    pub(crate) fn has_due_next(&self) -> bool {
        !self.soon.is_empty()
    }

    /// Earliest scheduled wake-up cycle across all controllers, or
    /// `None` when every controller is parked. Discards stale entries
    /// as they surface.
    pub(crate) fn next_event(&mut self) -> Option<u64> {
        let lane = if self.soon.is_empty() {
            None
        } else {
            Some(self.soon_cycle)
        };
        while let Some(&(cycle, idx)) = self.heap.first() {
            if self.next_run[idx as usize] == cycle {
                return Some(lane.map_or(cycle, |l| l.min(cycle)));
            }
            self.pop_top(); // stale: superseded by an earlier wake
        }
        lane
    }

    /// Pops the next controller due at or before `cycle` and parks it
    /// (its tick will reschedule it). `None` when nothing is due.
    /// Test-only convenience; the simulator drains whole cycles with
    /// [`drain_due`](EventQueue::drain_due).
    #[cfg(test)]
    pub(crate) fn pop_due(&mut self, cycle: u64) -> Option<usize> {
        // The one-at-a-time form is off the hot path: fold the lane
        // back into the heap rather than duplicating the merge logic.
        while let Some(idx) = self.soon.pop() {
            self.push(self.soon_cycle, idx);
        }
        while let Some(&(at, idx)) = self.heap.first() {
            if at > cycle {
                return None;
            }
            self.pop_top();
            if self.next_run[idx as usize] == at {
                self.next_run[idx as usize] = PARKED;
                return Some(idx as usize);
            }
        }
        None
    }

    /// Pops *every* controller due at or before `cycle` into `out` (in
    /// cycle-then-index order) and parks them — the batched form of
    /// [`pop_due`](EventQueue::pop_due) for the per-cycle hot loop.
    pub(crate) fn drain_due(&mut self, cycle: u64, out: &mut Vec<u32>) {
        out.clear();
        if self.soon_cycle == cycle {
            // Lane entries are always live (nothing can supersede
            // them; see the field docs), so they transfer unchecked.
            out.append(&mut self.soon);
            for &idx in out.iter() {
                debug_assert_eq!(self.next_run[idx as usize], cycle);
                self.next_run[idx as usize] = PARKED;
            }
        }
        while let Some(&(at, idx)) = self.heap.first() {
            if at > cycle {
                break;
            }
            self.pop_top();
            if self.next_run[idx as usize] == at {
                self.next_run[idx as usize] = PARKED;
                out.push(idx);
            }
        }
        // The reference model ticks due controllers in ascending index
        // order; the heap guarantees that per source, but merging the
        // lane with same-cycle heap entries (e.g. a broadcast re-arming
        // a parked controller at this very cycle) can interleave them.
        if !out.is_sorted() {
            out.sort_unstable();
        }
        // Open the lane for re-wakes targeting the next cycle.
        self.soon_cycle = cycle + 1;
    }

    /// Pushes one entry and restores the heap order (sift up).
    fn push(&mut self, cycle: u64, idx: u32) {
        self.heap.push((cycle, idx));
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] <= self.heap[i] {
                break;
            }
            self.heap.swap(parent, i);
            i = parent;
        }
    }

    /// Removes the minimum entry and restores the heap order (sift
    /// down).
    fn pop_top(&mut self) {
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        self.heap.truncate(last);
        let mut i = 0;
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.heap[right] < self.heap[left] {
                right
            } else {
                left
            };
            if self.heap[i] <= self.heap[child] {
                break;
            }
            self.heap.swap(i, child);
            i = child;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_cycle_then_index_order() {
        let mut q = EventQueue::default();
        q.reset(4);
        q.wake(2, 10);
        q.wake(0, 5);
        q.wake(3, 10);
        q.wake(1, 7);
        assert_eq!(q.next_event(), Some(5));
        assert_eq!(q.pop_due(10), Some(0));
        assert_eq!(q.pop_due(10), Some(1));
        // Same-cycle entries pop in ascending controller order.
        assert_eq!(q.pop_due(10), Some(2));
        assert_eq!(q.pop_due(10), Some(3));
        assert_eq!(q.pop_due(u64::MAX - 1), None);
        assert_eq!(q.next_event(), None);
    }

    #[test]
    fn pop_due_respects_the_deadline() {
        let mut q = EventQueue::default();
        q.reset(2);
        q.wake(0, 3);
        q.wake(1, 8);
        assert_eq!(q.pop_due(2), None);
        assert_eq!(q.pop_due(3), Some(0));
        assert_eq!(q.pop_due(3), None);
        assert_eq!(q.next_event(), Some(8));
    }

    #[test]
    fn earlier_wake_supersedes_later_entry() {
        let mut q = EventQueue::default();
        q.reset(2);
        q.wake(0, 100);
        q.wake(0, 4); // pulls the schedule in
        q.wake(0, 50); // later than the live entry: ignored
        assert_eq!(q.next_event(), Some(4));
        assert_eq!(q.pop_due(4), Some(0));
        // The stale cycle-100 entry must not resurface.
        assert_eq!(q.pop_due(u64::MAX - 1), None);
        assert_eq!(q.next_event(), None);
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
        assert_eq!(q.pop_due(9), Some(2));
    }

    #[test]
    fn interleaved_wakes_and_pops_stay_ordered() {
        let mut q = EventQueue::default();
        q.reset(8);
        // Deterministic pseudo-shuffled schedule.
        for k in 0..64u64 {
            let idx = ((k * 5) % 8) as usize;
            q.wake(idx, (k * 37) % 101 + 1);
        }
        let mut last = 0;
        let mut popped = 0;
        while let Some(c) = q.next_event() {
            assert!(c >= last, "heap order violated: {c} after {last}");
            last = c;
            assert!(q.pop_due(c).is_some());
            popped += 1;
        }
        // One live schedule per controller survives the supersessions.
        assert_eq!(popped, 8);
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
