//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer's public
//! function: a name (`<layer>.<function>`), a start and end on one
//! monotonic clock, the span that caused it, and the id of the trace
//! (one kernel simulation, one sdram drive, one engine pass) it belongs
//! to. Spans stay in memory while the run measures and are written out
//! when it ends. With tracing off, [`span`] only runs its closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The causing span, or 0 for a root.
    pub parent: u64,
    /// Shared by every span of one trace.
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer is the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
// Ids and statistics only: no other data is published through these.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off for the calls that follow.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A fresh trace id.
pub fn new_trace() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Runs `f` inside a span named `name`; `f` receives the span's id to
/// pass on as the parent of nested spans. Returns 0 as the id when
/// tracing is off.
pub fn span<T>(name: &'static str, parent: u64, trace: u64, f: impl FnOnce(u64) -> T) -> T {
    if !enabled() {
        return f(0);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    let out = f(id);
    let end_ns = now_ns();
    SPANS
        .lock()
        .expect("span recorder poisoned by a panic")
        .push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns,
        });
    out
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span recorder poisoned by a panic"))
}

/// Self time of each span: its duration minus the part of its interval
/// that its children cover (children on other threads may overlap, so
/// the covered part is the union of their intervals).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns - s.start_ns;
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
            kids.sort_unstable();
            let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            dur.saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0) += t;
    }
    out
}

/// Total duration of the spans named `name`, and how many there were.
pub fn total_ns(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(t, n), s| (t + (s.end_ns - s.start_ns), n + 1))
}

/// The spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            sp(1, 0, "bench.run", 0, 100),
            sp(2, 1, "pva-sim.run_until", 10, 50),
            // Overlaps the first child (another thread): counted once.
            sp(3, 1, "pva-sim.run_until", 40, 70),
            sp(4, 2, "sdram.issue", 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30, 10]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["bench"], 40);
        assert_eq!(layers["pva-sim"], 60);
        assert_eq!(layers["sdram"], 10);
    }
}
