//! The "cache line interleaved serial SDRAM" comparator (§6.1).
//!
//! An idealized 16-module SDRAM system optimized for line fills: every
//! distinct 128-byte line touched by a vector is fetched whole, and each
//! fill costs 20 cycles — two for RAS, two for CAS, sixteen for the
//! 64-bit-bus data burst. Precharges are (optimistically) overlapped
//! with other modules and writes cost the same as reads, exactly as the
//! paper assumes. No gathering: sparse vectors waste bus and DRAM
//! bandwidth on unused words, which is the inefficiency the PVA exists
//! to remove.

use std::collections::BTreeSet;

use crate::trace::{trace_elements, MemorySystem, RunOutcome, RunStats, TraceOp, WORD_BYTES};

/// Configuration of the idealized line-fill system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachelineConfig {
    /// Words per cache line (32 in the prototype: 128 B of 4-byte words).
    pub line_words: u64,
    /// RAS cycles per fill.
    pub ras: u64,
    /// CAS cycles per fill.
    pub cas: u64,
    /// Data-burst cycles per fill (line bytes over the 64-bit bus).
    pub burst: u64,
}

impl Default for CachelineConfig {
    fn default() -> Self {
        CachelineConfig {
            line_words: 32,
            ras: 2,
            cas: 2,
            burst: 16,
        }
    }
}

impl CachelineConfig {
    /// Cycles per line fill (20 in the paper).
    pub const fn fill_cycles(&self) -> u64 {
        self.ras + self.cas + self.burst
    }
}

/// The serial line-fill memory system.
///
/// # Examples
///
/// ```
/// use memsys::{CachelineSerial, MemorySystem, TraceOp};
/// use pva_core::Vector;
///
/// let mut sys = CachelineSerial::default();
/// // A unit-stride 32-word vector touches exactly one line: 20 cycles.
/// let t = [TraceOp::read(Vector::new(0, 1, 32)?)];
/// assert_eq!(sys.run_trace(&t).cycles, 20);
/// // Stride 16 touches 16 lines: 320 cycles for the same 32 words —
/// // and 16x the bus traffic, which the outcome makes visible.
/// let t = [TraceOp::read(Vector::new(0, 16, 32)?)];
/// let out = sys.run_trace(&t);
/// assert_eq!(out.cycles, 320);
/// assert_eq!(out.bytes_transferred, 16 * 32 * 4);
/// # Ok::<(), pva_core::PvaError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct CachelineSerial {
    config: CachelineConfig,
}

impl CachelineSerial {
    /// Creates the system with explicit parameters.
    pub fn new(config: CachelineConfig) -> Self {
        CachelineSerial { config }
    }

    /// Number of distinct lines a vector touches.
    pub fn lines_touched(&self, op: &TraceOp) -> u64 {
        let lw = self.config.line_words;
        let lines: BTreeSet<u64> = op.vector.addresses().map(|a| a / lw).collect();
        lines.len() as u64
    }
}

impl MemorySystem for CachelineSerial {
    fn name(&self) -> &'static str {
        "cacheline-serial-sdram"
    }

    fn run_trace(&mut self, trace: &[TraceOp]) -> RunOutcome {
        let lines: u64 = trace.iter().map(|op| self.lines_touched(op)).sum();
        RunOutcome {
            cycles: lines * self.config.fill_cycles(),
            // Whole lines cross the bus whether their words are useful
            // or not — the waste the PVA exists to remove.
            bytes_transferred: lines * self.config.line_words * WORD_BYTES,
            stats: RunStats {
                commands: trace.len() as u64,
                elements: trace_elements(trace),
                // One RAS per fill; precharges overlap with other
                // modules per the paper's idealization.
                activates: lines,
                precharges: 0,
            },
        }
    }

    fn reset(&mut self) {
        // Closed-form model: stateless between runs.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pva_core::Vector;

    fn read(base: u64, stride: u64, len: u64) -> TraceOp {
        TraceOp::read(Vector::new(base, stride, len).unwrap())
    }

    #[test]
    fn line_counting_by_stride() {
        let sys = CachelineSerial::default();
        // Stride 1..32 with 32 elements touches ~stride lines.
        assert_eq!(sys.lines_touched(&read(0, 1, 32)), 1);
        assert_eq!(sys.lines_touched(&read(0, 2, 32)), 2);
        assert_eq!(sys.lines_touched(&read(0, 4, 32)), 4);
        assert_eq!(sys.lines_touched(&read(0, 8, 32)), 8);
        assert_eq!(sys.lines_touched(&read(0, 16, 32)), 16);
        assert_eq!(sys.lines_touched(&read(0, 19, 32)), 19);
        assert_eq!(sys.lines_touched(&read(0, 32, 32)), 32);
        // Beyond line-size strides, still one line per element.
        assert_eq!(sys.lines_touched(&read(0, 64, 32)), 32);
    }

    #[test]
    fn unaligned_vector_may_touch_one_extra_line() {
        let sys = CachelineSerial::default();
        // 32 unit-stride words starting mid-line span two lines.
        assert_eq!(sys.lines_touched(&read(16, 1, 32)), 2);
    }

    #[test]
    fn trace_costs_sum() {
        let mut sys = CachelineSerial::default();
        let t = [read(0, 1, 32), read(4096, 16, 32)];
        let out = sys.run_trace(&t);
        assert_eq!(out.cycles, 20 + 320);
        // 17 lines of 32 words fetched for 64 useful elements.
        assert_eq!(out.bytes_transferred, 17 * 32 * 4);
        assert_eq!(out.stats.elements, 64);
        assert_eq!(out.stats.commands, 2);
        assert_eq!(out.stats.activates, 17);
    }

    #[test]
    fn configured_burst_sets_the_fill_cost() {
        let mut sys = CachelineSerial::new(CachelineConfig {
            burst: 32,
            ..CachelineConfig::default()
        });
        // 2 + 2 + 32 = 36 cycles per fill instead of the default 20.
        assert_eq!(sys.run_trace(&[read(0, 1, 32)]).cycles, 36);
    }

    #[test]
    fn writes_cost_like_reads() {
        let mut sys = CachelineSerial::default();
        let r = [read(0, 4, 32)];
        let w = [TraceOp::write(Vector::new(0, 4, 32).unwrap())];
        assert_eq!(sys.run_trace(&r), sys.run_trace(&w));
    }
}
