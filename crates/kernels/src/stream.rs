//! McCalpin STREAM kernels (§2.4.1).
//!
//! The paper benchmarks the Alpha 21174's hot-row management with
//! "McCalpin's STREAM benchmark" (23% latency / 7% bandwidth
//! improvements). STREAM's four kernels — Copy, Scale, Sum (Add) and
//! Triad — are unit-stride by construction; on the PVA they run at the
//! line-fill rate, and this module reports the sustained bandwidth the
//! simulated memory system achieves on them, in bytes per cycle (scale
//! by the clock to get MB/s; the prototype's 100 MHz gives
//! `bytes/cycle x 100e6 / 1e6` MB/s).

use memsys::{MemorySystem, TraceOp};
use pva_core::Vector;

/// One of the four STREAM kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKernel {
    /// `c[i] = a[i]`
    Copy,
    /// `b[i] = q * c[i]`
    Scale,
    /// `c[i] = a[i] + b[i]`
    Sum,
    /// `a[i] = b[i] + q * c[i]`
    Triad,
}

impl StreamKernel {
    /// All four kernels in STREAM's reporting order.
    pub const ALL: [StreamKernel; 4] = [
        StreamKernel::Copy,
        StreamKernel::Scale,
        StreamKernel::Sum,
        StreamKernel::Triad,
    ];

    /// Kernel name as STREAM prints it.
    pub const fn name(&self) -> &'static str {
        match self {
            StreamKernel::Copy => "Copy",
            StreamKernel::Scale => "Scale",
            StreamKernel::Sum => "Add",
            StreamKernel::Triad => "Triad",
        }
    }

    /// Number of arrays read per iteration.
    pub const fn reads(&self) -> usize {
        match self {
            StreamKernel::Copy | StreamKernel::Scale => 1,
            StreamKernel::Sum | StreamKernel::Triad => 2,
        }
    }

    /// Words moved per element (reads + the written word) — STREAM's
    /// official byte-counting rule.
    pub const fn words_per_element(&self) -> u64 {
        self.reads() as u64 + 1
    }

    /// The unit-stride command trace for `elements` elements with
    /// `line_words`-word commands and arrays spaced `region` words
    /// apart.
    ///
    /// # Panics
    ///
    /// Panics if `elements` is not a multiple of `line_words`.
    pub fn trace(&self, elements: u64, line_words: u64, region: u64) -> Vec<TraceOp> {
        assert_eq!(elements % line_words, 0, "whole lines only");
        let a = 0u64;
        let b = region;
        let c = 2 * region;
        let mut out = Vec::new();
        for chunk in 0..(elements / line_words) {
            let off = chunk * line_words;
            let line = |base: u64| Vector::new(base + off, 1, line_words).expect("unit stride");
            match self {
                StreamKernel::Copy => {
                    out.push(TraceOp::read(line(a)));
                    out.push(TraceOp::write(line(c)));
                }
                StreamKernel::Scale => {
                    out.push(TraceOp::read(line(c)));
                    out.push(TraceOp::write(line(b)));
                }
                StreamKernel::Sum => {
                    out.push(TraceOp::read(line(a)));
                    out.push(TraceOp::read(line(b)));
                    out.push(TraceOp::write(line(c)));
                }
                StreamKernel::Triad => {
                    out.push(TraceOp::read(line(b)));
                    out.push(TraceOp::read(line(c)));
                    out.push(TraceOp::write(line(a)));
                }
            }
        }
        out
    }

    /// Sustained bandwidth of `system` on this kernel, in bytes per
    /// cycle (4-byte words, STREAM byte counting).
    pub fn bandwidth(&self, system: &mut dyn MemorySystem, elements: u64) -> f64 {
        let trace = self.trace(elements, 32, 1 << 22);
        let cycles = system.run_trace(&trace).cycles;
        (elements * self.words_per_element() * 4) as f64 / cycles as f64
    }
}

impl core::fmt::Display for StreamKernel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::{CachelineSerial, PvaSystem};
    use pva_sim::OpKind;

    #[test]
    fn traces_have_stream_shapes() {
        for k in StreamKernel::ALL {
            let t = k.trace(1024, 32, 1 << 22);
            let reads = t.iter().filter(|op| op.kind == OpKind::Read).count();
            let writes = t.len() - reads;
            assert_eq!(reads, k.reads() * 32, "{k}");
            assert_eq!(writes, 32, "{k}");
            assert!(t.iter().all(|op| op.vector.stride() == 1));
        }
    }

    #[test]
    fn triad_moves_more_bytes_than_copy() {
        let mut sys = PvaSystem::sdram();
        let copy = StreamKernel::Copy.bandwidth(&mut sys, 1024);
        let triad = StreamKernel::Triad.bandwidth(&mut sys, 1024);
        assert!(copy > 0.0 && triad > 0.0);
        // Both are bus-bound at ~8 bytes/cycle on the 64-bit bus.
        assert!(copy <= 8.5 && triad <= 8.5);
    }

    #[test]
    fn pva_sustains_near_bus_bandwidth_on_stream() {
        // The EXPERIMENTS.md STREAM row (`examples/stream_bandwidth.rs`,
        // 4096 elements): the PVA sustains 753 MB/s at 100 MHz, 94% of
        // the 8-bytes/cycle bus, while the cache-line system is held to
        // 640 MB/s by its 20-cycle fill per 128-byte line.
        for k in StreamKernel::ALL {
            let pva = k.bandwidth(&mut PvaSystem::sdram(), 4096);
            let cls = k.bandwidth(&mut CachelineSerial::default(), 4096);
            assert!(pva >= 7.5, "{k}: pva {pva:.2} B/cycle");
            assert!(cls <= 6.4, "{k}: cache-line {cls:.2} B/cycle");
        }
    }
}
