//! The §6.2 experiment harness: 8 access patterns x 6 strides x 5
//! relative alignments, on each of the four memory systems — the 240
//! data points per system behind figures 7–11.

use memsys::{CachelineSerial, MemorySystem, PvaSystem, SerialGather};

use crate::alignment::Alignment;
use crate::kernel::Kernel;

/// Word spacing between kernel arrays (disjoint regions).
pub const ARRAY_REGION: u64 = 1 << 22;

/// Application-vector length in elements (§6.2: 1024 = 32 cache lines).
pub const ELEMENTS: u64 = 1024;

/// Vector-command length in words (one 128-byte L2 line).
pub const LINE_WORDS: u64 = 32;

/// The strides of figures 7–10.
pub const STRIDES: [u64; 6] = [1, 2, 4, 8, 16, 19];

/// One of the four §6.1 memory systems, by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// The PVA prototype over SDRAM.
    PvaSdram,
    /// The PVA front end over idealized single-cycle SRAM.
    PvaSram,
    /// Cache-line interleaved serial SDRAM (20-cycle line fills).
    CachelineSerial,
    /// Gathering pipelined serial SDRAM.
    SerialGather,
}

impl SystemKind {
    /// All four systems in the paper's plotting order.
    pub const ALL: [SystemKind; 4] = [
        SystemKind::PvaSdram,
        SystemKind::PvaSram,
        SystemKind::CachelineSerial,
        SystemKind::SerialGather,
    ];

    /// Instantiates the system.
    pub fn build(&self) -> Box<dyn MemorySystem> {
        match self {
            SystemKind::PvaSdram => Box::new(PvaSystem::sdram()),
            SystemKind::PvaSram => Box::new(PvaSystem::sram()),
            SystemKind::CachelineSerial => Box::new(CachelineSerial::default()),
            SystemKind::SerialGather => Box::new(SerialGather::default()),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::PvaSdram => "pva-sdram",
            SystemKind::PvaSram => "pva-sram",
            SystemKind::CachelineSerial => "cacheline-serial",
            SystemKind::SerialGather => "serial-gather",
        }
    }
}

/// Min/max cycles of a (kernel, stride, system) cell over the five
/// alignments — the paired bars of figures 7–10.
#[derive(Debug, Clone, Copy)]
pub struct CellResult {
    /// Fastest alignment.
    pub min: u64,
    /// Slowest alignment.
    pub max: u64,
    /// Bytes moved by the fastest alignment's run.
    pub bytes: u64,
}

/// Runs one data point, returning the full memory-system outcome
/// (cycles plus bytes moved and command statistics).
pub fn run_point_outcome(
    kernel: Kernel,
    stride: u64,
    alignment: Alignment,
    system: SystemKind,
) -> memsys::RunOutcome {
    let bases = alignment.bases(kernel.array_count(), ARRAY_REGION);
    let trace = kernel.trace(&bases, stride, ELEMENTS, LINE_WORDS);
    system.build().run_trace(&trace)
}

/// Runs one data point.
pub fn run_point(kernel: Kernel, stride: u64, alignment: Alignment, system: SystemKind) -> u64 {
    run_point_outcome(kernel, stride, alignment, system).cycles
}

/// Runs a (kernel, stride, system) cell over all five alignments.
pub fn run_cell(kernel: Kernel, stride: u64, system: SystemKind) -> CellResult {
    let mut min = u64::MAX;
    let mut max = 0;
    let mut bytes = 0;
    for a in Alignment::ALL {
        let o = run_point_outcome(kernel, stride, a, system);
        if o.cycles < min {
            min = o.cycles;
            bytes = o.bytes_transferred;
        }
        max = max.max(o.cycles);
    }
    CellResult { min, max, bytes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_counts_match_section_6_2() {
        // 8 patterns x 6 strides x 5 alignments = 240 per system.
        assert_eq!(
            Kernel::ALL.len() * STRIDES.len() * Alignment::ALL.len(),
            240
        );
    }

    #[test]
    fn system_names_are_distinct() {
        let mut names: Vec<&str> = SystemKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SystemKind::ALL.len());
    }

    #[test]
    fn scale_is_alignment_insensitive_on_pva() {
        // §6.3.1: scale touches a single vector, so relative alignment
        // cannot matter.
        let cell = run_cell(Kernel::Scale, 4, SystemKind::PvaSdram);
        assert_eq!(cell.min, cell.max);
    }

    #[test]
    fn cacheline_system_degrades_with_stride() {
        let s1 = run_point(
            Kernel::Copy,
            1,
            Alignment::Coincident,
            SystemKind::CachelineSerial,
        );
        let s4 = run_point(
            Kernel::Copy,
            4,
            Alignment::Coincident,
            SystemKind::CachelineSerial,
        );
        let s16 = run_point(
            Kernel::Copy,
            16,
            Alignment::Coincident,
            SystemKind::CachelineSerial,
        );
        assert!(s1 < s4 && s4 < s16);
        assert_eq!(s4, 4 * s1);
        assert_eq!(s16, 16 * s1);
    }

    #[test]
    fn pva_flat_across_parallel_strides() {
        // The PVA's defining property: stride 19 costs about the same as
        // stride 1 (§6.3.1).
        let s1 = run_cell(Kernel::Scale, 1, SystemKind::PvaSdram);
        let s19 = run_cell(Kernel::Scale, 19, SystemKind::PvaSdram);
        assert!(
            (s19.min as f64) < s1.min as f64 * 1.6,
            "stride19 {} vs stride1 {}",
            s19.min,
            s1.min
        );
    }

    #[test]
    fn run_point_is_deterministic() {
        let a = run_point(
            Kernel::Vaxpy,
            8,
            Alignment::RowStagger,
            SystemKind::PvaSdram,
        );
        let b = run_point(
            Kernel::Vaxpy,
            8,
            Alignment::RowStagger,
            SystemKind::PvaSdram,
        );
        assert_eq!(a, b);
    }
}
