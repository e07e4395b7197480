//! Column-major access to a row-major matrix — the paper's motivating
//! workload (§1: "an application accesses an array stored in row major
//! order along a column or a diagonal").
//!
//! Walks a column and the diagonal of a 256 x 256 row-major matrix on
//! all four memory systems, and shows how `SplitVector` (§4.3.2) breaks
//! the column walk at superpage boundaries using the memory controller's
//! TLB.
//!
//! Run with: `cargo run --example matrix_columns`

use pva::core::{split_vector, MmcTlb, PvaError, Vector};
use pva::kernels::{SystemKind, LINE_WORDS};
use pva::memsys::TraceOp;

const N: u64 = 256; // matrix dimension (words)

fn main() -> Result<(), PvaError> {
    let base = 0x10_0000;

    // Column 3 of a row-major N x N matrix: stride N, N elements.
    let column = Vector::new(base + 3, N, N)?;
    // Main diagonal: stride N + 1.
    let diagonal = Vector::new(base, N + 1, N)?;

    for (name, vector) in [("column walk", column), ("diagonal walk", diagonal)] {
        // The front end chunks the application vector into 32-word
        // commands (one L2 line each).
        let trace: Vec<TraceOp> = vector.chunks(LINE_WORDS).map(TraceOp::read).collect();
        println!(
            "{name}: stride {}, {} commands",
            vector.stride(),
            trace.len()
        );
        for mut sys in SystemKind::ALL.iter().map(|k| k.build()) {
            let out = sys.run_trace(&trace);
            println!(
                "  {:22} {:>8} cycles  {:>8} bytes moved",
                sys.name(),
                out.cycles,
                out.bytes_transferred
            );
        }
        println!();
    }

    // Virtual memory interaction: the same column walk through the MMC
    // TLB with 4 Ki-word superpages mapped to scattered frames.
    let mut tlb = MmcTlb::new();
    for (i, frame) in [
        7u64, 2, 11, 5, 0, 9, 13, 4, 1, 15, 3, 8, 6, 10, 14, 12, 16, 17,
    ]
    .iter()
    .enumerate()
    {
        tlb.map(pva::core::Superpage {
            vbase: base / 4096 * 4096 + i as u64 * 4096,
            pbase: frame * 4096,
            size_words: 4096,
        })?;
    }
    let subs = split_vector(&column, &tlb)?;
    println!(
        "SplitVector broke the column walk into {} physically-contiguous sub-vectors",
        subs.len()
    );
    let covered: u64 = subs.iter().map(|s| s.vector.length()).sum();
    assert_eq!(covered, N);
    println!(
        "covering all {covered} elements; TLB lookups: {}",
        tlb.lookup_count()
    );
    Ok(())
}
