//! # kernels — Table-2 workloads and the PVA experiment harness
//!
//! The six vector kernels of the paper's evaluation (plus the unrolled
//! `copy2`/`scale2` variants), the five relative-alignment presets, and
//! the sweep machinery that produces the 240 data points per memory
//! system behind figures 7–11.
//!
//! ```
//! use kernels::{run_cell, Kernel, SystemKind};
//!
//! // One (kernel, stride, system) cell: min/max cycles over the five
//! // relative alignments — one paired bar of figure 7.
//! let cell = run_cell(Kernel::Copy, 4, SystemKind::PvaSdram);
//! assert!(cell.min <= cell.max);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alignment;
mod experiment;
mod kernel;
mod stream;

pub use alignment::Alignment;
pub use experiment::{
    run_cell, run_point, run_point_outcome, CellResult, SystemKind, ARRAY_REGION, ELEMENTS,
    LINE_WORDS, STRIDES,
};
pub use kernel::{Access, ArrayIndex, Kernel};
pub use stream::StreamKernel;
