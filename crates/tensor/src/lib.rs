// Numeric kernels and their tests index arrays directly; iterator
// rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]
// Every unsafe block (the SIMD kernels) states why it is sound.
#![deny(clippy::undocumented_unsafe_blocks)]

//! Dense linear algebra, quantization, and numeric kernels for the ENMC
//! reproduction.
//!
//! This crate is the lowest layer of the workspace: everything that touches
//! raw numbers lives here so that the algorithm crate (`enmc-screen`), the
//! workload crate (`enmc-model`) and the architecture simulator
//! (`enmc-arch`) can share bit-exact kernels.
//!
//! The important pieces are:
//!
//! * [`Matrix`] / [`Vector`] — row-major `f32` dense storage with the
//!   matrix-vector products that dominate extreme classification
//!   (`z = W h + b`, paper Eq. 1).
//! * [`quant`] — symmetric linear quantization to INT2/INT4/INT8 with integer
//!   multiply-accumulate semantics matching the Screener's fixed-point MAC
//!   array (paper §5.2).
//! * [`projection`] — the Achlioptas sparse random projection
//!   `P ∈ √(3/k)·{−1,0,1}^{k×d}` used by the screening module (paper Eq. 3).
//! * [`activation`] — numerically stable softmax/sigmoid plus the 4th-order
//!   Taylor exponential used by the Executor's special-function unit
//!   (paper §6.2).
//! * [`select`] — top-k and threshold candidate selection (paper §4.2).
//! * [`dist`] — the random distributions (Gaussian, Zipf) used to synthesize
//!   workloads, implemented in-repo to keep the dependency set minimal.
//!
//! # Example
//!
//! ```
//! use enmc_tensor::{Matrix, Vector};
//!
//! // A tiny 4-category classifier with hidden dimension 3.
//! let w = Matrix::from_rows(&[
//!     &[1.0, 0.0, 0.0][..],
//!     &[0.0, 1.0, 0.0][..],
//!     &[0.0, 0.0, 1.0][..],
//!     &[1.0, 1.0, 1.0][..],
//! ]);
//! let h = Vector::from(vec![0.5, -0.25, 2.0]);
//! let z = w.matvec(&h);
//! assert_eq!(z.as_slice(), &[0.5, -0.25, 2.0, 2.25]);
//! ```

pub mod activation;
pub mod dist;
pub mod matrix;
pub mod packed;
pub mod projection;
pub mod quant;
pub mod select;
pub mod stats;

pub use activation::{sigmoid, softmax, softmax_in_place, taylor_exp, TAYLOR_EXP_ORDER};
pub use matrix::{Matrix, Vector};
pub use packed::{pack_codes, unpack_codes, PackedInt4};
pub use projection::SparseProjection;
pub use quant::{Precision, QuantMatrix, QuantMatrixPerRow, QuantVector};
pub use select::{threshold_filter, top_k_indices, Candidate};

/// Error type for shape mismatches and invalid numeric arguments.
///
/// All fallible constructors and kernels in this crate return
/// `Result<_, TensorError>`; panicking variants are documented as such.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes.
    ShapeMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Shape expected by the operation.
        expected: (usize, usize),
        /// Shape actually provided.
        found: (usize, usize),
    },
    /// An argument was outside its valid domain (e.g. zero dimension).
    InvalidArgument(&'static str),
}

impl core::fmt::Display for TensorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, expected, found } => write!(
                f,
                "shape mismatch in {op}: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            TensorError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}
