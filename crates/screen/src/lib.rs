// Numeric kernels index multiple arrays in lockstep; iterator
// rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]

//! Approximate screening for extreme classification — the paper's core
//! algorithmic contribution (§4) plus the two approximation baselines it is
//! compared against (§6.1).
//!
//! The inference pipeline (paper Fig. 6):
//!
//! 1. **Screen** — project the hidden vector `h` to `k` dimensions with the
//!    sparse random matrix `P`, multiply by the learned low-dimensional
//!    classifier `W̃` (quantized to INT4 on hardware) to get approximate
//!    logits `z̃ = W̃ P h + b̃`.
//! 2. **Filter** — select candidates by threshold or top-m search.
//! 3. **Candidates-only classification** — compute exact logits
//!    `w_i · h + b_i` only for the selected rows of the full classifier.
//! 4. **Mix** — final output uses accurate values for candidates and the
//!    approximate values everywhere else, then softmax.
//!
//! Modules:
//!
//! * [`screener`] — the screening module (`P`, `W̃`, `b̃`) and its
//!   quantized inference path;
//! * [`train`] — Algorithm 1 (SGD on the MSE distillation loss) and a
//!   closed-form least-squares fit used as a fast alternative;
//! * [`infer`] — the end-to-end approximate classification pipeline with
//!   cost accounting;
//! * [`cost`] — operation/byte accounting and the bandwidth-bound CPU
//!   speedup model used for the Fig. 11/12 x-axes;
//! * [`svd`] — the SVD-softmax baseline (Shim et al., NeurIPS'17);
//! * [`fgd`] — the FGD baseline (Zhang et al., NeurIPS'18): graph-based
//!   nearest-neighbour decoding;
//! * [`mach`] — the MACH related-work point (Medini et al., NeurIPS'19):
//!   count-min-sketch classification, included so the paper's accuracy
//!   criticism of it can be measured.

pub mod cost;
pub mod fgd;
pub mod hierarchical;
pub mod infer;
pub mod mach;
pub mod screener;
pub mod svd;
pub mod train;

pub use cost::{ClassificationCost, CpuCostModel};
pub use infer::{ApproxClassifier, ApproxOutput, SelectionPolicy};
pub use screener::{Screener, ScreenerConfig};
pub use train::{fit_least_squares, train_sgd, TrainConfig, TrainReport};
