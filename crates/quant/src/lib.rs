//! Fixed-point arithmetic substrate modeling the TIE datapath.
//!
//! The TIE prototype (paper Table 5) quantizes weights and activations to
//! **16 bits** and accumulates in **24-bit** registers; each PE holds
//! 16-bit multipliers and 24-bit accumulators. This crate provides that
//! arithmetic as a reusable substrate:
//!
//! * [`QFormat`] — a runtime Q-number format (signed, 16-bit container,
//!   configurable fraction bits),
//! * [`QTensor`] — a quantized tensor with saturation-aware conversion,
//! * [`Accumulator`] — the 24-bit saturating MAC register,
//! * [`qmatmul`] — the quantized matrix multiply, with saturation-event
//!   reporting, over [`QTensor`]s; [`qmatmul_raw`] is the same kernel on
//!   raw code slices,
//! * [`qmatmul_raw_mapped`] — the one stage-GEMM entry the quantized
//!   engines and the simulator's fast path call: the inter-stage
//!   Transform is fused into the store through a `DestMap`, and the
//!   final-stage activation is an argument that picks the requantization
//!   epilogue (`Requant` or `RequantRelu`),
//! * [`error_stats`] — quantization-error measurement helpers.
//!
//! # Example
//!
//! ```
//! use tie_quant::{QFormat, QTensor};
//! use tie_tensor::Tensor;
//!
//! # fn main() -> Result<(), tie_tensor::TensorError> {
//! let fmt = QFormat::new(12)?; // Q3.12, step 2^-12
//! let t = Tensor::<f64>::from_vec(vec![2], vec![0.5, -1.25])?;
//! let q = QTensor::quantize(&t, fmt);
//! let back = q.dequantize();
//! assert!(back.approx_eq(&t, fmt.step() / 2.0));
//! # Ok(())
//! # }
//! ```

// Since the Tile/Stage/Global refactor the vectorized `qmatmul` is an
// instantiation of `tie_tensor::tile`'s streaming stage (which owns the
// sanctioned `#[target_feature]` / scatter-store unsafety); this crate
// itself contains **zero** `unsafe` code, so `forbid` would also hold —
// `deny` is kept for symmetry with the rest of the workspace.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod accumulator;
mod format;
mod qtensor;

pub mod matmul;
pub mod stats;

pub use accumulator::Accumulator;
pub use format::QFormat;
pub use matmul::{
    alignment, qmatmul, qmatmul_into, qmatmul_naive, qmatmul_raw, qmatmul_raw_mapped,
    QMatmulReport, QuantPath,
};
pub use qtensor::QTensor;
pub use stats::error_stats;

pub use tie_tensor::{Result, TensorError};
