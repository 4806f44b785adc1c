//! **The TIE paper's primary contribution**: the compact TT-format
//! inference scheme (ISCA '19, §3.2, Algorithm 1).
//!
//! The naive TT inference of Eqn. (2) (implemented in
//! [`tie_tt::inference`]) recomputes identical core-slice products for every
//! pair of output elements that shares index prefixes. The compact scheme
//! removes all of that redundancy by restructuring the computation into `d`
//! *stages*, one per tensor core, processed from core `d` down to core `1`:
//!
//! ```text
//! X' = PrepareInput(x)                       // Eqn. (8)
//! V'_{d+1} = X'
//! for h = d, d-1, …, 1:
//!     V_h  = G̃_h · V'_{h+1}                  // one matrix multiply, Eqn. (9)/(11)
//!     V'_h = Transform(V_h, h)               // Eqn. (10), pure permutation
//! y = AssembleOutput(V_1)
//! ```
//!
//! where `G̃_h` is the `(m_h r_{h-1}) × (n_h r_h)` unfolding of core `G_h`.
//! Each stage touches exactly one tensor core (the paper's memory-traffic
//! argument) and the total multiply count is the per-stage product sum
//! implemented in [`counts::mul_compact`] — three orders of magnitude below
//! Eqn. (3) for the paper's VGG workloads (§3.1).
//!
//! Module map:
//!
//! * [`transform`] — the index bijections: input preparation (Eqn. 8), the
//!   inter-stage transform (Eqn. 10), output assembly; all exposed both as
//!   tensor operations and as raw index maps (the cycle simulator in
//!   `tie-sim` replays the same maps through its SRAM read scheme).
//! * [`indexmap`] — the symbolic indexing-map compiler: every Transform
//!   step as a strided affine map, composed into a single map per stage
//!   and lowered into the fused GEMM write epilogues (`DestMap`) and
//!   minimal cold-path copy plans ([`indexmap::CopyPlan`]).
//! * [`plan`] — [`plan::InferencePlan`]: per-stage dimensions, multiply
//!   counts and buffer sizes computed from a [`TtShape`] alone.
//! * [`counts`] — the paper's analytical formulas: Eqn. (3) naive count,
//!   Eqn. (7) as printed, the compact-scheme count, and the §3.2
//!   working-set bound.
//! * [`scheme`] — [`scheme::CompactEngine`]: the executable scheme with
//!   operation counters.
//! * [`costing`] — the analytic Fig. 7 cycle model ([`costing::CostModel`])
//!   as a pure function of plan + hardware geometry, with batched and
//!   pipelined extensions; the planner-side scoring hook the deployment
//!   autotuner searches with (the simulator delegates here).
//! * [`deploy`] — serializable per-layer [`deploy::DeploymentPlan`]s: the
//!   autotuner's output artifact (JSON, bit-identical round-trip) that the
//!   serving registry can load to reconstruct engines directly.
//! * [`pipeline`] — pipeline-parallel execution of one layer's stage
//!   chain: a cut-point planner balancing per-stage MAC/SRAM costs and a
//!   [`pipeline::StagePipeline`] executor streaming micro-batched `V'_h`
//!   chunks through bounded channels on dedicated stage threads,
//!   bit-identical to the sequential engine at any cut count.
//!
//! # Example
//!
//! ```
//! use tie_tensor::{Tensor, linalg::{matvec, Truncation}};
//! use tie_tt::TtMatrix;
//! use tie_core::scheme::CompactEngine;
//!
//! # fn main() -> Result<(), tie_tensor::TensorError> {
//! let w = Tensor::<f64>::from_fn(vec![4, 6], |i| ((i[0] + 2 * i[1]) % 5) as f64)?;
//! let x = Tensor::<f64>::from_fn(vec![6], |i| i[0] as f64 * 0.5)?;
//! let tt = TtMatrix::from_dense(&w, &[2, 2], &[3, 2], Truncation::none())?;
//! let engine = CompactEngine::new(tt)?;
//! let (y, stats) = engine.matvec(&x)?;
//! assert!(y.approx_eq(&matvec(&w, &x)?, 1e-9));
//! assert_eq!(stats.mults, engine.plan().total_muls());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costing;
pub mod counts;
pub mod deploy;
pub mod indexmap;
pub mod pipeline;
pub mod plan;
pub mod scheme;
pub mod scratch;
pub mod transform;

pub use costing::CostModel;
pub use deploy::{plans_from_json, plans_to_json, DeploymentPlan, PlanBackend};
pub use pipeline::{CutPlan, FloatChain, PipelineConfig, StagePipeline};
pub use plan::InferencePlan;
pub use scheme::CompactEngine;
pub use tie_tensor::tile::Activation;
pub use tie_tensor::{Result, TensorError};
pub use tie_tt::TtShape;
