//! One served layer: the [`Engine`] value that the registry stores, the
//! workers execute, and the sharded layer partitions.
//!
//! TIE drives every layer through one datapath, configured per layer
//! (PAPER.md, Fig. 7). The serving layer mirrors that: whichever backend
//! prepared a layer — the float [`CompactEngine`], the bit-accurate
//! fixed-point [`QuantizedEngine`], or the pipeline-parallel
//! [`PipelinedEngine`] wrapping either — it is served as one `Engine`
//! with one batched [`Engine::run`] that reports everything the service
//! counters need in one [`BatchReport`].
//!
//! Engines are held behind [`Arc`], so the registry, every client handle
//! and every partition share one prepared layer without copying its
//! unfolded cores or index maps. All three backends are `Send + Sync`
//! (audited in their crates). The float and quantized engines are
//! immutable: their stage scratch belongs to the calling thread
//! ([`tie_core::scratch`]). Only a pipeline has state of its own, its
//! stage threads, so a worker takes an [`Engine::private_clone`] to stream
//! through threads of its own.

use std::sync::Arc;
use tie_core::pipeline::PipeRunStats;
use tie_core::CompactEngine;
use tie_quant::QMatmulReport;
use tie_sim::{PipelinedEngine, QuantizedEngine};
use tie_tensor::Result;

/// A prepared layer of any backend, shared by `Arc`: what
/// [`crate::EngineRegistry`] stores and the service workers run. Each
/// backend engine, owned or in an `Arc`, converts with `From`.
#[derive(Debug, Clone)]
pub enum Engine {
    /// The float reference datapath.
    Float(Arc<CompactEngine<f64>>),
    /// The bit-accurate 16-bit fixed-point datapath; feeds the `quant_*`
    /// counters of [`crate::ServiceStats`].
    Quantized(Arc<QuantizedEngine>),
    /// Either datapath streamed through a stage pipeline; additionally
    /// feeds the `pipeline_*` counters.
    Pipelined(Arc<PipelinedEngine>),
}

/// What one batch reports to the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Saturation counters of the fixed-point datapath (all zero on the
    /// float one).
    pub quant: QMatmulReport,
    /// Scheduling telemetry, `Some` iff the batch ran pipelined.
    pub pipeline: Option<PipeRunStats>,
    /// Bytes actually copied over the whole batch (input preparation).
    pub bytes_moved: u64,
    /// Bytes of permutation traffic the fused write epilogues did not
    /// copy over the whole batch.
    pub transform_elided_bytes: u64,
}

impl Engine {
    /// `(rows M, cols N)` of the layer.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        match self {
            Engine::Float(e) => {
                let shape = e.matrix().shape();
                (shape.num_rows(), shape.num_cols())
            }
            Engine::Quantized(e) => (e.num_rows(), e.num_cols()),
            Engine::Pipelined(e) => (e.num_rows(), e.num_cols()),
        }
    }

    /// True when the layer runs the fixed-point datapath (sequentially
    /// or pipelined).
    #[must_use]
    pub fn is_quantized(&self) -> bool {
        match self {
            Engine::Float(_) => false,
            Engine::Quantized(_) => true,
            Engine::Pipelined(e) => e.is_quantized(),
        }
    }

    /// Per-sample copy traffic `(bytes_moved, transform_elided_bytes)`:
    /// what the engine still copies (input preparation) and what its
    /// fused write epilogues no longer re-copy (inter-stage Transform and
    /// output assembly).
    fn traffic_per_sample(&self) -> (u64, u64) {
        match self {
            Engine::Float(e) => (
                e.bytes_moved_per_sample(),
                e.transform_elided_bytes_per_sample(),
            ),
            Engine::Quantized(e) => (
                e.bytes_moved_per_sample(),
                e.transform_elided_bytes_per_sample(),
            ),
            Engine::Pipelined(e) => (
                e.bytes_moved_per_sample(),
                e.transform_elided_bytes_per_sample(),
            ),
        }
    }

    /// A copy that shares nothing mutable with `self`. The float and
    /// quantized engines have no mutable state (their scratch belongs to
    /// the calling thread), so they are shared, not copied. A pipeline
    /// gets its own `depth − 1` stage threads over the same immutable
    /// layer data; TT compression keeps that copy cheap: `num_params`
    /// weights plus the index vectors, orders of magnitude below the dense
    /// layer.
    #[must_use]
    pub(crate) fn private_clone(&self) -> Engine {
        match self {
            Engine::Pipelined(e) => Engine::Pipelined(Arc::new((**e).clone())),
            stateless => stateless.clone(),
        }
    }

    /// Batched matvec: `xs` is `N × b` and `ys` is `M × b`, both row-major
    /// with the batch inner-most. Bitwise identical to `b` single-input
    /// calls on every backend.
    ///
    /// # Errors
    ///
    /// Wrong buffer lengths or `b == 0`.
    pub fn run(&self, xs: &[f64], b: usize, ys: &mut [f64]) -> Result<BatchReport> {
        let (quant, pipeline) = match self {
            Engine::Float(e) => e
                .matvec_batch_into(xs, b, ys)
                .map(|_ops| (QMatmulReport::default(), None))?,
            Engine::Quantized(e) => (e.matvec_batch_into(xs, b, ys)?, None),
            Engine::Pipelined(e) => e
                .matvec_batch_into(xs, b, ys)
                .map(|r| (r.quant, Some(r.run)))?,
        };
        let (moved, elided) = self.traffic_per_sample();
        Ok(BatchReport {
            quant,
            pipeline,
            bytes_moved: moved * b as u64,
            transform_elided_bytes: elided * b as u64,
        })
    }
}

/// `From` the engine itself (wrapped in a new `Arc`) and from an already
/// shared `Arc` (kept as is), so [`crate::EngineRegistry::insert`] takes
/// either.
macro_rules! engine_from {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for Engine {
            fn from(engine: $ty) -> Self {
                Engine::$variant(Arc::new(engine))
            }
        }

        impl From<Arc<$ty>> for Engine {
            fn from(engine: Arc<$ty>) -> Self {
                Engine::$variant(engine)
            }
        }
    };
}

engine_from!(Float, CompactEngine<f64>);
engine_from!(Quantized, QuantizedEngine);
engine_from!(Pipelined, PipelinedEngine);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use tie_core::PipelineConfig;
    use tie_sim::QuantConfig;
    use tie_tt::{TtMatrix, TtShape};

    /// One engine of each backend over the same random 12×12 layer.
    fn engines(seed: u64) -> Vec<Engine> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let shape = TtShape::uniform_rank(vec![2, 3, 2], vec![2, 3, 2], 2).unwrap();
        let matrix = TtMatrix::random(&mut rng, &shape, 0.5).unwrap();
        let float = CompactEngine::new(matrix.clone()).unwrap();
        let quant = QuantizedEngine::new(matrix, QuantConfig::default()).unwrap();
        let pipe = PipelineConfig {
            depth: 3,
            micro_batch: 1,
        };
        vec![
            Engine::from(float.clone()),
            Engine::from(quant.clone()),
            Engine::from(PipelinedEngine::float(&float, pipe).unwrap()),
            Engine::from(PipelinedEngine::quantized(&quant, pipe).unwrap()),
        ]
    }

    #[test]
    fn every_backend_reports_dims_and_datapath() {
        let kinds: Vec<(bool, bool)> = engines(1)
            .iter()
            .map(|e| {
                assert_eq!(e.dims(), (12, 12));
                (e.is_quantized(), matches!(e, Engine::Pipelined(_)))
            })
            .collect();
        assert_eq!(
            kinds,
            vec![(false, false), (true, false), (false, true), (true, true)]
        );
    }

    #[test]
    fn private_clone_copies_mutable_backends_and_runs_bit_identically() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let b = 3;
        let xs: Vec<f64> = (0..12 * b).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for engine in engines(2) {
            let clone = engine.private_clone();
            // The float and quantized engines have no mutable state, so
            // their clones share the `Arc`; a pipeline gets its own copy.
            let as_expected = match (&engine, &clone) {
                (Engine::Float(a), Engine::Float(c)) => Arc::ptr_eq(a, c),
                (Engine::Quantized(a), Engine::Quantized(c)) => Arc::ptr_eq(a, c),
                (Engine::Pipelined(a), Engine::Pipelined(c)) => !Arc::ptr_eq(a, c),
                _ => false,
            };
            assert!(as_expected, "a private clone keeps the backend");
            let (mut y0, mut y1) = (vec![0.0; 12 * b], vec![0.0; 12 * b]);
            let r0 = engine.run(&xs, b, &mut y0).unwrap();
            let r1 = clone.run(&xs, b, &mut y1).unwrap();
            assert_eq!(y0, y1);
            // Stall counts depend on thread timing; the rest is exact.
            let exact = |r: BatchReport| {
                let run = r.pipeline.map(|p| (p.depth, p.chunks, p.handoffs));
                (r.quant, run, r.bytes_moved, r.transform_elided_bytes)
            };
            assert_eq!(exact(r0), exact(r1));
        }
    }
}
