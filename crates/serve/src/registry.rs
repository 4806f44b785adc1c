//! The shared engine registry: prepared engines keyed by layer name.
//!
//! One map from layer name to [`Engine`], whatever the backend: a name
//! maps to exactly one engine, and clients neither know nor care which
//! datapath serves it (same submit API, same `f64` responses; the
//! quantized and pipelined backends feed their extra counters in
//! [`crate::ServiceStats`]). There are two ways to register a layer:
//! [`EngineRegistry::insert`] takes any engine (or a shared `Arc` of
//! one), and [`EngineRegistry::insert_from_plan`] builds one from the
//! autotuner's [`DeploymentPlan`]. A fused activation is part of the
//! engine (`engine.with_activation(a)`), not of the registration.
//!
//! Engines are stored behind [`Arc`] so the service, every client handle,
//! and every partition hold the same prepared layer without copying the
//! unfolded cores or index maps; workers execute on private clones
//! ([`Engine::private_clone`]).

use crate::engine::Engine;
use crate::error::ServeError;
use std::collections::HashMap;
use std::sync::Arc;
use tie_core::{CompactEngine, DeploymentPlan, PipelineConfig, PlanBackend, Result};
use tie_sim::{PipelinedEngine, QuantConfig, QuantizedEngine};
use tie_tensor::TensorError;
use tie_tt::TtMatrix;

/// Layer-name → prepared-engine map handed to
/// [`crate::InferenceService::start`].
///
/// Cloning a registry clones only the `Arc` handles, never the engines —
/// the sharded layer leans on this to hand every replica of a shard its
/// own registry value over the same shared engines.
#[derive(Debug, Default, Clone)]
pub struct EngineRegistry {
    engines: HashMap<String, Engine>,
}

impl EngineRegistry {
    /// Empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `engine` under `name`, replacing any previous entry with
    /// that name. Takes any backend, owned or already shared:
    /// `CompactEngine<f64>`, `QuantizedEngine`, `PipelinedEngine`, an
    /// `Arc` of any of them, or an [`Engine`]. Returns `self` for
    /// chaining.
    pub fn insert(&mut self, name: impl Into<String>, engine: impl Into<Engine>) -> &mut Self {
        self.engines.insert(name.into(), engine.into());
        self
    }

    /// Registers an engine built from a [`DeploymentPlan`] — the
    /// autotuner's artifact — over `matrix`, the compiled TT weights the
    /// plan describes. The plan's backend, pipeline cut depth, fused
    /// activation, and quant calibration margin all take effect:
    ///
    /// * `Float` + depth 1 → [`CompactEngine`],
    /// * `Quantized` + depth 1 → [`QuantizedEngine`] calibrated at the
    ///   plan's `quant_margin` over `quant` (pass
    ///   [`QuantConfig::default`] unless serving needs custom formats),
    /// * depth > 1 → either datapath wrapped in a [`PipelinedEngine`] at
    ///   the plan's `{pipeline_depth, micro_batch}`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an invalid plan or a
    /// `matrix` whose TT layout differs from the plan's shape (the plan
    /// would misdescribe the engine), and propagates construction errors.
    pub fn insert_from_plan(
        &mut self,
        plan: &DeploymentPlan,
        matrix: TtMatrix<f64>,
        quant: QuantConfig,
    ) -> Result<&mut Self> {
        plan.validate()?;
        if matrix.shape() != &plan.shape {
            return Err(TensorError::InvalidArgument {
                message: format!(
                    "matrix layout {:?}x{:?} ranks {:?} does not match plan `{}`",
                    matrix.shape().row_modes,
                    matrix.shape().col_modes,
                    matrix.shape().ranks,
                    plan.layer
                ),
            });
        }
        let pipe = PipelineConfig {
            depth: plan.pipeline_depth,
            micro_batch: plan.micro_batch,
        };
        let engine: Engine = match plan.backend {
            PlanBackend::Float => {
                let engine = CompactEngine::new(matrix)?.with_activation(plan.activation);
                if plan.is_pipelined() {
                    PipelinedEngine::float(&engine, pipe)?.into()
                } else {
                    engine.into()
                }
            }
            PlanBackend::Quantized => {
                let engine =
                    QuantizedEngine::new(matrix, quant.with_probe_margin(plan.quant_margin))?
                        .with_activation(plan.activation);
                if plan.is_pipelined() {
                    PipelinedEngine::quantized(&engine, pipe)?.into()
                } else {
                    engine.into()
                }
            }
        };
        Ok(self.insert(plan.layer.clone(), engine))
    }

    /// The engine registered under `name`, any backend.
    #[must_use]
    pub fn engine(&self, name: &str) -> Option<&Engine> {
        self.engines.get(name)
    }

    /// The shared float engine registered under `name` (`None` if the name
    /// is unregistered or served by another backend).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<CompactEngine<f64>>> {
        match self.engines.get(name)? {
            Engine::Float(e) => Some(Arc::clone(e)),
            _ => None,
        }
    }

    /// The shared fixed-point engine registered under `name` (`None` if
    /// the name is unregistered or served by another backend).
    #[must_use]
    pub fn get_quantized(&self, name: &str) -> Option<Arc<QuantizedEngine>> {
        match self.engines.get(name)? {
            Engine::Quantized(e) => Some(Arc::clone(e)),
            _ => None,
        }
    }

    /// The shared pipeline-parallel engine registered under `name`
    /// (`None` if the name is unregistered or served sequentially).
    #[must_use]
    pub fn get_pipelined(&self, name: &str) -> Option<Arc<PipelinedEngine>> {
        match self.engines.get(name)? {
            Engine::Pipelined(e) => Some(Arc::clone(e)),
            _ => None,
        }
    }

    /// `(rows M, cols N)` of the layer registered under `name`.
    #[must_use]
    pub fn dims(&self, name: &str) -> Option<(usize, usize)> {
        self.engines.get(name).map(Engine::dims)
    }

    /// The submit-time request check every client runs before queueing:
    /// `layer` must be registered, and `input` must have the layer's `N`
    /// elements, all finite. A NaN or ±∞ would otherwise reach the
    /// fixed-point datapath, whose quantizer maps NaN to 0 silently and
    /// reports no saturation.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownLayer`], [`ServeError::WrongInputLength`], or
    /// [`ServeError::NonFiniteInput`] naming the first offending element.
    pub fn check_request(&self, layer: &str, input: &[f64]) -> std::result::Result<(), ServeError> {
        let (_m, n) = self
            .dims(layer)
            .ok_or_else(|| ServeError::UnknownLayer(layer.to_string()))?;
        if input.len() != n {
            return Err(ServeError::WrongInputLength {
                got: input.len(),
                want: n,
            });
        }
        match input.iter().position(|v| !v.is_finite()) {
            Some(index) => Err(ServeError::NonFiniteInput { index }),
            None => Ok(()),
        }
    }

    /// All registered layer names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.engines.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// True if no layer is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// Partitions the registry into `parts` sub-registries by routing
    /// every layer name through the ring: layer `name` lands in partition
    /// `ring.shard_for(name)`. Engines are shared by `Arc`, so
    /// partitioning copies nothing but the map entries — each replica of
    /// the owning shard later takes its own private clones exactly like a
    /// single service's workers do.
    ///
    /// Partitions of shards that own no registered layer come back empty;
    /// the sharded service simply starts no replicas for them (a valid
    /// layer key can never route there — it would have been partitioned
    /// there in the first place).
    #[must_use]
    pub fn partition(&self, ring: &crate::HashRing) -> Vec<EngineRegistry> {
        let max_shard = ring.shards().iter().copied().max().unwrap_or(0);
        let mut parts: Vec<EngineRegistry> =
            (0..=max_shard).map(|_| EngineRegistry::new()).collect();
        for (name, engine) in &self.engines {
            parts[ring.shard_for(name)].insert(name.clone(), engine.clone());
        }
        parts
    }

    /// A private clone ([`Engine::private_clone`]) of every engine, for
    /// one worker: each pipelined layer streams through the worker's own
    /// stage threads. Float and quantized engines are shared; their
    /// scratch is the worker thread's own.
    #[must_use]
    pub(crate) fn worker_engines(&self) -> HashMap<String, Engine> {
        self.engines
            .iter()
            .map(|(name, e)| (name.clone(), e.private_clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HashRing;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tie_core::Activation;
    use tie_tt::{TtMatrix, TtShape};

    fn matrix(seed: u64) -> TtMatrix<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let shape = TtShape::uniform_rank(vec![2, 3], vec![3, 2], 2).unwrap();
        TtMatrix::random(&mut rng, &shape, 0.5).unwrap()
    }

    fn engine(seed: u64) -> CompactEngine<f64> {
        CompactEngine::new(matrix(seed)).unwrap()
    }

    fn quantized(seed: u64) -> QuantizedEngine {
        QuantizedEngine::new(matrix(seed), QuantConfig::default()).unwrap()
    }

    #[test]
    fn insert_get_dims_names() {
        let mut reg = EngineRegistry::new();
        assert!(reg.is_empty());
        reg.insert("fc1", engine(1)).insert("fc0", engine(2));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.names(), vec!["fc0".to_string(), "fc1".to_string()]);
        assert_eq!(reg.dims("fc1"), Some((6, 6)));
        assert!(reg.get("fc1").is_some());
        assert!(reg.get("nope").is_none());
        assert_eq!(reg.dims("nope"), None);
    }

    #[test]
    fn shared_engine_is_the_same_allocation() {
        let mut reg = EngineRegistry::new();
        let shared = Arc::new(engine(3));
        reg.insert("fc", Arc::clone(&shared));
        assert!(Arc::ptr_eq(&reg.get("fc").unwrap(), &shared));
    }

    /// The shared allocation behind an engine, as a thin pointer.
    fn addr(engine: &Engine) -> *const () {
        match engine {
            Engine::Float(e) => Arc::as_ptr(e).cast(),
            Engine::Quantized(e) => Arc::as_ptr(e).cast(),
            Engine::Pipelined(e) => Arc::as_ptr(e).cast(),
        }
    }

    /// Which typed getter sees `name`: `[get, get_quantized, get_pipelined]`.
    fn typed(reg: &EngineRegistry, name: &str) -> [bool; 3] {
        [
            reg.get(name).is_some(),
            reg.get_quantized(name).is_some(),
            reg.get_pipelined(name).is_some(),
        ]
    }

    #[test]
    fn every_backend_shares_one_namespace_and_partition() {
        let pipelined =
            PipelinedEngine::float(&engine(20), tie_core::PipelineConfig::default()).unwrap();
        let backends: [(Engine, [bool; 3]); 3] = [
            (engine(21).into(), [true, false, false]),
            (quantized(22).into(), [false, true, false]),
            (pipelined.into(), [false, false, true]),
        ];
        let ring = HashRing::new(3, 32).unwrap();
        for (backend, getters) in &backends {
            let mut reg = EngineRegistry::new();
            reg.insert("other", engine(23))
                .insert("layer", backend.clone());
            assert_eq!(reg.len(), 2);
            assert_eq!(reg.names(), vec!["layer".to_string(), "other".to_string()]);
            assert_eq!(reg.dims("layer"), Some((6, 6)));
            assert_eq!(typed(&reg, "layer"), *getters);
            assert_eq!(reg.engine("layer").map(addr), Some(addr(backend)));

            // Partitioning moves map entries, never engines.
            let parts = reg.partition(&ring);
            assert_eq!(parts.iter().map(EngineRegistry::len).sum::<usize>(), 2);
            let owner = &parts[ring.shard_for("layer")];
            assert_eq!(typed(owner, "layer"), *getters);
            assert_eq!(owner.engine("layer").map(addr), Some(addr(backend)));

            // Re-registering the name under any backend replaces it.
            for (replacement, replaced_getters) in &backends {
                reg.insert("layer", replacement.clone());
                assert_eq!(reg.len(), 2);
                assert_eq!(typed(&reg, "layer"), *replaced_getters);
                assert_eq!(reg.engine("layer").map(addr), Some(addr(replacement)));
            }
        }
    }

    #[test]
    fn partition_routes_every_layer_to_its_ring_shard() {
        let mut reg = EngineRegistry::new();
        for i in 0..12 {
            reg.insert(format!("fc{i}"), engine(i));
        }
        let ring = HashRing::new(4, 64).unwrap();
        let parts = reg.partition(&ring);
        assert_eq!(parts.len(), 4);
        assert_eq!(
            parts.iter().map(EngineRegistry::len).sum::<usize>(),
            reg.len()
        );
        for (s, part) in parts.iter().enumerate() {
            for name in part.names() {
                assert_eq!(ring.shard_for(&name), s, "{name} in wrong partition");
                // Arc-shared, not deep-copied.
                assert!(Arc::ptr_eq(
                    &part.get(&name).unwrap(),
                    &reg.get(&name).unwrap()
                ));
            }
        }
    }

    #[test]
    fn fused_activation_rides_the_inserted_engine() {
        let mut reg = EngineRegistry::new();
        reg.insert("plain", engine(30))
            .insert("relu", engine(30).with_activation(Activation::Relu));
        assert_eq!(reg.get("relu").unwrap().activation(), Activation::Relu);
        let x: Vec<f64> = (0..6).map(|i| (i as f64 - 3.0) * 0.7).collect();
        let mut y_plain = vec![0.0f64; 6];
        let mut y_relu = vec![0.0f64; 6];
        reg.get("plain")
            .unwrap()
            .matvec_into(&x, &mut y_plain)
            .unwrap();
        reg.get("relu")
            .unwrap()
            .matvec_into(&x, &mut y_relu)
            .unwrap();
        assert!(y_plain.iter().any(|&v| v < 0.0), "need a clipped output");
        for (r, p) in y_relu.iter().zip(&y_plain) {
            let want = if *p > 0.0 { *p } else { 0.0 };
            assert_eq!(r.to_bits(), want.to_bits());
        }

        // Quantized path: fused ReLU on the served fixed-point engine.
        reg.insert("qrelu", quantized(31).with_activation(Activation::Relu));
        assert_eq!(
            reg.get_quantized("qrelu").unwrap().activation(),
            Activation::Relu
        );
    }

    #[test]
    fn check_request_rejects_unknown_layers_bad_lengths_and_non_finite_inputs() {
        let mut reg = EngineRegistry::new();
        reg.insert("fc", engine(32)).insert("qfc", quantized(33));
        for layer in ["fc", "qfc"] {
            assert_eq!(reg.check_request(layer, &[0.5; 6]), Ok(()));
            assert_eq!(
                reg.check_request(layer, &[0.5; 5]),
                Err(ServeError::WrongInputLength { got: 5, want: 6 })
            );
            for (index, bad) in [(0, f64::NAN), (3, f64::INFINITY), (5, f64::NEG_INFINITY)] {
                let mut x = vec![0.5; 6];
                x[index] = bad;
                x[5] = if index == 5 { bad } else { f64::NAN };
                assert_eq!(
                    reg.check_request(layer, &x),
                    Err(ServeError::NonFiniteInput { index }),
                    "the first non-finite element is named"
                );
            }
        }
        assert_eq!(
            reg.check_request("nope", &[0.5; 6]),
            Err(ServeError::UnknownLayer("nope".into()))
        );
    }

    #[test]
    fn insert_from_plan_constructs_every_backend_combination() {
        use tie_core::{DeploymentPlan, PlanBackend};
        use tie_tensor::linalg::SvdMethod;

        let shape = TtShape::uniform_rank(vec![2, 3], vec![3, 2], 2).unwrap();
        let matrix = matrix(40);
        let plan = |name: &str, backend, depth| DeploymentPlan {
            layer: name.to_string(),
            shape: shape.clone(),
            svd: SvdMethod::Jacobi,
            backend,
            batch: 4,
            pipeline_depth: depth,
            micro_batch: 1,
            activation: Activation::Relu,
            quant_margin: 1.5,
            modeled_cycles_per_sample: 0.0,
        };

        let mut reg = EngineRegistry::new();
        reg.insert_from_plan(
            &plan("float", PlanBackend::Float, 1),
            matrix.clone(),
            QuantConfig::default(),
        )
        .unwrap()
        .insert_from_plan(
            &plan("quant", PlanBackend::Quantized, 1),
            matrix.clone(),
            QuantConfig::default(),
        )
        .unwrap()
        .insert_from_plan(
            &plan("float-pipe", PlanBackend::Float, 2),
            matrix.clone(),
            QuantConfig::default(),
        )
        .unwrap()
        .insert_from_plan(
            &plan("quant-pipe", PlanBackend::Quantized, 2),
            matrix.clone(),
            QuantConfig::default(),
        )
        .unwrap();

        assert_eq!(reg.len(), 4);
        assert_eq!(
            reg.get("float").unwrap().activation(),
            Activation::Relu,
            "plan epilogue must be fused"
        );
        assert!(reg.get_quantized("quant").is_some());
        let pipe_quantized = |name| reg.get_pipelined(name).map(|e| e.is_quantized());
        assert_eq!(pipe_quantized("float-pipe"), Some(false));
        assert_eq!(pipe_quantized("quant-pipe"), Some(true));
        // The plan's margin reaches the calibration.
        let wide = DeploymentPlan {
            quant_margin: 3.0,
            ..plan("wide", PlanBackend::Quantized, 1)
        };
        reg.insert_from_plan(&wide, matrix.clone(), QuantConfig::default())
            .unwrap();
        let narrow = reg.get_quantized("quant").unwrap();
        let widened = reg.get_quantized("wide").unwrap();
        assert!(
            widened.stage_formats()[0].frac_bits() <= narrow.stage_formats()[0].frac_bits(),
            "wider margin can only cost fraction bits"
        );
        // A matrix that doesn't match the plan's layout is rejected.
        let other_shape = TtShape::uniform_rank(vec![3, 2], vec![2, 3], 2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let other = TtMatrix::random(&mut rng, &other_shape, 0.5).unwrap();
        assert!(reg
            .insert_from_plan(
                &plan("bad", PlanBackend::Float, 1),
                other,
                QuantConfig::default()
            )
            .is_err());
    }
}
