//! Worker threads: execute dispatched batches on private engine clones.
//!
//! Each worker holds its own private clone of every registered engine
//! (no shared mutable state — see [`crate::Engine::private_clone`]), runs
//! the float and quantized stages on its own thread's scratch, and keeps
//! two reusable interleave buffers, so steady-state batch execution
//! allocates only the per-request output vectors it hands back to callers.
//!
//! The batch queue receiver sits behind a `Mutex` so the pool shares one
//! channel: whichever worker is idle grabs the lock, takes the next batch,
//! and releases the lock *before* executing. Workers exit when the channel
//! disconnects, which happens exactly when the batcher returns — so
//! shutdown order is: batcher drains and exits, workers finish the queued
//! batches, pool joins.

use crate::batcher::Batch;
use crate::engine::Engine;
use crate::error::ServeError;
use crate::request::Response;
use crate::stats::StatsCore;
use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};

/// Worker thread body.
pub(crate) fn run_worker(
    batch_rx: Arc<Mutex<Receiver<Batch>>>,
    engines: HashMap<String, Engine>,
    stats: Arc<StatsCore>,
) {
    let mut xs: Vec<f64> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    loop {
        let batch = {
            let guard = match batch_rx.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            match guard.recv() {
                Ok(b) => b,
                Err(_) => return, // batcher gone, queue drained
            }
        };
        execute(&engines, &stats, batch, &mut xs, &mut ys);
    }
}

/// Runs one batch through [`Engine::run`] and answers every request.
///
/// The inputs are interleaved batch-inner-most (`xs[j * b + c]` is element
/// `j` of request `c`) to match the engine's batched layout, which keeps
/// the batched pass **bitwise identical** to `b` independent single-input
/// calls (the property suite proves this for every backend).
fn execute(
    engines: &HashMap<String, Engine>,
    stats: &StatsCore,
    batch: Batch,
    xs: &mut Vec<f64>,
    ys: &mut Vec<f64>,
) {
    let Some(engine) = engines.get(&batch.layer) else {
        // Unreachable in practice: clients validate the layer name against
        // the registry before submitting. Answer rather than panic.
        for req in batch.requests {
            let layer = batch.layer.clone();
            req.respond(Err(ServeError::UnknownLayer(layer)));
        }
        return;
    };
    let (m, n) = engine.dims();
    let b = batch.requests.len();

    xs.clear();
    xs.resize(n * b, 0.0);
    for (c, req) in batch.requests.iter().enumerate() {
        for (j, &v) in req.input.iter().enumerate() {
            xs[j * b + c] = v;
        }
    }
    ys.clear();
    ys.resize(m * b, 0.0);

    match engine.run(xs, b, ys) {
        Ok(report) => {
            stats.record_batch(&report);
            for (c, req) in batch.requests.into_iter().enumerate() {
                let output: Vec<f64> = (0..m).map(|r| ys[r * b + c]).collect();
                let latency = req.submitted_at.elapsed();
                req.respond(Ok(Response {
                    output,
                    batch_size: b,
                    latency,
                }));
            }
        }
        Err(e) => {
            let err = ServeError::Engine(e.to_string());
            for req in batch.requests {
                req.respond(Err(err.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BatchReport;
    use crate::registry::EngineRegistry;
    use crate::request::{Request, Ticket};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::sync::mpsc::sync_channel;
    use tie_core::{CompactEngine, PipelineConfig};
    use tie_sim::{PipelinedEngine, QuantConfig, QuantizedEngine};
    use tie_tt::{TtMatrix, TtShape};

    /// Makes one backend from a layer's float engine and quantized twin.
    type Build = fn(CompactEngine<f64>, QuantizedEngine) -> Engine;

    /// A registry serving one random 12×12 layer under `name` on the
    /// backend `build` makes.
    fn registry(seed: u64, name: &str, build: Build) -> EngineRegistry {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let shape = TtShape::uniform_rank(vec![2, 3, 2], vec![2, 3, 2], 2).unwrap();
        let matrix = TtMatrix::random(&mut rng, &shape, 0.5).unwrap();
        let float = CompactEngine::new(matrix.clone()).unwrap();
        let quant = QuantizedEngine::new(matrix, QuantConfig::default()).unwrap();
        let mut reg = EngineRegistry::new();
        reg.insert(name, build(float, quant));
        reg
    }

    fn float(seed: u64) -> EngineRegistry {
        registry(seed, "fc", |f, _| f.into())
    }

    /// Executes one batch of `inputs` for `layer` on `reg`'s worker clones.
    fn execute_batch(
        reg: &EngineRegistry,
        layer: &str,
        inputs: &[Vec<f64>],
        stats: &Arc<StatsCore>,
    ) -> Vec<Ticket> {
        let (requests, tickets): (Vec<Request>, Vec<Ticket>) = inputs
            .iter()
            .map(|x| Request::new(layer.into(), x.clone(), Arc::clone(stats)))
            .unzip();
        let batch = Batch {
            layer: layer.into(),
            requests,
        };
        execute(
            &reg.worker_engines(),
            stats,
            batch,
            &mut Vec::new(),
            &mut Vec::new(),
        );
        tickets
    }

    /// Every backend answers a batch bit-identically to single-input calls
    /// on the shared registry engine, and its `BatchReport` reaches the
    /// service counters.
    #[test]
    fn batch_results_match_direct_single_calls_on_every_backend() {
        const PIPE: PipelineConfig = PipelineConfig {
            depth: 3,
            micro_batch: 1,
        };
        let backends: [(&str, Build); 4] = [
            ("float", |f, _| f.into()),
            ("quantized", |_, q| q.into()),
            ("float-pipe", |f, _| {
                PipelinedEngine::float(&f, PIPE).unwrap().into()
            }),
            ("quant-pipe", |_, q| {
                PipelinedEngine::quantized(&q, PIPE).unwrap().into()
            }),
        ];
        for (seed, (name, build)) in (10..).zip(backends) {
            let reg = registry(seed, name, build);
            let engine = reg.engine(name).unwrap();
            let stats = Arc::new(StatsCore::new());
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 100);
            let b = 5usize;
            let inputs: Vec<Vec<f64>> = (0..b)
                .map(|_| (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect();
            let tickets = execute_batch(&reg, name, &inputs, &stats);

            // Single-sample calls' reports sum to the batch's counters.
            let mut direct_sum = BatchReport::default();
            for (input, ticket) in inputs.iter().zip(tickets) {
                let resp = ticket.wait().unwrap();
                assert_eq!(resp.batch_size, b);
                let mut direct = vec![0.0; 12];
                let r = engine.run(input, 1, &mut direct).unwrap();
                assert_eq!(resp.output, direct, "{name}: batch must be bit-identical");
                direct_sum.quant.outputs += r.quant.outputs;
                direct_sum.bytes_moved += r.bytes_moved;
                direct_sum.transform_elided_bytes += r.transform_elided_bytes;
            }
            let s = stats.snapshot();
            assert_eq!(s.completed, b as u64);
            assert_eq!(s.quant_outputs, direct_sum.quant.outputs, "{name}");
            assert_eq!(s.quant_outputs > 0, engine.is_quantized(), "{name}");
            assert_eq!(s.bytes_moved, direct_sum.bytes_moved, "{name}");
            assert_eq!(
                s.transform_elided_bytes, direct_sum.transform_elided_bytes,
                "{name}"
            );
            assert!(s.transform_elided_fraction() > 0.0, "{name}");
            if matches!(engine, Engine::Pipelined(_)) {
                // Stall counters reconcile exactly against handoffs.
                let depth = PIPE.depth as u64;
                assert_eq!(s.pipeline_batches, 1);
                assert_eq!(s.pipeline_chunks, b as u64);
                assert_eq!(s.pipeline_handoffs, b as u64 * (depth - 1));
                assert_eq!(
                    s.pipeline_stage_chunks,
                    s.pipeline_chunks + s.pipeline_handoffs
                );
                assert!(s.pipeline_send_stalls <= s.pipeline_handoffs);
                assert!(s.pipeline_recv_stalls <= s.pipeline_handoffs);
            } else {
                assert_eq!(s.pipeline_batches + s.pipeline_handoffs, 0, "{name}");
            }
        }
    }

    #[test]
    fn unknown_layer_answers_every_request() {
        let stats = Arc::new(StatsCore::new());
        let tickets = execute_batch(&float(8), "nope", &[vec![0.0; 12]], &stats);
        for ticket in tickets {
            assert!(matches!(ticket.wait(), Err(ServeError::UnknownLayer(_))));
        }
        assert_eq!(stats.snapshot().failed, 1);
    }

    #[test]
    fn worker_exits_on_disconnect() {
        let (batch_tx, batch_rx) = sync_channel::<Batch>(4);
        let rx = Arc::new(Mutex::new(batch_rx));
        let engines = float(9).worker_engines();
        let stats = Arc::new(StatsCore::new());
        let handle = std::thread::spawn(move || run_worker(rx, engines, stats));
        drop(batch_tx);
        handle.join().unwrap();
    }
}
