//! Differential suite: pipeline-parallel execution against the sequential
//! engines, on every Table 4 layer shape.
//!
//! The pipeline's contract is *bit*-identity, not tolerance: splitting a
//! layer's stage chain across worker threads and streaming micro-batched
//! chunks through bounded channels changes scheduling, never numerics.
//! Every comparison here is `to_bits()`-exact — float outputs, quantized
//! outputs, **and** the quantized saturation reports — swept across cut
//! depths {1, 2, 4}, shared-pool sizes {1, 8}, and micro-batch widths.
//! The per-stage occupancy counters must also reconcile exactly:
//! `handoffs == chunks × (depth − 1)` per run, and globally
//! `pipeline_stage_chunks == pipeline_chunks + pipeline_handoffs`.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tie::core::pipeline::PipelineConfig;
use tie::core::CompactEngine;
use tie::prelude::*;
use tie::sim::{PipelinedEngine, QuantConfig, QuantizedEngine};
use tie::tensor::init;
use tie::tensor::parallel::set_num_threads;
use tie::workloads::table4_benchmarks;

/// Fixed suite seed; layer index is mixed in per benchmark.
const SEED: u64 = 0x91e1_11e5;

/// Cut depths the acceptance sweep pins (clamped per layer to its `d`).
const DEPTHS: [usize; 3] = [1, 2, 4];

/// Shared GEMM-pool sizes the sweep runs under.
const POOLS: [usize; 2] = [1, 8];

/// Batch-inner-most random batch: element `j` of sample `c` at `j*b + c`.
fn random_batch(rng: &mut ChaCha8Rng, n: usize, b: usize) -> Vec<f64> {
    let flat: Tensor<f64> = init::uniform(rng, vec![n * b], 1.0);
    flat.data().to_vec()
}

fn assert_bits_equal(got: &[f64], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{ctx}: element {i}: pipelined {g:e} != sequential {w:e}"
        );
    }
}

/// Table 4, float pipeline: at every cut depth and pool size, the
/// pipelined output is bit-identical to the sequential compact engine,
/// and the handoff books balance (`handoffs == chunks × (depth − 1)`).
#[test]
fn table4_float_pipeline_bit_identical_across_depths_and_pools() {
    const B: usize = 4;
    for (i, bench) in table4_benchmarks().iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(SEED + i as u64);
        let ttm = TtMatrix::<f64>::random(&mut rng, &bench.shape, 0.5).unwrap();
        let engine = CompactEngine::new(ttm).unwrap();
        let (m, n) = (bench.shape.num_rows(), bench.shape.num_cols());
        let xs = random_batch(&mut rng, n, B);

        let mut want = vec![0.0f64; m * B];
        engine.matvec_batch_into(&xs, B, &mut want).unwrap();

        for depth in DEPTHS {
            let pipe = PipelinedEngine::float(
                &engine,
                PipelineConfig {
                    depth,
                    micro_batch: 1,
                },
            )
            .unwrap();
            for pool in POOLS {
                let prev = set_num_threads(pool);
                let mut got = vec![0.0f64; m * B];
                let rep = pipe.matvec_batch_into(&xs, B, &mut got).unwrap();
                set_num_threads(prev);

                let ctx = format!("{} depth={depth} pool={pool}", bench.name);
                assert_bits_equal(&got, &want, &ctx);
                assert_eq!(rep.run.depth as usize, pipe.depth(), "{ctx}: depth");
                assert_eq!(rep.run.chunks, B as u64, "{ctx}: chunks at micro_batch=1");
                assert_eq!(
                    rep.run.handoffs,
                    rep.run.chunks * (rep.run.depth - 1),
                    "{ctx}: handoffs must be chunks x (depth - 1)"
                );
            }
        }
    }
}

/// Table 4, quantized pipeline: outputs **and** the `QMatmulReport`
/// (per-element accumulator/output saturation counts) are bit-identical
/// to the sequential quantized engine at every depth and pool size.
#[test]
fn table4_quant_pipeline_bit_identical_including_reports() {
    const B: usize = 4;
    for (i, bench) in table4_benchmarks().iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(SEED + 100 + i as u64);
        let ttm = TtMatrix::<f64>::random(&mut rng, &bench.shape, 0.5).unwrap();
        let engine = QuantizedEngine::new(ttm, QuantConfig::default()).unwrap();
        let (m, n) = (bench.shape.num_rows(), bench.shape.num_cols());
        let xs = random_batch(&mut rng, n, B);

        let mut want = vec![0.0f64; m * B];
        let want_report = engine.matvec_batch_into(&xs, B, &mut want).unwrap();

        for depth in DEPTHS {
            let pipe = PipelinedEngine::quantized(
                &engine,
                PipelineConfig {
                    depth,
                    micro_batch: 1,
                },
            )
            .unwrap();
            assert!(pipe.is_quantized());
            for pool in POOLS {
                let prev = set_num_threads(pool);
                let mut got = vec![0.0f64; m * B];
                let rep = pipe.matvec_batch_into(&xs, B, &mut got).unwrap();
                set_num_threads(prev);

                let ctx = format!("{} depth={depth} pool={pool}", bench.name);
                assert_bits_equal(&got, &want, &ctx);
                assert_eq!(rep.quant, want_report, "{ctx}: QMatmulReport diverged");
                assert_eq!(
                    rep.run.handoffs,
                    rep.run.chunks * (rep.run.depth - 1),
                    "{ctx}: handoffs must be chunks x (depth - 1)"
                );
            }
        }
    }
}

/// Micro-batch width is a pure scheduling knob: any chunk width produces
/// the same bits, and the chunk counter is exactly `ceil(b / micro)`.
#[test]
fn micro_batch_width_never_changes_bits() {
    let bench = &table4_benchmarks()[2]; // LSTM-UCF11: smallest layer
    let mut rng = ChaCha8Rng::seed_from_u64(SEED + 200);
    let ttm = TtMatrix::<f64>::random(&mut rng, &bench.shape, 0.5).unwrap();
    let engine = QuantizedEngine::new(ttm, QuantConfig::default()).unwrap();
    let (m, n) = (bench.shape.num_rows(), bench.shape.num_cols());
    const B: usize = 6;
    let xs = random_batch(&mut rng, n, B);

    let mut want = vec![0.0f64; m * B];
    let want_report = engine.matvec_batch_into(&xs, B, &mut want).unwrap();

    for depth in [2, 4] {
        for micro in [1, 2, 4, 16] {
            let pipe = PipelinedEngine::quantized(
                &engine,
                PipelineConfig {
                    depth,
                    micro_batch: micro,
                },
            )
            .unwrap();
            let mut got = vec![0.0f64; m * B];
            let rep = pipe.matvec_batch_into(&xs, B, &mut got).unwrap();
            let ctx = format!("depth={depth} micro={micro}");
            assert_bits_equal(&got, &want, &ctx);
            assert_eq!(rep.quant, want_report, "{ctx}: QMatmulReport diverged");
            assert_eq!(
                rep.run.chunks,
                B.div_ceil(micro) as u64,
                "{ctx}: chunk count"
            );
        }
    }
}

/// Serve-level round trip: a pipelined quantized layer registered in the
/// service returns bit-identical responses, and the `pipeline_*` counters
/// in [`ServiceStats`] reconcile exactly
/// (`pipeline_stage_chunks == pipeline_chunks + pipeline_handoffs`).
#[test]
fn serve_pipelined_layer_matches_sequential_and_reconciles() {
    let bench = &table4_benchmarks()[2]; // LSTM-UCF11: smallest layer
    let mut rng = ChaCha8Rng::seed_from_u64(SEED + 300);
    let ttm = TtMatrix::<f64>::random(&mut rng, &bench.shape, 0.5).unwrap();
    let engine = QuantizedEngine::new(ttm, QuantConfig::default()).unwrap();
    let (m, n) = (bench.shape.num_rows(), bench.shape.num_cols());

    let pipe = PipelinedEngine::quantized(
        &engine,
        PipelineConfig {
            depth: 3,
            micro_batch: 1,
        },
    )
    .unwrap();
    let mut registry = EngineRegistry::new();
    registry.insert("fc", pipe);

    let service = InferenceService::start(registry, ServeConfig::default()).unwrap();
    let client = service.client();

    const REQUESTS: usize = 12;
    let inputs: Vec<Vec<f64>> = (0..REQUESTS)
        .map(|_| {
            let x: Tensor<f64> = init::uniform(&mut rng, vec![n], 1.0);
            x.data().to_vec()
        })
        .collect();
    let tickets: Vec<_> = inputs
        .iter()
        .map(|x| client.submit("fc", x.clone()).unwrap())
        .collect();

    for (x, ticket) in inputs.iter().zip(tickets) {
        let response = ticket.wait().unwrap();
        let mut want = vec![0.0f64; m];
        engine.matvec_batch_into(x, 1, &mut want).unwrap();
        assert_bits_equal(&response.output, &want, "serve response");
    }

    let stats = service.shutdown();
    assert_eq!(stats.submitted, stats.completed + stats.failed);
    assert_eq!(stats.failed, 0);
    assert!(
        stats.pipeline_batches >= 1,
        "pipelined batches must be recorded"
    );
    assert!(
        stats.pipeline_chunks >= REQUESTS as u64,
        "every sample streams as >= 1 chunk"
    );
    assert_eq!(
        stats.pipeline_stage_chunks,
        stats.pipeline_chunks + stats.pipeline_handoffs,
        "stage-chunk books must balance"
    );
    // Depth 3 on every chunk: two handoffs per chunk, stalls bounded by
    // the work actually queued.
    assert_eq!(stats.pipeline_handoffs, 2 * stats.pipeline_chunks);
    assert!(stats.pipeline_send_stalls <= stats.pipeline_handoffs);
    assert!(stats.pipeline_stall_fraction() >= 0.0);
}
