//! Nested-parallelism smoke test: the serving layer's worker threads all
//! dispatch pooled kernels concurrently, under sustained load.
//!
//! `tie-serve` workers are plain threads that each call
//! `matvec_batch_into`, whose stage GEMMs and transforms dispatch onto the
//! persistent pool — so under load the pool sees many concurrent
//! dispatchers while its own workers churn through their slabs. The
//! promises under test (DESIGN.md §11):
//!
//! * no deadlock (the run completes; enforced by the harness timeout),
//! * every response stays bit-identical to a direct engine call,
//! * `ServiceStats` still balances exactly.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Duration;
use tie::core::CompactEngine;
use tie::serve::{EngineRegistry, InferenceService, ServeConfig};
use tie::tensor::{parallel, pool};
use tie::tt::{TtMatrix, TtShape};

const CLIENTS: usize = 6;
const REQUESTS_PER_CLIENT: usize = 48;

#[test]
fn serve_under_load_with_pooled_kernels_stays_deadlock_free_and_exact() {
    // Pin the kernel width and pre-spawn so every serve worker's GEMMs
    // really fan out onto pool workers (the layer is sized above the spawn
    // threshold: stage GEMMs ≈ 24×24×(16·b) madds).
    let prev = parallel::set_num_threads(4);
    pool::prewarm(4);

    let shape = TtShape::uniform_rank(vec![4, 4, 4], vec![4, 4, 4], 6).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(0x0DD_BA11);
    let ttm = TtMatrix::<f64>::random(&mut rng, &shape, 0.5).unwrap();
    let engine = Arc::new(CompactEngine::new(ttm).unwrap());
    let n = engine.matrix().shape().num_cols();

    let mut registry = EngineRegistry::new();
    registry.insert("fc", Arc::clone(&engine));
    let service = InferenceService::start(
        registry,
        ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(200),
            queue_capacity: 128,
            workers: 4,
        },
    )
    .unwrap();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let client = service.client();
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                for i in 0..REQUESTS_PER_CLIENT {
                    let nonce = (t * REQUESTS_PER_CLIENT + i) as u64;
                    let mut rng = ChaCha8Rng::seed_from_u64(nonce.wrapping_mul(0x9E37));
                    let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let resp = client
                        .submit("fc", x.clone())
                        .unwrap()
                        .wait()
                        .unwrap_or_else(|e| panic!("nonce {nonce}: lost to {e}"));
                    // Direct evaluation from this (non-pool) thread also
                    // dispatches pooled kernels — another concurrent
                    // dispatcher by design.
                    let mut want = vec![0.0; engine.matrix().shape().num_rows()];
                    engine.matvec_into(&x, &mut want).unwrap();
                    assert_eq!(resp.output.len(), want.len(), "nonce {nonce}: length");
                    for (r, (&got, &exp)) in resp.output.iter().zip(&want).enumerate() {
                        assert!(
                            got.to_bits() == exp.to_bits(),
                            "nonce {nonce} row {r}: {got:e} != direct {exp:e}"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let stats = service.shutdown();
    assert_eq!(
        stats.submitted,
        stats.completed + stats.failed,
        "ServiceStats must balance under pooled nesting"
    );
    assert_eq!(stats.failed, 0, "clean run: no failures");
    assert_eq!(stats.submitted, (CLIENTS * REQUESTS_PER_CLIENT) as u64);

    parallel::set_num_threads(prev);
}
