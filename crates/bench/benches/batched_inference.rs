//! Fast-kernel layer benchmarks (perf PR acceptance evidence).
//!
//! Measures the two headline speedups of the kernel layer:
//!
//! 1. blocked/multiversioned [`linalg::matmul`] vs the reference
//!    [`linalg::matmul_naive`] on a 512×512×512 product, and
//! 2. the batched compact engine (`matvec_batch`, one GEMM per stage for
//!    the whole batch) vs looping `matvec` over the columns.
//!
//! Besides the criterion console output, the bench re-times both pairs
//! with a best-of-N wall clock and writes `BENCH_kernels.json` at the
//! repository root so the measured ratios are recorded machine-readably.

use std::path::Path;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tie_bench::measure::best_of;
use tie_bench::report::{fnum, Report};
use tie_core::{Activation, CompactEngine};
use tie_sim::{QuantConfig, QuantizedEngine};
use tie_tensor::{init, linalg, Tensor};
use tie_tt::{TtMatrix, TtShape};
use tie_workloads::table4_benchmarks;

const GEMM_DIM: usize = 512;
const BATCH: usize = 32;
const EPI_BATCH: usize = 16;
const REPS: usize = 5;

fn gemm_inputs() -> (Tensor<f64>, Tensor<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let a = init::uniform(&mut rng, vec![GEMM_DIM, GEMM_DIM], 1.0);
    let b = init::uniform(&mut rng, vec![GEMM_DIM, GEMM_DIM], 1.0);
    (a, b)
}

fn engine_inputs() -> (CompactEngine<f64>, Tensor<f64>, Vec<Tensor<f64>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let shape = TtShape::uniform_rank(vec![4, 4, 4, 4], vec![4, 4, 4, 4], 4).unwrap();
    let ttm = TtMatrix::<f64>::random(&mut rng, &shape, 0.5).unwrap();
    let engine = CompactEngine::new(ttm).unwrap();
    let n = shape.num_cols();
    let xs: Tensor<f64> = init::uniform(&mut rng, vec![n, BATCH], 1.0);
    // Per-column views for the looped baseline (batch is inner-most, so
    // column b of `xs` is the strided slice xs[j * BATCH + b]).
    let cols = (0..BATCH)
        .map(|b| {
            let data = (0..n).map(|j| xs.data()[j * BATCH + b]).collect();
            Tensor::from_vec(vec![n], data).unwrap()
        })
        .collect();
    (engine, xs, cols)
}

fn bench(c: &mut Criterion) {
    let (a, b) = gemm_inputs();
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("gemm_blocked", format!("{GEMM_DIM}^3")),
        &(),
        |bch, ()| bch.iter(|| linalg::matmul(&a, &b).unwrap()),
    );
    group.bench_with_input(
        BenchmarkId::new("gemm_naive", format!("{GEMM_DIM}^3")),
        &(),
        |bch, ()| bch.iter(|| linalg::matmul_naive(&a, &b).unwrap()),
    );

    let (engine, xs, cols) = engine_inputs();
    group.bench_with_input(
        BenchmarkId::new("engine_batched", format!("b{BATCH}")),
        &(),
        |bch, ()| bch.iter(|| engine.matvec_batch(&xs).unwrap()),
    );
    group.bench_with_input(
        BenchmarkId::new("engine_looped", format!("b{BATCH}")),
        &(),
        |bch, ()| {
            bch.iter(|| {
                cols.iter()
                    .map(|x| engine.matvec(x).unwrap())
                    .collect::<Vec<_>>()
            })
        },
    );
    let fc6 = EpilogueFixture::new("VGG-FC6", 0xfc6);
    let fc7 = EpilogueFixture::new("VGG-FC7", 0xfc7);
    let mut ys = vec![0.0f64; fc6.m.max(fc7.m) * EPI_BATCH];
    group.bench_with_input(
        BenchmarkId::new("fc6_float_epilogue_unfused", format!("b{EPI_BATCH}")),
        &(),
        |bch, ()| bch.iter(|| fc6.float_unfused(&mut ys[..fc6.m * EPI_BATCH])),
    );
    group.bench_with_input(
        BenchmarkId::new("fc6_float_epilogue_fused", format!("b{EPI_BATCH}")),
        &(),
        |bch, ()| {
            bch.iter(|| {
                fc6.fused_f
                    .matvec_batch_into(&fc6.xs, EPI_BATCH, &mut ys[..fc6.m * EPI_BATCH])
                    .unwrap()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("fc7_quant_epilogue_unfused", format!("b{EPI_BATCH}")),
        &(),
        |bch, ()| bch.iter(|| fc7.quant_unfused(&mut ys[..fc7.m * EPI_BATCH])),
    );
    group.bench_with_input(
        BenchmarkId::new("fc7_quant_epilogue_fused", format!("b{EPI_BATCH}")),
        &(),
        |bch, ()| {
            bch.iter(|| {
                fc7.fused_q
                    .matvec_batch_into(&fc7.xs, EPI_BATCH, &mut ys[..fc7.m * EPI_BATCH])
                    .unwrap()
            })
        },
    );
    group.finish();

    write_json(&a, &b, &engine, &xs, &cols, &fc6, &fc7);
}

/// Fused-vs-unfused epilogue fixtures for one Table 4 layer: a plain
/// engine pair (float with bias+ReLU, quantized with ReLU), their fused
/// twins, and a batch-16 input. Bit-identity of fused output vs
/// unfused-then-separate-pass is asserted here, **before** any timing.
struct EpilogueFixture {
    plain_f: CompactEngine<f64>,
    fused_f: CompactEngine<f64>,
    bias: Vec<f64>,
    plain_q: QuantizedEngine,
    fused_q: QuantizedEngine,
    xs: Vec<f64>,
    m: usize,
}

impl EpilogueFixture {
    fn new(layer: &str, seed: u64) -> Self {
        let bench = table4_benchmarks()
            .into_iter()
            .find(|b| b.name == layer)
            .expect("Table 4 layer");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ttm = TtMatrix::<f64>::random(&mut rng, &bench.shape, 0.3).unwrap();
        let (n, m) = (bench.shape.num_cols(), bench.shape.num_rows());
        let bias: Vec<f64> = (0..m).map(|o| (o as f64 / m as f64) - 0.5).collect();
        let plain_f = CompactEngine::new(ttm.clone()).unwrap();
        let fused_f = plain_f
            .clone()
            .with_bias(bias.clone())
            .unwrap()
            .with_activation(Activation::Relu);
        let plain_q = QuantizedEngine::new(ttm, QuantConfig::default()).unwrap();
        let fused_q = plain_q.clone().with_activation(Activation::Relu);
        let xs: Vec<f64> = (0..n * EPI_BATCH)
            .map(|i| ((i * 2_654_435_761) % 1000) as f64 / 1000.0 - 0.5)
            .collect();
        let fx = EpilogueFixture {
            plain_f,
            fused_f,
            bias,
            plain_q,
            fused_q,
            xs,
            m,
        };
        fx.assert_bit_identity();
        fx
    }

    /// Unfused float reference: plain engine, then bias + ReLU as a
    /// separate pass over the batch-inner output.
    fn float_unfused(&self, ys: &mut [f64]) {
        self.plain_f
            .matvec_batch_into(&self.xs, EPI_BATCH, ys)
            .unwrap();
        for o in 0..self.m {
            for cb in 0..EPI_BATCH {
                let v = ys[o * EPI_BATCH + cb] + self.bias[o];
                ys[o * EPI_BATCH + cb] = if v > 0.0 { v } else { 0.0 };
            }
        }
    }

    /// Unfused quantized reference: plain engine, then ReLU as a separate
    /// pass over the dequantized output.
    fn quant_unfused(&self, ys: &mut [f64]) {
        self.plain_q
            .matvec_batch_into(&self.xs, EPI_BATCH, ys)
            .unwrap();
        for v in ys.iter_mut() {
            *v = if *v > 0.0 { *v } else { 0.0 };
        }
    }

    fn assert_bit_identity(&self) {
        let len = self.m * EPI_BATCH;
        let (mut want, mut got) = (vec![0.0f64; len], vec![0.0f64; len]);
        self.float_unfused(&mut want);
        self.fused_f
            .matvec_batch_into(&self.xs, EPI_BATCH, &mut got)
            .unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "float fused epilogue must be bit-identical"
            );
        }
        self.quant_unfused(&mut want);
        self.fused_q
            .matvec_batch_into(&self.xs, EPI_BATCH, &mut got)
            .unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "quant fused epilogue must be bit-identical"
            );
        }
    }
}

/// Re-times both pairs with a best-of-N wall clock and records the
/// speedups in `BENCH_kernels.json` at the repository root.
fn write_json(
    a: &Tensor<f64>,
    b: &Tensor<f64>,
    engine: &CompactEngine<f64>,
    xs: &Tensor<f64>,
    cols: &[Tensor<f64>],
    fc6: &EpilogueFixture,
    fc7: &EpilogueFixture,
) {
    let blocked_s = best_of(REPS, || linalg::matmul(a, b).unwrap());
    let naive_s = best_of(REPS, || linalg::matmul_naive(a, b).unwrap());
    let batched_s = best_of(REPS, || engine.matvec_batch(xs).unwrap());
    let looped_s = best_of(REPS, || {
        cols.iter()
            .map(|x| engine.matvec(x).unwrap())
            .collect::<Vec<_>>()
    });

    let mut ys = vec![0.0f64; fc6.m.max(fc7.m) * EPI_BATCH];
    let f_unfused_s = best_of(REPS, || fc6.float_unfused(&mut ys[..fc6.m * EPI_BATCH]));
    let f_fused_s = best_of(REPS, || {
        fc6.fused_f
            .matvec_batch_into(&fc6.xs, EPI_BATCH, &mut ys[..fc6.m * EPI_BATCH])
            .unwrap()
    });
    let q_unfused_s = best_of(REPS, || fc7.quant_unfused(&mut ys[..fc7.m * EPI_BATCH]));
    let q_fused_s = best_of(REPS, || {
        fc7.fused_q
            .matvec_batch_into(&fc7.xs, EPI_BATCH, &mut ys[..fc7.m * EPI_BATCH])
            .unwrap()
    });

    let mut report = Report::new(
        "BENCH_kernels",
        "Fast kernel layer: blocked GEMM and batched compact engine",
        "not a paper figure — acceptance evidence for the perf PR \
         (blocked matmul >= 3x naive on 512^3; batched >= looped)",
    );
    report.headers(["pair", "baseline_ms", "optimized_ms", "speedup"]);
    report.row([
        format!("gemm_{GEMM_DIM}x{GEMM_DIM}x{GEMM_DIM}"),
        fnum(naive_s * 1e3),
        fnum(blocked_s * 1e3),
        fnum(naive_s / blocked_s),
    ]);
    report.row([
        format!("engine_batch{BATCH}"),
        fnum(looped_s * 1e3),
        fnum(batched_s * 1e3),
        fnum(looped_s / batched_s),
    ]);
    report.row([
        format!("fc6_float_bias_relu_epilogue_b{EPI_BATCH}"),
        fnum(f_unfused_s * 1e3),
        fnum(f_fused_s * 1e3),
        fnum(f_unfused_s / f_fused_s),
    ]);
    report.row([
        format!("fc7_quant_relu_epilogue_b{EPI_BATCH}"),
        fnum(q_unfused_s * 1e3),
        fnum(q_fused_s * 1e3),
        fnum(q_unfused_s / q_fused_s),
    ]);
    report.note(format!(
        "best-of-{REPS} wall clock, one warm-up call per pair"
    ));
    report.note(
        "epilogue rows: fused bias/ReLU applied at the 32-bit accumulator \
         inside the final-stage GEMM store vs engine-then-separate-pass; \
         bit-identity of the two paths is asserted before timing",
    );
    report.note(
        "blocked kernel dispatches at runtime to AVX-512/AVX/portable \
         instantiations of one generic body; all paths bit-match matmul_naive",
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    report.save_json(&root).expect("write BENCH_kernels.json");
    println!("{report}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
