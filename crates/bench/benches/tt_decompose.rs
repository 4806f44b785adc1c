//! TT-SVD decomposition cost (offline model compilation).
//!
//! Criterion benches compare exact Jacobi against the method-dispatched
//! fast paths (Gram route, randomized sketch) on mid-scale unfoldings.
//! Besides the console output, `write_json` re-times the acceptance pairs
//! with a best-of-N wall clock and writes `BENCH_decompose.json` at the
//! repository root, including per-layer Table 4 compile times.
//!
//! The 4096×4096 Jacobi baseline alone takes on the order of an hour on
//! one core, so by default that row records the fully measured fast path
//! against a lower-bound baseline extrapolated from the measured 512→1024
//! Jacobi scaling (clearly labeled in the JSON); set `TIE_BENCH_PAPER=1`
//! to time the real 4096² Jacobi baseline instead.

use std::path::Path;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tie_bench::measure::best_of;
use tie_bench::report::{fnum, Report};
use tie_tensor::linalg::{self, truncated_svd, truncated_svd_with, SvdMethod, Truncation};
use tie_tensor::{init, Tensor};
use tie_tt::{decompose::tt_svd, TtMatrix};
use tie_workloads::{
    compile_dense_layer, layer_weight_seed, synthetic_layer_weights, table4_benchmarks,
    CompileOptions, ErrorCheck,
};

const REPS: usize = 3;

/// Planted rank-`r` matrix plus uniform noise — the spectrum every
/// compression-regime bench uses: `r` dominant directions, then a flat
/// noise tail whose mass is the optimal truncation error.
fn low_rank_plus_noise(
    rng: &mut ChaCha8Rng,
    m: usize,
    n: usize,
    r: usize,
    noise: f64,
) -> Tensor<f64> {
    let u: Tensor<f64> = init::uniform(rng, vec![m, r], 1.0);
    let v: Tensor<f64> = init::uniform(rng, vec![r, n], 1.0);
    let e: Tensor<f64> = init::uniform(rng, vec![m, n], noise);
    linalg::matmul(&u, &v).unwrap().add(&e).unwrap()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("tt_decompose");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    for dims in [vec![8usize, 8, 8], vec![4, 4, 4, 4, 4]] {
        let a: Tensor<f64> = init::uniform(&mut rng, dims.clone(), 1.0);
        group.bench_with_input(
            BenchmarkId::new("tt_svd_exact", format!("{dims:?}")),
            &(),
            |b, ()| b.iter(|| tt_svd(&a, Truncation::none()).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("tt_svd_rank4", format!("{dims:?}")),
            &(),
            |b, ()| b.iter(|| tt_svd(&a, Truncation::rank(4)).unwrap()),
        );
    }
    let w: Tensor<f64> = init::uniform(&mut rng, vec![64, 64], 1.0);
    group.bench_function("matrix_from_dense_64x64_r8", |b| {
        b.iter(|| TtMatrix::from_dense(&w, &[4, 4, 4], &[4, 4, 4], Truncation::rank(8)).unwrap())
    });

    // Method pair on a mid-scale thin unfolding (the FC-layer regime):
    // exact Jacobi vs the Auto dispatch (Gram route at this short side).
    let thin = low_rank_plus_noise(&mut rng, 128, 2048, 4, 1e-3);
    group.bench_function("unfold_128x2048_r4_jacobi", |b| {
        b.iter(|| truncated_svd(&thin, Truncation::rank(4)).unwrap())
    });
    group.bench_function("unfold_128x2048_r4_auto", |b| {
        b.iter(|| truncated_svd_with(&thin, Truncation::rank(4), SvdMethod::default()).unwrap())
    });
    group.finish();

    write_json();
}

/// One timed pair: Jacobi baseline vs the fast path on the same matrix,
/// returning `(jacobi_s, fast_s, fast_err, jacobi_err)`. The baseline is
/// timed once (a multi-second measurement needs no warm-up); the fast
/// path is best-of-`REPS`. The Jacobi reconstruction error doubles as
/// the optimal rank-`rank` truncation error.
fn time_pair(a: &Tensor<f64>, rank: usize, method: SvdMethod) -> (f64, f64, f64, f64) {
    let trunc = Truncation::rank(rank);
    let t = Instant::now();
    let exact = truncated_svd(a, trunc).unwrap();
    let jacobi_s = t.elapsed().as_secs_f64();
    let fast_s = best_of(REPS, || truncated_svd_with(a, trunc, method).unwrap());
    let fast = truncated_svd_with(a, trunc, method).unwrap();
    let err = fast.reconstruct().unwrap().sub(a).unwrap().frobenius_norm();
    let jerr = exact
        .reconstruct()
        .unwrap()
        .sub(a)
        .unwrap()
        .frobenius_norm();
    (jacobi_s, fast_s, err, jerr)
}

/// Records the acceptance pairs and the Table 4 compile times in
/// `BENCH_decompose.json` at the repository root.
fn write_json() {
    let mut rng = ChaCha8Rng::seed_from_u64(40);
    let mut report = Report::new(
        "BENCH_decompose",
        "Model compilation: truncated-SVD method pairs and Table 4 compile times",
        "not a paper figure — acceptance evidence for the compile-path perf PR \
         (randomized >= 5x Jacobi on a 4096x4096 rank-16 unfolding, error \
         within the optimal truncation bound)",
    );
    report.headers(["pair", "baseline_ms", "optimized_ms", "speedup"]);

    // Gram route on the thin short-side regime (FC unfolding shape).
    let thin = low_rank_plus_noise(&mut rng, 128, 8192, 4, 1e-3);
    let (j_s, f_s, err, jerr) = time_pair(&thin, 4, SvdMethod::default());
    report.row([
        "unfold_128x8192_r4_gram".to_string(),
        fnum(j_s * 1e3),
        fnum(f_s * 1e3),
        fnum(j_s / f_s),
    ]);
    report.note(format!(
        "128x8192 r4 Gram-route error {:.3e} vs Jacobi truncation {:.3e} (ratio {:.4})",
        err,
        jerr,
        err / jerr
    ));

    // Randomized sketch in the square rank-capped regime. Jacobi is fully
    // measured at 512 and 1024 (the largest sides where a one-core run
    // stays in the minutes); their timings also pin the Jacobi scaling
    // exponent used to bound the 4096 baseline below.
    let method = SvdMethod::default();
    let mut jacobi_scaling = Vec::new();
    for side in [512usize, 1024] {
        let a = low_rank_plus_noise(&mut rng, side, side, 16, 1e-3);
        let (j_s, f_s, err, jerr) = time_pair(&a, 16, method);
        jacobi_scaling.push(j_s);
        report.row([
            format!("unfold_{side}x{side}_r16_rsvd"),
            fnum(j_s * 1e3),
            fnum(f_s * 1e3),
            fnum(j_s / f_s),
        ]);
        report.note(format!(
            "{side}x{side} r16 randomized error {:.3e} vs Jacobi truncation {:.3e} (ratio {:.4})",
            err,
            jerr,
            err / jerr
        ));
    }

    // Paper scale: 4096x4096 rank-16. The fast path is always measured.
    // The Jacobi baseline takes on the order of an hour on one core, so
    // by default it is recorded as a lower bound extrapolated from the
    // measured 512->1024 scaling; TIE_BENCH_PAPER=1 measures it for real.
    let big = low_rank_plus_noise(&mut rng, 4096, 4096, 16, 1e-3);
    let trunc = Truncation::rank(16);
    let f_s = best_of(REPS, || truncated_svd_with(&big, trunc, method).unwrap());
    let fast = truncated_svd_with(&big, trunc, method).unwrap();
    let err = fast
        .reconstruct()
        .unwrap()
        .sub(&big)
        .unwrap()
        .frobenius_norm();
    let rel = err / big.frobenius_norm();
    if std::env::var("TIE_BENCH_PAPER").as_deref() == Ok("1") {
        let t = Instant::now();
        let exact = truncated_svd(&big, trunc).unwrap();
        let j_s = t.elapsed().as_secs_f64();
        let jerr = exact
            .reconstruct()
            .unwrap()
            .sub(&big)
            .unwrap()
            .frobenius_norm();
        report.row([
            "unfold_4096x4096_r16_rsvd".to_string(),
            fnum(j_s * 1e3),
            fnum(f_s * 1e3),
            fnum(j_s / f_s),
        ]);
        report.note(format!(
            "4096x4096 r16 randomized error {:.3e} vs Jacobi truncation {:.3e} (ratio {:.4})",
            err,
            jerr,
            err / jerr
        ));
    } else {
        let exponent = (jacobi_scaling[1] / jacobi_scaling[0]).log2();
        let j_est = jacobi_scaling[1] * 4.0f64.powf(exponent);
        report.row([
            "unfold_4096x4096_r16_rsvd".to_string(),
            format!("{} (extrapolated)", fnum(j_est * 1e3)),
            fnum(f_s * 1e3),
            format!(">= {}", fnum(j_est / f_s)),
        ]);
        report.note(format!(
            "4096x4096 Jacobi baseline extrapolated from the measured 512->1024 \
             scaling (exponent {exponent:.2}); per-sweep cost grows ~n^3 and cache \
             behaviour worsens with n, so the true baseline and speedup are higher. \
             Set TIE_BENCH_PAPER=1 to measure it (~1 h on one core). Randomized \
             relative error {rel:.3e} on the planted rank-16-plus-noise input."
        ));
    }

    // Table 4 compile times (one run each; Auto method, sampled error).
    let opts = CompileOptions {
        method: SvdMethod::default(),
        error_check: ErrorCheck::Skip,
    };
    for bench in table4_benchmarks().iter() {
        let w = synthetic_layer_weights(&bench.shape, 1e-4, layer_weight_seed(bench.name)).unwrap();
        let compiled =
            compile_dense_layer(bench.name, &w, &bench.shape, Some(bench.paper_cr), &opts).unwrap();
        report.row([
            format!("compile_{}", bench.name),
            "-".to_string(),
            fnum(compiled.report.seconds * 1e3),
            "-".to_string(),
        ]);
    }
    report.note(
        "compile_* rows time TtMatrix::from_dense + CompactEngine::new on \
         synthetic planted-rank Table 4 weights (single run, no baseline)",
    );
    report.note(format!(
        "svd pairs: best-of-{REPS} wall clock, one warm-up call"
    ));

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    report.save_json(&root).expect("write BENCH_decompose.json");
    println!("{report}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
