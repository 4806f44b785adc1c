//! Dispatch-latency benchmark for the persistent pool (pool PR acceptance
//! evidence).
//!
//! Two families of rows, both run at `TIE_THREADS=8` (pinned via
//! `set_num_threads`) on a pre-warmed pool:
//!
//! * **GEMM rows** — the same blocked kernel through both dispatch paths
//!   (`gemm_into` on the pool vs `gemm_into_scoped`, the pre-pool
//!   per-call `std::thread::scope` implementation kept as baseline) over
//!   a 128³–512³ cube sweep. Outputs are asserted bit-identical before
//!   any timing, so a speedup can never come from computing different
//!   bits. Small cubes are dispatch-dominated (where the pool pays off);
//!   large cubes are compute-dominated (both paths converge — the pool
//!   must never lose there).
//! * **Pure dispatch rows** — an 8-slab no-op through both paths, i.e.
//!   the per-call overhead itself with zero compute to hide it.
//!
//! Writes `BENCH_pool.json` at the repository root.

use std::path::Path;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tie_bench::measure::median_secs;
use tie_bench::report::{fnum, Report};
use tie_tensor::{linalg, parallel, pool};

const THREADS: usize = 8;
const GEMM_SIZES: [usize; 5] = [128, 192, 256, 384, 512];
const REPS: usize = 40;

struct GemmRow {
    pooled_ms: f64,
    scoped_ms: f64,
}

/// Interleaved median timing of both dispatch paths on one cube, with a
/// bit-identity check up front.
fn measure_gemm(size: usize) -> GemmRow {
    let (m, k, n) = (size, size, size);
    let a: Vec<f64> = (0..m * k)
        .map(|i| ((i % 97) as f64) * 0.013 - 0.5)
        .collect();
    let b: Vec<f64> = (0..k * n)
        .map(|i| ((i % 89) as f64) * 0.017 - 0.7)
        .collect();
    let mut c_pool = vec![0.0; m * n];
    let mut c_scoped = vec![0.0; m * n];

    linalg::gemm_into(&a, &b, &mut c_pool, m, k, n).unwrap();
    linalg::gemm_into_scoped(&a, &b, &mut c_scoped, m, k, n).unwrap();
    for (i, (p, s)) in c_pool.iter().zip(&c_scoped).enumerate() {
        assert!(
            p.to_bits() == s.to_bits(),
            "{size}^3 element {i}: pooled {p:e} != scoped {s:e}"
        );
    }

    let mut pooled = Vec::with_capacity(REPS);
    let mut scoped = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        linalg::gemm_into(&a, &b, &mut c_pool, m, k, n).unwrap();
        pooled.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        linalg::gemm_into_scoped(&a, &b, &mut c_scoped, m, k, n).unwrap();
        scoped.push(t.elapsed().as_secs_f64());
    }
    GemmRow {
        pooled_ms: median_secs(pooled) * 1e3,
        scoped_ms: median_secs(scoped) * 1e3,
    }
}

/// Per-call overhead of an 8-slab dispatch with (near-)zero work per slab.
fn measure_dispatch_overhead() -> (f64, f64) {
    let rows = THREADS;
    let mut buf = vec![0u8; rows];
    let mut pooled = Vec::with_capacity(REPS * 4);
    let mut scoped = Vec::with_capacity(REPS * 4);
    for _ in 0..REPS * 4 {
        let t = Instant::now();
        parallel::for_each_row_slab(&mut buf, rows, 1, THREADS, |_, slab| {
            slab[0] = slab[0].wrapping_add(1);
        });
        pooled.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        parallel::for_each_row_slab_scoped(&mut buf, rows, 1, THREADS, |_, slab| {
            slab[0] = slab[0].wrapping_add(1);
        });
        scoped.push(t.elapsed().as_secs_f64());
    }
    (median_secs(pooled) * 1e6, median_secs(scoped) * 1e6)
}

fn bench(c: &mut Criterion) {
    let prev = parallel::set_num_threads(THREADS);
    pool::prewarm(THREADS);

    let mut group = c.benchmark_group("pool");
    group.sample_size(10);
    for &size in &GEMM_SIZES[..2] {
        group.bench_with_input(BenchmarkId::new("gemm_pooled", size), &size, |bch, &s| {
            let a = vec![0.5f64; s * s];
            let b = vec![0.25f64; s * s];
            let mut cbuf = vec![0.0f64; s * s];
            bch.iter(|| linalg::gemm_into(&a, &b, &mut cbuf, s, s, s).unwrap());
        });
    }
    group.finish();

    write_json();
    parallel::set_num_threads(prev);
}

fn write_json() {
    let mut report = Report::new(
        "BENCH_pool",
        "Persistent-pool vs scoped-spawn dispatch (blocked GEMM, 8 threads)",
        "not a paper figure — acceptance evidence for the pool PR (warm-pool \
         dispatch must beat per-call std::thread::scope spawning, with \
         bit-identical outputs)",
    );
    report.headers(["kernel", "pooled_ms", "scoped_ms", "speedup"]);

    for &size in &GEMM_SIZES {
        let row = measure_gemm(size);
        report.row([
            format!("gemm {size}^3"),
            fnum(row.pooled_ms),
            fnum(row.scoped_ms),
            fnum(row.scoped_ms / row.pooled_ms),
        ]);
    }
    let (pooled_us, scoped_us) = measure_dispatch_overhead();
    report.row([
        "dispatch only (8 slabs, no-op)".to_string(),
        fnum(pooled_us / 1e3),
        fnum(scoped_us / 1e3),
        fnum(scoped_us / pooled_us),
    ]);

    report.note(format!(
        "TIE_THREADS pinned to {THREADS} via set_num_threads, pool pre-warmed; \
         medians of {REPS} interleaved reps; outputs asserted bit-identical \
         between both paths before timing"
    ));
    report.note(format!(
        "host available_parallelism = {} — on few-core hosts large cubes are \
         compute-bound and the two paths converge; the pool's win is the \
         dispatch overhead (see the no-op row and the small cubes), which is \
         what let PARALLEL_MIN_WORK drop 8x (1<<17 -> 1<<14)",
        parallel::available_parallelism()
    ));
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    report.save_json(&root).expect("write BENCH_pool.json");
    println!("{report}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
