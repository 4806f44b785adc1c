//! The inter-stage Transform (Eqn. 10): fused write-epilogue pipeline vs
//! the legacy gather-table pipeline (fused-transform PR acceptance
//! evidence).
//!
//! For every Table 4 layer at batch 16, times the float compact engine's
//! default fused path (`matvec_batch_into` — each stage GEMM's write loop
//! evaluates the composed Transform map, no permutation pass, no
//! transform intermediate) against the retained gather-table oracle
//! (`matvec_batch_into_gather` — GEMM into scratch, then a precomputed
//! gather copy per stage). Outputs are asserted **bit-identical** before
//! any timing, so a win can never come from computing different bits.
//! Alongside the latency rows, reports the copy traffic the fusion
//! eliminates (bytes/sample the legacy pipeline re-copied through the
//! Transform and output assembly vs the Eqn. 8 input preparation that
//! remains).
//!
//! Writes `BENCH_transform.json` at the repository root.

use std::path::Path;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tie_bench::measure::median_secs;
use tie_bench::report::{fnum, Report};
use tie_core::CompactEngine;
use tie_tt::TtMatrix;
use tie_workloads::benchmarks::table4_benchmarks;

const BATCH: usize = 16;
const REPS: usize = 20;

struct Row {
    name: &'static str,
    gather_ms: f64,
    fused_ms: f64,
    legacy_bytes: u64,
    fused_bytes: u64,
}

/// Fused vs gather-oracle batch-16 latency on one Table 4 layer, with a
/// bit-identity check up front and the per-sample traffic accounting.
fn measure(name: &'static str) -> Row {
    let bench = table4_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .expect("known Table 4 layer");
    let mut rng = ChaCha8Rng::seed_from_u64(0x7f05ed);
    let matrix = TtMatrix::<f64>::random(&mut rng, &bench.shape, 0.5).unwrap();
    let engine = CompactEngine::new(matrix).unwrap();
    let (n, m) = (bench.shape.num_cols(), bench.shape.num_rows());
    let xs: Vec<f64> = (0..n * BATCH).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut fused = vec![0.0f64; m * BATCH];
    let mut oracle = vec![0.0f64; m * BATCH];

    engine.matvec_batch_into(&xs, BATCH, &mut fused).unwrap();
    engine
        .matvec_batch_into_gather(&xs, BATCH, &mut oracle)
        .unwrap();
    for (i, (f, o)) in fused.iter().zip(&oracle).enumerate() {
        assert!(f.to_bits() == o.to_bits(), "{name}: element {i} diverges");
    }

    let mut fused_t = Vec::with_capacity(REPS);
    let mut gather_t = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        engine.matvec_batch_into(&xs, BATCH, &mut fused).unwrap();
        fused_t.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        engine
            .matvec_batch_into_gather(&xs, BATCH, &mut oracle)
            .unwrap();
        gather_t.push(t.elapsed().as_secs_f64());
    }

    let moved = engine.bytes_moved_per_sample();
    let elided = engine.transform_elided_bytes_per_sample();
    Row {
        name,
        gather_ms: median_secs(gather_t) * 1e3,
        fused_ms: median_secs(fused_t) * 1e3,
        legacy_bytes: moved + elided,
        fused_bytes: moved,
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("transform");
    group.sample_size(10);
    let fc7 = table4_benchmarks()
        .into_iter()
        .find(|b| b.name == "VGG-FC7")
        .expect("FC7 present");
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let matrix = TtMatrix::<f64>::random(&mut rng, &fc7.shape, 0.5).unwrap();
    let engine = CompactEngine::new(matrix).unwrap();
    let n = fc7.shape.num_cols();
    let m = fc7.shape.num_rows();
    let xs: Vec<f64> = (0..n * BATCH).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut ys = vec![0.0f64; m * BATCH];
    group.bench_function("fc7_batch16_fused", |bch| {
        bch.iter(|| engine.matvec_batch_into(&xs, BATCH, &mut ys).unwrap())
    });
    group.bench_function("fc7_batch16_gather_oracle", |bch| {
        bch.iter(|| {
            engine
                .matvec_batch_into_gather(&xs, BATCH, &mut ys)
                .unwrap()
        })
    });
    group.finish();

    write_json();
}

fn write_json() {
    let mut report = Report::new(
        "BENCH_transform",
        "Fused Transform write epilogue vs gather-table pipeline, Table 4 batch-16",
        "not a paper figure — acceptance evidence for the fused-transform PR \
         (the paper's Fig. 10 write-side ReArrange makes the Transform free \
         in hardware; fusing the composed indexing map into the GEMM write \
         loop must eliminate the host pipeline's permutation pass and its \
         memory traffic, bit-identically)",
    );
    report.headers([
        "workload",
        "gather ms/batch",
        "fused ms/batch",
        "speedup",
        "copied B/sample (gather)",
        "copied B/sample (fused)",
        "traffic reduction",
    ]);
    for name in ["VGG-FC6", "VGG-FC7", "LSTM-UCF11", "LSTM-Youtube"] {
        let r = measure(name);
        report.row([
            r.name.to_string(),
            fnum(r.gather_ms),
            fnum(r.fused_ms),
            fnum(r.gather_ms / r.fused_ms),
            r.legacy_bytes.to_string(),
            r.fused_bytes.to_string(),
            fnum(r.legacy_bytes as f64 / r.fused_bytes as f64),
        ]);
    }
    report.note(format!(
        "medians of {REPS} reps, batch {BATCH}, float engine, random Table 4 \
         layers; fused and gather outputs asserted bit-identical before \
         timing (the differential + indexmap_fused suites prove the same at \
         pool sizes 1/2/8)"
    ));
    report.note(
        "copied bytes/sample counts pure data movement outside the GEMMs: \
         gather = input preparation + every inter-stage Transform copy + \
         output assembly; fused = input preparation only (the one \
         permutation with no producing GEMM to fuse into) — the reduction \
         factor is the permutation traffic the fused write epilogue elides",
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    report.save_json(&root).expect("write BENCH_transform.json");
    println!("{report}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
