//! The per-layer sweep of a traced run: direct, timed calls into each
//! layer's public functions, each inside a span.
//!
//! * `tie_tensor::pool` — empty-body `dispatch` latency, spawned workers;
//! * `tie_tensor::linalg::gemm_into` — a 512³ GEMM (the host ceiling) and
//!   every Table 4 stage shape, joined with `CostModel::stage_cycles` and
//!   `mul_compact_per_stage`;
//! * `tie_core::CompactEngine` — one batch per Table 4 layer;
//! * the tuned plans' quantized/pipelined engines (`tie-quant`,
//!   `tie_sim::QuantizedEngine` / `PipelinedEngine`);
//! * `tie_sim::TieAccelerator` — load and one-sample run per layer.

use crate::inputs::{plan_layers, table4_layers, Workload, TABLE4_POOL};
use crate::metrics::Metrics;
use crate::serving::{build_registry, Backend, Direct};
use crate::sim;
use crate::stats::{median, time_median};
use crate::trace::{Tracer, NONE};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use tie_core::counts::{mul_compact, mul_compact_per_stage};
use tie_core::{CompactEngine, DeploymentPlan};
use tie_serve::ServeConfig;
use tie_sim::TieConfig;
use tie_tensor::{linalg, parallel, pool};

/// Time budget per timed call site (seconds; at least 3 calls each).
const BUDGET_S: f64 = 0.15;

/// One Table 4 stage: its GEMM as the host runs it beside the TIE model.
#[derive(Debug, Clone)]
pub struct StageRow {
    pub layer: String,
    pub h: usize,
    /// GEMM shape `R_h × W_h × C_h·B`.
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub measured_ns: f64,
    /// `mul_compact_per_stage` MACs for the batch.
    pub macs: u64,
    pub modeled_cycles: u64,
    pub gmacs: f64,
    /// Modeled TIE time (at the Table 5 clock) over measured host time.
    pub modeled_over_measured: f64,
}

impl StageRow {
    #[must_use]
    pub fn json(&self) -> String {
        format!(
            "{{\"layer\":\"{}\",\"h\":{},\"gemm\":[{},{},{}],\"measured_ns\":{:?},\"macs\":{},\"modeled_cycles\":{},\"gmacs\":{:?},\"modeled_over_measured\":{:?}}}",
            self.layer, self.h, self.m, self.k, self.n, self.measured_ns, self.macs,
            self.modeled_cycles, self.gmacs, self.modeled_over_measured
        )
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs the whole sweep with workload inputs drawn from `seed`.
///
/// # Errors
///
/// Propagates any layer error.
pub fn sweep(
    seed: u64,
    plans: &[DeploymentPlan],
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Result<Vec<StageRow>, String> {
    pool_and_ceiling(seed, tracer, out)?;
    let t4 = Workload::generate(seed, &table4_layers(), TABLE4_POOL);
    let rows = float_engines(seed, &t4, tracer, out)?;
    quantized_engines(seed, plans, tracer, out)?;
    simulator(&t4, tracer, out)?;
    Ok(rows)
}

fn pool_and_ceiling(seed: u64, tracer: &mut Tracer, out: &mut Metrics) -> Result<(), String> {
    let threads = parallel::num_threads();
    pool::prewarm(threads);
    out.push(
        "pool.spawned_workers",
        pool::spawned_workers() as f64,
        "count",
    );
    let parent = tracer.begin("sweep.pool", NONE, None);
    const CALLS: usize = 200;
    let per_call_s = time_median(
        || {
            tracer.span("pool.dispatch", parent, || {
                for _ in 0..CALLS {
                    pool::dispatch(threads, |i| {
                        std::hint::black_box(i);
                    });
                }
            });
            Ok(())
        },
        BUDGET_S,
    )? / CALLS as f64;
    tracer.end(parent);
    out.push("pool.dispatch_noop_us", per_call_s * 1e6, "us");

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x512);
    let n = 512;
    let a: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut c = vec![0.0; n * n];
    let parent = tracer.begin("sweep.gemm512", NONE, None);
    let t = time_median(
        || {
            tracer.span("linalg.gemm_into", parent, || {
                linalg::gemm_into(&a, &b, &mut c, n, n, n).map_err(err)
            })
        },
        BUDGET_S,
    )?;
    tracer.end(parent);
    std::hint::black_box(&c);
    out.push("tile.gemm512.gmacs", (n * n * n) as f64 / t / 1e9, "GMAC/s");
    Ok(())
}

fn float_engines(
    seed: u64,
    t4: &Workload,
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Result<Vec<StageRow>, String> {
    let b = ServeConfig::default().max_batch;
    let cfg = TieConfig::default();
    let cost = cfg.cost_model();
    let mut rows = Vec::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x57a6e);
    for (li, l) in t4.layers.iter().enumerate() {
        let engine = CompactEngine::new(l.cores.clone()).map_err(err)?;
        let shape = l.cores.shape();
        let xs = t4.batch_input(li, b);
        let mut ys = vec![0.0; shape.num_rows() * b];
        let parent = tracer.begin(format!("sweep.engine.{}", l.name), NONE, None);
        let t = time_median(
            || {
                tracer.span("engine.matvec_batch_into", parent, || {
                    engine
                        .matvec_batch_into(&xs, b, &mut ys)
                        .map(|_| ())
                        .map_err(err)
                })
            },
            BUDGET_S,
        )?;
        tracer.end(parent);
        let name = &l.name;
        out.push(format!("engine.{name}.batch_ms"), t * 1e3, "ms");
        out.push(
            format!("engine.{name}.gmacs"),
            (mul_compact(shape) * b as u64) as f64 / t / 1e9,
            "GMAC/s",
        );
        out.push(
            format!("engine.{name}.bytes_moved_per_sample"),
            engine.bytes_moved_per_sample() as f64,
            "bytes",
        );
        out.push(
            format!("engine.{name}.elided_bytes_per_sample"),
            engine.transform_elided_bytes_per_sample() as f64,
            "bytes",
        );

        let plan = engine.plan();
        let modeled = cost.stage_cycles(plan, b);
        let macs = mul_compact_per_stage(shape);
        for ((stage, &cycles), &(h, muls)) in plan.stages().iter().zip(&modeled).zip(&macs) {
            debug_assert_eq!(stage.h, h);
            let (m, k, n) = (stage.gtilde_rows, stage.gtilde_cols, stage.v_cols * b);
            let a: Vec<f64> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let bm: Vec<f64> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut c = vec![0.0; m * n];
            let parent = tracer.begin(format!("sweep.stage.{name}.h{h}"), NONE, None);
            let t = time_median(
                || {
                    tracer.span("linalg.gemm_into", parent, || {
                        linalg::gemm_into(&a, &bm, &mut c, m, k, n).map_err(err)
                    })
                },
                BUDGET_S,
            )?;
            tracer.end(parent);
            let batch_macs = muls * b as u64;
            let gmacs = (m * k * n) as f64 / t / 1e9;
            let modeled_s = cycles as f64 / (cfg.freq_mhz * 1e6);
            out.push(format!("tile.{name}.h{h}.gmacs"), gmacs, "GMAC/s");
            out.push(
                format!("costing.{name}.h{h}.modeled_cycles"),
                cycles as f64,
                "cycles",
            );
            rows.push(StageRow {
                layer: name.clone(),
                h,
                m,
                k,
                n,
                measured_ns: t * 1e9,
                macs: batch_macs,
                modeled_cycles: cycles,
                gmacs,
                modeled_over_measured: modeled_s / t,
            });
        }
    }
    Ok(rows)
}

fn quantized_engines(
    seed: u64,
    plans: &[DeploymentPlan],
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Result<(), String> {
    let b = ServeConfig::default().max_batch;
    let wl = Workload::generate(seed, &plan_layers(plans), TABLE4_POOL);
    let reg = build_registry(&wl, &Backend::Plans(plans.to_vec()))?;
    for (li, (l, plan)) in wl.layers.iter().zip(plans).enumerate() {
        let engine = Direct::lookup(&reg, &l.name)?;
        let (m, _) = engine.dims();
        let xs = wl.batch_input(li, b);
        let mut ys = vec![0.0; m * b];
        let parent = tracer.begin(format!("sweep.quant.{}", l.name), NONE, None);
        let t = time_median(
            || {
                tracer.span("quant.matvec_batch_into", parent, || {
                    engine.run(&xs, b, &mut ys).map(|_| ())
                })
            },
            BUDGET_S,
        )?;
        tracer.end(parent);
        out.push(format!("quant.{}.batch_ms", l.name), t * 1e3, "ms");
        out.push(
            format!("quant.{}.gmacs", l.name),
            (mul_compact(&plan.shape) * b as u64) as f64 / t / 1e9,
            "GMAC/s",
        );
    }
    Ok(())
}

fn simulator(t4: &Workload, tracer: &mut Tracer, out: &mut Metrics) -> Result<(), String> {
    let cfg = TieConfig::default();
    let xs = sim::input_tensors(t4);
    let mut load_s = vec![Vec::new(); t4.layers.len()];
    let mut layers = Vec::new();
    for _ in 0..3 {
        let parent = tracer.begin("sweep.sim.load", NONE, None);
        let (loaded, secs) = sim::load(t4)?;
        tracer.end(parent);
        for (acc, s) in load_s.iter_mut().zip(secs) {
            acc.push(s);
        }
        layers = loaded;
    }
    for (li, sl) in layers.iter_mut().enumerate() {
        let name = &t4.layers[li].name;
        let x = &xs[li][0];
        let parent = tracer.begin(format!("sweep.sim.{name}"), NONE, None);
        let mut last = None;
        let t = time_median(
            || {
                let r = tracer.span("sim.run", parent, || sl.acc.run(&sl.layer, x, false));
                last = Some(r.map_err(err)?.1);
                Ok(())
            },
            BUDGET_S,
        )?;
        tracer.end(parent);
        let s = last.expect("time_median calls at least once");
        let predicted = sl.acc.predict_cycles(sl.layer.plan());
        out.push(format!("sim.{name}.run_ms"), t * 1e3, "ms");
        out.push(
            format!("sim.{name}.load_ms"),
            median(&load_s[li]) * 1e3,
            "ms",
        );
        out.push(format!("sim.{name}.cycles"), s.cycles() as f64, "cycles");
        out.push(
            format!("sim.{name}.utilization"),
            s.utilization(cfg.n_pe, cfg.n_mac),
            "ratio",
        );
        out.push(
            format!("sim.{name}.weight_word_reads"),
            s.weight_word_reads() as f64,
            "count",
        );
        out.push(
            format!("sim.{name}.act_reads"),
            s.act_reads() as f64,
            "count",
        );
        out.push(
            format!("sim.{name}.act_writes"),
            s.act_writes() as f64,
            "count",
        );
        out.push(
            format!("sim.{name}.cycles_over_predicted"),
            s.cycles() as f64 / predicted as f64,
            "ratio",
        );
    }
    Ok(())
}

/// The stage join as an aligned text table.
#[must_use]
pub fn join_table(rows: &[StageRow]) -> String {
    let mut s = String::from(
        "stage join (B = ServeConfig::default().max_batch; modeled at TieConfig::default()):\n  layer          h  gemm R x W x C*B        measured_ms     MACs   modeled_cycles  GMAC/s  modeled/measured\n",
    );
    for r in rows {
        let _ = writeln!(
            s,
            "  {:<13} {:>2}  {:>5} x {:>4} x {:>7}  {:>11.4} {:>10} {:>14} {:>7.3} {:>10.5}",
            r.layer,
            r.h,
            r.m,
            r.k,
            r.n,
            r.measured_ns / 1e6,
            r.macs,
            r.modeled_cycles,
            r.gmacs,
            r.modeled_over_measured
        );
    }
    s
}
