//! End-to-end and per-layer benchmark of the TIE reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (the tuned plans are read from
//! `tuned_plans_table4.json` there). Workloads:
//!
//! * `table4-float` — requests spread uniformly over the four Table 4
//!   layers, served by `InferenceService` on float `CompactEngine`s; the
//!   float stage GEMM does almost all the work.
//! * `table4-quant-tuned` — the same stream on engines built by
//!   `EngineRegistry::insert_from_plan` from the committed tuned plans
//!   (quantized, pipelined); the float kernel is bypassed.
//! * `small-layers` — 16 small TT layers with a window deep enough that
//!   batches fill, so per-request serving cost dominates.
//! * `accel-sim` — `TieAccelerator` at `TieConfig::default()` runs each
//!   Table 4 layer one sample per `run` call.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of the sweep in
//! `layers.rs` plus `trace.overhead_frac`, and the spans are written to
//! `perfbench/out/`. See `METRICS.md` for what each metric predicts.

mod inputs;
mod layers;
mod metrics;
mod serving;
mod sim;
mod stats;
mod trace;

use inputs::{plan_layers, small_layers, table4_layers, Workload, SMALL_POOL, TABLE4_POOL};
use metrics::{Counts, Metrics};
use serving::{Backend, LoopSpec};
use std::process::ExitCode;
use std::time::Duration;
use tie_core::{plans_from_json, CompactEngine, DeploymentPlan, InferencePlan};
use tie_serve::ServeConfig;
use tie_sim::TieConfig;
use trace::Tracer;

/// The end-to-end metrics, in result-line order.
const END_TO_END: [&str; 6] = [
    "throughput_rps",
    "latency_p50_ms",
    "latency_p99_ms",
    "setup_s",
    "peak_rss_mb",
    "modeled_cycles_per_sample",
];

const WORKLOADS: [&str; 4] = [
    "table4-float",
    "table4-quant-tuned",
    "small-layers",
    "accel-sim",
];

/// File holding the tuned deployment plans, relative to the repository root.
const PLANS_FILE: &str = "tuned_plans_table4.json";
/// Where traced runs write their spans.
const TRACE_DIR: &str = "perfbench/out";

/// Unmeasured lead-in of every timed loop.
const WARMUP: Duration = Duration::from_millis(1000);
/// Requests in flight for the Table 4 serving workloads.
const TABLE4_WINDOW: usize = 32;
/// Requests in flight for `small-layers` (16 layers × `max_batch` 16).
const SMALL_WINDOW: usize = 256;
/// `small-layers` traces one request in this many (the rest run
/// untouched), keeping a traced run's spans to a few megabytes.
const SMALL_TRACE_EVERY: u64 = 64;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: u64 = seconds.unwrap_or(20);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Everything one run produced.
#[derive(Debug, Default)]
struct Outcome {
    counts: Counts,
    /// Problems that make the run incorrect (besides counted errors).
    problems: Vec<String>,
    end_to_end: Metrics,
    per_layer: Metrics,
    /// Printed for information, not part of the result line.
    extra: Metrics,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let plans = load_plans()?;
    print_header(args);
    let mut tracer = Tracer::new(false);
    let mut out = match args.workload.as_str() {
        "table4-float" => {
            let wl = Workload::generate(args.seed, &table4_layers(), TABLE4_POOL);
            serve_workload(args, &wl, &Backend::Float, TABLE4_WINDOW, 1, &mut tracer)?
        }
        "table4-quant-tuned" => {
            let wl = Workload::generate(args.seed, &plan_layers(&plans), TABLE4_POOL);
            serve_workload(
                args,
                &wl,
                &Backend::Plans(plans.clone()),
                TABLE4_WINDOW,
                1,
                &mut tracer,
            )?
        }
        "small-layers" => {
            let wl = Workload::generate(args.seed, &small_layers(), SMALL_POOL);
            serve_workload(
                args,
                &wl,
                &Backend::Float,
                SMALL_WINDOW,
                SMALL_TRACE_EVERY,
                &mut tracer,
            )?
        }
        _ => sim_workload(args, &mut tracer)?,
    };
    out.end_to_end.push("peak_rss_mb", peak_rss_mb()?, "MB");
    if args.trace {
        tracer.set_enabled(true);
        let rows = layers::sweep(args.seed, &plans, &mut tracer, &mut out.per_layer)?;
        print!("{}", layers::join_table(&rows));
        write_trace(args, &out, &rows, &tracer)?;
    }

    let c = out.counts;
    out.extra.push("error_rate", c.error_rate(), "ratio");
    println!(
        "requests: attempted {} completed {} failed {} rejected {} mismatched {}",
        c.attempted, c.completed, c.failed, c.rejected, c.mismatched
    );
    for m in out
        .end_to_end
        .0
        .iter()
        .chain(&out.extra.0)
        .chain(&out.per_layer.0)
    {
        println!("{:<48} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &out.problems {
        println!("problem: {p}");
    }
    let correct = c.errors() == 0 && out.problems.is_empty();
    let metrics = if args.trace {
        let names = per_layer_names();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        out.per_layer.json_object(&names)?
    } else {
        out.end_to_end.json_object(&END_TO_END)?
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        c.attempted,
        c.errors()
    );
    Ok(correct)
}

fn load_plans() -> Result<Vec<DeploymentPlan>, String> {
    let text = std::fs::read_to_string(PLANS_FILE)
        .map_err(|e| format!("{PLANS_FILE}: {e} (run from the repository root)"))?;
    let plans = plans_from_json(&text).map_err(|e| format!("{PLANS_FILE}: {e}"))?;
    let want: Vec<String> = table4_layers().into_iter().map(|(n, _)| n).collect();
    let got: Vec<String> = plans.iter().map(|p| p.layer.clone()).collect();
    if got != want {
        return Err(format!(
            "{PLANS_FILE}: plans for {got:?}, expected {want:?}"
        ));
    }
    Ok(plans)
}

/// The per-layer metrics of the result line, in order.
fn per_layer_names() -> Vec<String> {
    let mut names = vec![
        "pool.dispatch_noop_us".to_string(),
        "tile.gemm512.gmacs".to_string(),
    ];
    let t4 = table4_layers();
    for (l, shape) in &t4 {
        for m in [
            "batch_ms",
            "gmacs",
            "bytes_moved_per_sample",
            "elided_bytes_per_sample",
        ] {
            names.push(format!("engine.{l}.{m}"));
        }
        for h in (1..=shape.ndim()).rev() {
            names.push(format!("tile.{l}.h{h}.gmacs"));
            names.push(format!("costing.{l}.h{h}.modeled_cycles"));
        }
    }
    for (l, _) in &t4 {
        names.push(format!("quant.{l}.batch_ms"));
        names.push(format!("quant.{l}.gmacs"));
    }
    for (l, _) in &t4 {
        for m in [
            "run_ms",
            "load_ms",
            "cycles",
            "utilization",
            "weight_word_reads",
            "act_reads",
            "act_writes",
            "cycles_over_predicted",
        ] {
            names.push(format!("sim.{l}.{m}"));
        }
    }
    names.push("trace.overhead_frac".into());
    names
}

/// The measured window of one loop: `--seconds`, or a quarter of it for
/// each of the four alternating loops of a traced run.
fn measure_window(args: &Args) -> Duration {
    let whole = Duration::from_secs(args.seconds);
    if args.trace {
        whole / 4
    } else {
        whole
    }
}

fn loop_spec(args: &Args, window: usize, trace_every: u64) -> LoopSpec {
    LoopSpec {
        window,
        warmup: WARMUP,
        measure: measure_window(args),
        trace_every,
    }
}

/// After a first untraced loop of throughput `untraced`, runs a traced,
/// an untraced and a traced loop (alternating, so drift does not read as
/// overhead) and returns 1 − traced / untraced throughput.
fn tracing_overhead(
    untraced: f64,
    tracer: &mut Tracer,
    mut run: impl FnMut(&mut Tracer) -> f64,
) -> f64 {
    let (mut untraced, mut traced) = (untraced, 0.0);
    for on in [true, false, true] {
        tracer.set_enabled(on);
        let tp = run(tracer);
        if on {
            traced += tp;
        } else {
            untraced += tp;
        }
    }
    tracer.set_enabled(false);
    1.0 - traced / untraced
}

/// Latency percentiles; an unsupported one fails an untraced run (its
/// result line needs it) and is only noted in a traced run.
fn latency_metrics(args: &Args, latencies_ns: &[u64], out: &mut Outcome) {
    let mut ms: Vec<f64> = latencies_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    out.extra.push("latency_samples", ms.len() as f64, "count");
    for (name, q) in [("latency_p50_ms", 0.5), ("latency_p99_ms", 0.99)] {
        match stats::percentile(&ms, q) {
            Some(v) => out.end_to_end.push(name, v, "ms"),
            None => {
                let why = format!(
                    "{name}: {} samples do not leave {} beyond the percentile",
                    ms.len(),
                    stats::MIN_TAIL
                );
                if args.trace {
                    println!("note: {why}");
                } else {
                    out.problems.push(why);
                }
            }
        }
    }
}

fn serve_workload(
    args: &Args,
    wl: &Workload,
    backend: &Backend,
    window: usize,
    trace_every: u64,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    print_inputs(wl);
    let started = serving::start_service(wl, backend)?;
    let service = started.service;
    out.end_to_end
        .push("setup_s", stats::median(&started.setup_s), "s");
    let client = service.client();
    let refs = serving::reference_outputs(client.registry(), wl)?;
    for (answer, want) in started.first_answers.iter().zip(&refs) {
        out.counts.attempted += 1;
        out.counts.completed += 1;
        if !serving::bit_equal(answer, &want[0]) {
            out.counts.mismatched += 1;
        }
    }
    if let Backend::Plans(plans) = backend {
        let floats = wl
            .layers
            .iter()
            .zip(plans)
            .map(|(l, p)| {
                CompactEngine::new(l.cores.clone()).map(|e| e.with_activation(p.activation))
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let floats: Vec<&CompactEngine<f64>> = floats.iter().collect();
        out.extra
            .push("sqnr_db", serving::sqnr_db(wl, &floats, &refs)?, "dB");
    }
    let spec = loop_spec(args, window, trace_every);
    let (mut cursor, mut next_id) = (0usize, 0u64);
    let phase = serving::closed_loop(&client, wl, &refs, spec, &mut cursor, &mut next_id, tracer);
    out.counts.add(&phase.counts);
    out.end_to_end
        .push("throughput_rps", phase.throughput(), "1/s");
    latency_metrics(args, &phase.latencies_ns, &mut out);
    out.end_to_end.push(
        "modeled_cycles_per_sample",
        serving_modeled_cycles(wl, backend)?,
        "cycles",
    );

    if args.trace {
        serving::serve_layer_metrics(&phase, &mut out.extra);
        let counts = &mut out.counts;
        let overhead = tracing_overhead(phase.throughput(), tracer, |tracer| {
            let p =
                serving::closed_loop(&client, wl, &refs, spec, &mut cursor, &mut next_id, tracer);
            counts.add(&p.counts);
            p.throughput()
        });
        out.per_layer.push("trace.overhead_frac", overhead, "ratio");
        let submit_us: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "serve.submit")
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        out.extra
            .push("serve.submit_us_p50", stats::median(&submit_us), "us");
        let overhead = serving::overhead_us_per_req(client.registry(), wl, &phase, spec.measure)?;
        out.extra.push("serve.overhead_us_per_req", overhead, "us");
    }
    drop(client);
    let final_stats = service.shutdown();
    out.problems
        .extend(serving::reconcile(&final_stats, &out.counts));
    Ok(out)
}

/// Modeled TIE cycles per sample of the served layers (layer-uniform
/// mean, as the request mix is uniform over layers): float engines at the
/// service's `max_batch`, plans at their own batch/depth/micro-batch.
fn serving_modeled_cycles(wl: &Workload, backend: &Backend) -> Result<f64, String> {
    let cost = TieConfig::default().cost_model();
    let b = ServeConfig::default().max_batch;
    let mut total = 0.0;
    for (i, l) in wl.layers.iter().enumerate() {
        let plan = InferencePlan::new(l.cores.shape()).map_err(|e| e.to_string())?;
        total += match backend {
            Backend::Float => cost.cycles_per_sample(&plan, b, 1, 1),
            Backend::Plans(p) => {
                cost.cycles_per_sample(&plan, p[i].batch, p[i].pipeline_depth, p[i].micro_batch)
            }
        };
    }
    Ok(total / wl.layers.len() as f64)
}

fn sim_workload(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let wl = Workload::generate(args.seed, &table4_layers(), TABLE4_POOL);
    print_inputs(&wl);
    let mut setup = Vec::new();
    let mut layers = Vec::new();
    while stats::more_setup_reps(&setup) {
        drop(std::mem::take(&mut layers));
        let (loaded, secs) = sim::load(&wl)?;
        setup.push(secs.iter().sum::<f64>());
        layers = loaded;
    }
    out.end_to_end.push("setup_s", stats::median(&setup), "s");
    let xs = sim::input_tensors(&wl);
    let refs = sim::reference(&mut layers, &xs)?;
    let measure = measure_window(args);
    let phase = sim::run_loop(&mut layers, &xs, &wl, &refs, WARMUP, measure, tracer);
    out.counts.add(&phase.counts);
    out.end_to_end
        .push("throughput_rps", phase.throughput(), "1/s");
    latency_metrics(args, &phase.latencies_ns, &mut out);

    let per_layer_mean = |f: &dyn Fn(&tie_sim::RunStats) -> f64| {
        let means: Vec<f64> = refs
            .stats
            .iter()
            .map(|runs| runs.iter().map(f).sum::<f64>() / runs.len() as f64)
            .collect();
        means.iter().sum::<f64>() / means.len() as f64
    };
    out.end_to_end.push(
        "modeled_cycles_per_sample",
        per_layer_mean(&|s| s.cycles() as f64),
        "cycles",
    );
    out.extra.push(
        "modeled_energy_nj_per_sample",
        per_layer_mean(&sim::energy_nj),
        "nJ",
    );
    let floats: Vec<&CompactEngine<f64>> = layers.iter().map(|sl| sl.layer.reference()).collect();
    out.extra.push(
        "sqnr_db",
        serving::sqnr_db(&wl, &floats, &refs.outputs)?,
        "dB",
    );

    if args.trace {
        let counts = &mut out.counts;
        let overhead = tracing_overhead(phase.throughput(), tracer, |tracer| {
            let p = sim::run_loop(&mut layers, &xs, &wl, &refs, WARMUP, measure, tracer);
            counts.add(&p.counts);
            p.throughput()
        });
        out.per_layer.push("trace.overhead_frac", overhead, "ratio");
    }
    Ok(out)
}

fn print_header(args: &Args) {
    let simd = simd_tier();
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc {} tie_threads {} TIE_THREADS {} simd {simd} git {}",
        tie_tensor::parallel::available_parallelism(),
        tie_tensor::parallel::num_threads(),
        std::env::var("TIE_THREADS").unwrap_or_else(|_| "unset".into()),
        git_head()
    );
    println!(
        "serve: {:?} workers {}",
        ServeConfig::default(),
        ServeConfig::default().resolved_workers()
    );
}

fn print_inputs(wl: &Workload) {
    println!(
        "inputs: {} layers, {} inputs each, schedule {} requests, digest {:016x}",
        wl.layers.len(),
        wl.layers[0].inputs.len(),
        wl.schedule.len(),
        wl.digest()
    );
}

/// The float kernel tier `tie_tensor::tile::FloatAuto` dispatches to.
fn simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        if std::arch::is_x86_feature_detected!("avx") {
            return "avx";
        }
    }
    "portable"
}

/// HEAD commit read from `.git` without running git ("unavailable" in a
/// plain source tree).
fn git_head() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unavailable".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{r}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unavailable".into())
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".into())
}

fn write_trace(
    args: &Args,
    out: &Outcome,
    rows: &[layers::StageRow],
    tracer: &Tracer,
) -> Result<(), String> {
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
    let path = format!("{TRACE_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
    let metrics: Vec<String> = out
        .per_layer
        .0
        .iter()
        .chain(&out.extra.0)
        .map(|m| {
            format!(
                "{{\"name\":\"{}\",\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let rows: Vec<String> = rows.iter().map(layers::StageRow::json).collect();
    let body = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"metrics\":[{}],\"stage_join\":[{}],\"trace\":{}}}\n",
        args.workload,
        args.seed,
        metrics.join(","),
        rows.join(","),
        tracer.to_json().trim_end()
    );
    std::fs::write(&path, body).map_err(|e| format!("{path}: {e}"))?;
    println!("trace: {} spans written to {path}", tracer.spans().len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    /// The `"name"` values listed under `section` in BENCHMARK.json.
    fn listed(section: &str) -> Vec<String> {
        let start = BENCHMARK
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &BENCHMARK[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_program_reports() {
        assert_eq!(listed("workloads"), WORKLOADS);
        assert_eq!(listed("end_to_end"), END_TO_END);
        assert_eq!(listed("per_layer"), per_layer_names());
    }
}
