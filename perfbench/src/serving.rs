//! Closed-loop serving through `tie_serve::InferenceService`.
//!
//! One client thread keeps a fixed window of `Client::submit` tickets in
//! flight and reaps the oldest with `Ticket::wait`. Every response is
//! compared bit for bit with a direct `matvec_batch_into` on the same
//! registry engine, made before timing (batching is bit-identical by
//! contract).

use crate::inputs::Workload;
use crate::metrics::{Counts, Metrics};
use crate::stats;
use crate::trace::{Tracer, NONE};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tie_core::{CompactEngine, DeploymentPlan};
use tie_quant::QMatmulReport;
use tie_serve::{Client, EngineRegistry, InferenceService, ServeConfig, ServiceStats, Ticket};
use tie_sim::{PipelinedEngine, QuantConfig, QuantizedEngine};

/// How the served engines are built.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Float `CompactEngine`s over the workload's cores.
    Float,
    /// `EngineRegistry::insert_from_plan`, one plan per layer, in order.
    Plans(Vec<DeploymentPlan>),
}

/// Builds the registry the service will own (the timed set-up work).
///
/// # Errors
///
/// Propagates engine construction and plan errors.
pub fn build_registry(wl: &Workload, backend: &Backend) -> Result<EngineRegistry, String> {
    let mut reg = EngineRegistry::new();
    for (i, l) in wl.layers.iter().enumerate() {
        match backend {
            Backend::Float => {
                let engine = CompactEngine::new(l.cores.clone()).map_err(|e| e.to_string())?;
                reg.insert(l.name.clone(), engine);
            }
            Backend::Plans(plans) => {
                reg.insert_from_plan(&plans[i], l.cores.clone(), QuantConfig::default())
                    .map_err(|e| format!("{}: {e}", l.name))?;
            }
        }
    }
    Ok(reg)
}

/// A registry engine called directly, bypassing the service.
#[derive(Debug, Clone)]
pub enum Direct {
    Float(Arc<CompactEngine<f64>>),
    Quantized(Arc<QuantizedEngine>),
    Pipelined(Arc<PipelinedEngine>),
}

impl Direct {
    /// # Errors
    ///
    /// When `name` is not registered.
    pub fn lookup(reg: &EngineRegistry, name: &str) -> Result<Self, String> {
        if let Some(e) = reg.get(name) {
            Ok(Direct::Float(e))
        } else if let Some(e) = reg.get_quantized(name) {
            Ok(Direct::Quantized(e))
        } else if let Some(e) = reg.get_pipelined(name) {
            Ok(Direct::Pipelined(e))
        } else {
            Err(format!("layer {name} is not registered"))
        }
    }

    /// One batched call (`xs` row-major `N × b`); the quantization report
    /// for fixed-point engines.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn run(
        &self,
        xs: &[f64],
        b: usize,
        ys: &mut [f64],
    ) -> Result<Option<QMatmulReport>, String> {
        match self {
            Direct::Float(e) => e.matvec_batch_into(xs, b, ys).map(|_| None),
            Direct::Quantized(e) => e.matvec_batch_into(xs, b, ys).map(Some),
            Direct::Pipelined(e) => e.matvec_batch_into(xs, b, ys).map(|r| Some(r.quant)),
        }
        .map_err(|e| e.to_string())
    }

    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        match self {
            Direct::Float(e) => (e.matrix().shape().num_rows(), e.matrix().shape().num_cols()),
            Direct::Quantized(e) => (e.num_rows(), e.num_cols()),
            Direct::Pipelined(e) => (e.num_rows(), e.num_cols()),
        }
    }
}

/// Direct single-sample outputs of every pool input, per layer.
///
/// # Errors
///
/// Propagates engine errors.
pub fn reference_outputs(
    reg: &EngineRegistry,
    wl: &Workload,
) -> Result<Vec<Vec<Vec<f64>>>, String> {
    wl.layers
        .iter()
        .map(|l| {
            let engine = Direct::lookup(reg, &l.name)?;
            let (m, _) = engine.dims();
            l.inputs
                .iter()
                .map(|x| {
                    let mut y = vec![0.0; m];
                    engine.run(x, 1, &mut y)?;
                    Ok(y)
                })
                .collect()
        })
        .collect()
}

/// Set-up, repeated as [`stats::more_setup_reps`] asks: registry build,
/// `InferenceService::start`, and the first answer of every layer (input
/// 0 of each, submitted together), so initialization deferred to the
/// first request still counts as set-up.
///
/// # Errors
///
/// Propagates registry, service start and first-answer errors.
pub fn start_service(wl: &Workload, backend: &Backend) -> Result<Started, String> {
    let mut setup_s = Vec::new();
    let mut last = None;
    while stats::more_setup_reps(&setup_s) {
        drop(last.take());
        let t0 = Instant::now();
        let reg = build_registry(wl, backend)?;
        let service =
            InferenceService::start(reg, ServeConfig::default()).map_err(|e| e.to_string())?;
        let client = service.client();
        let tickets = wl
            .layers
            .iter()
            .map(|l| client.submit(&l.name, l.inputs[0].clone()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let answers = tickets
            .into_iter()
            .map(|t| t.wait().map(|r| r.output))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some((service, answers));
    }
    let (service, first_answers) = last.expect("at least one set-up");
    Ok(Started {
        service,
        first_answers,
        setup_s,
    })
}

/// The service of the last set-up repetition.
#[derive(Debug)]
pub struct Started {
    pub service: InferenceService,
    /// Output for input 0 of every layer, in layer order.
    pub first_answers: Vec<Vec<f64>>,
    /// Every repetition's set-up time.
    pub setup_s: Vec<f64>,
}

struct InFlight {
    ticket: Ticket,
    t_submit: Instant,
    layer: u16,
    input: u16,
    id: u64,
    span: usize,
}

/// A child span of a sampled request span (none for an unsampled one).
fn child(tracer: &mut Tracer, name: &'static str, parent: usize, id: u64) -> usize {
    if parent == NONE {
        NONE
    } else {
        tracer.begin(name, parent, Some(id))
    }
}

/// What one closed-loop phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub counts: Counts,
    /// Submit→wait latency of requests completed inside the measured
    /// window, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Length of the measured window, seconds.
    pub measure_s: f64,
    /// Responses in the measured window by `(layer, batch size)`.
    pub batch_hist: BTreeMap<(u16, usize), u64>,
    /// Service counters over the measured window only.
    pub window_stats: ServiceStats,
}

impl Phase {
    /// Completions inside the measured window per second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.latencies_ns.len() as f64 / self.measure_s
    }
}

/// Closed-loop settings of one phase.
#[derive(Debug, Clone, Copy)]
pub struct LoopSpec {
    pub window: usize,
    pub warmup: Duration,
    pub measure: Duration,
    /// Trace one request in this many (when the tracer is enabled).
    pub trace_every: u64,
}

/// Runs one closed-loop phase: `warmup` unmeasured, then `measure`
/// measured, then a drain of the remaining window.
pub fn closed_loop(
    client: &Client,
    wl: &Workload,
    refs: &[Vec<Vec<f64>>],
    spec: LoopSpec,
    cursor: &mut usize,
    next_request: &mut u64,
    tracer: &mut Tracer,
) -> Phase {
    let mut phase = Phase {
        measure_s: spec.measure.as_secs_f64(),
        ..Phase::default()
    };
    let mut queue: VecDeque<InFlight> = VecDeque::with_capacity(spec.window);
    let start = Instant::now();
    let t_measure = start + spec.warmup;
    let t_end = t_measure + spec.measure;
    let (mut at_measure, mut at_end) = (None, None);
    loop {
        let now = Instant::now();
        if at_measure.is_none() && now >= t_measure {
            at_measure = Some(client.stats());
        }
        if now >= t_end {
            at_end.get_or_insert_with(|| client.stats());
        } else {
            while queue.len() < spec.window {
                let (layer, input) = wl.schedule[*cursor % wl.schedule.len()];
                *cursor += 1;
                let data = &wl.layers[layer as usize];
                let x = data.inputs[input as usize].clone();
                let id = *next_request;
                *next_request += 1;
                let span = if id.is_multiple_of(spec.trace_every) {
                    tracer.begin("request", NONE, Some(id))
                } else {
                    NONE
                };
                let t_submit = Instant::now();
                let sub = child(tracer, "serve.submit", span, id);
                let submitted = client.submit(&data.name, x);
                tracer.end(sub);
                phase.counts.attempted += 1;
                match submitted {
                    Ok(ticket) => queue.push_back(InFlight {
                        ticket,
                        t_submit,
                        layer,
                        input,
                        id,
                        span,
                    }),
                    Err(_) => {
                        phase.counts.rejected += 1;
                        tracer.end(span);
                    }
                }
            }
        }
        let Some(f) = queue.pop_front() else { break };
        let wait = child(tracer, "serve.wait", f.span, f.id);
        let res = f.ticket.wait();
        tracer.end(wait);
        tracer.end(f.span);
        let done = Instant::now();
        match res {
            Ok(resp) => {
                phase.counts.completed += 1;
                let want = &refs[f.layer as usize][f.input as usize];
                if !bit_equal(&resp.output, want) {
                    phase.counts.mismatched += 1;
                }
                if done >= t_measure && done < t_end {
                    phase
                        .latencies_ns
                        .push((done - f.t_submit).as_nanos() as u64);
                    *phase
                        .batch_hist
                        .entry((f.layer, resp.batch_size))
                        .or_default() += 1;
                }
            }
            Err(_) => phase.counts.failed += 1,
        }
    }
    if let (Some(before), Some(after)) = (&at_measure, &at_end) {
        phase.window_stats = delta(after, before);
    }
    phase
}

/// Bitwise equality of two outputs.
#[must_use]
pub fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The counters this benchmark reads, as `after − before` (the rest
/// stay zero).
fn delta(after: &ServiceStats, before: &ServiceStats) -> ServiceStats {
    ServiceStats {
        batches: after.batches - before.batches,
        full_batches: after.full_batches - before.full_batches,
        deadline_batches: after.deadline_batches - before.deadline_batches,
        batched_requests: after.batched_requests - before.batched_requests,
        quant_outputs: after.quant_outputs - before.quant_outputs,
        quant_acc_saturations: after.quant_acc_saturations - before.quant_acc_saturations,
        quant_out_saturations: after.quant_out_saturations - before.quant_out_saturations,
        pipeline_handoffs: after.pipeline_handoffs - before.pipeline_handoffs,
        pipeline_send_stalls: after.pipeline_send_stalls - before.pipeline_send_stalls,
        pipeline_recv_stalls: after.pipeline_recv_stalls - before.pipeline_recv_stalls,
        ..ServiceStats::default()
    }
}

/// Checks the final service counters against the client's own books:
/// `submitted == completed + failed`, and each count equal to what the
/// client saw. Returns the discrepancies.
#[must_use]
pub fn reconcile(stats: &ServiceStats, client: &Counts) -> Vec<String> {
    let mut errs = Vec::new();
    if stats.submitted != stats.completed + stats.failed {
        errs.push(format!(
            "service submitted {} != completed {} + failed {}",
            stats.submitted, stats.completed, stats.failed
        ));
    }
    let accepted = client.attempted - client.rejected;
    for (what, service, ours) in [
        ("submitted", stats.submitted, accepted),
        ("completed", stats.completed, client.completed),
        ("failed", stats.failed, client.failed),
        ("rejected", stats.rejected, client.rejected),
    ] {
        if service != ours {
            errs.push(format!("{what}: service {service} != client {ours}"));
        }
    }
    errs
}

/// Per-layer serving metrics of one untraced phase (from `ServiceStats`
/// over the measured window).
pub fn serve_layer_metrics(phase: &Phase, out: &mut Metrics) {
    let s = &phase.window_stats;
    let batches = s.batches.max(1) as f64;
    out.push("serve.batches", s.batches as f64, "count");
    out.push("serve.mean_occupancy", s.mean_occupancy(), "requests");
    out.push(
        "serve.full_batch_frac",
        s.full_batches as f64 / batches,
        "ratio",
    );
    out.push(
        "serve.deadline_batch_frac",
        s.deadline_batches as f64 / batches,
        "ratio",
    );
    out.push("quant.saturation_rate", s.quant_saturation_rate(), "ratio");
    out.push("pipeline.stall_frac", s.pipeline_stall_fraction(), "ratio");
}

/// Serving overhead per request: measured wall time per request minus the
/// engine time per request, the latter from replaying the observed batch
/// sizes directly on the registry engines (sequentially, on this thread).
///
/// # Errors
///
/// Propagates engine errors.
pub fn overhead_us_per_req(
    reg: &EngineRegistry,
    wl: &Workload,
    phase: &Phase,
    measure: Duration,
) -> Result<f64, String> {
    let n = phase.latencies_ns.len();
    if n == 0 {
        return Err("no completions to attribute".into());
    }
    let mut engine_s = 0.0;
    for (&(layer, b), &responses) in &phase.batch_hist {
        let engine = Direct::lookup(reg, &wl.layers[layer as usize].name)?;
        let (m, _) = engine.dims();
        let xs = wl.batch_input(layer as usize, b);
        let mut ys = vec![0.0; m * b];
        let t = stats::time_median(|| engine.run(&xs, b, &mut ys).map(|_| ()), 0.05)?;
        engine_s += responses as f64 / b as f64 * t;
    }
    Ok((measure.as_secs_f64() - engine_s) / n as f64 * 1e6)
}

/// SQNR (dB) of `outs` (per layer, per pool input) against `float`
/// engines on the same cores, over every pool input.
///
/// # Errors
///
/// Propagates engine errors.
pub fn sqnr_db(
    wl: &Workload,
    float: &[&CompactEngine<f64>],
    outs: &[Vec<Vec<f64>>],
) -> Result<f64, String> {
    let (mut signal, mut noise) = (0.0f64, 0.0f64);
    for ((l, engine), outs) in wl.layers.iter().zip(float).zip(outs) {
        let mut y = vec![0.0; l.cores.shape().num_rows()];
        for (x, q) in l.inputs.iter().zip(outs) {
            engine
                .matvec_batch_into(x, 1, &mut y)
                .map_err(|e| e.to_string())?;
            for (a, b) in y.iter().zip(q) {
                signal += a * a;
                noise += (a - b) * (a - b);
            }
        }
    }
    Ok(10.0 * (signal / noise).log10())
}
