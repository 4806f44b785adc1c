//! The `accel-sim` workload: `TieAccelerator` at `TieConfig::default()`
//! (Table 5) runs each Table 4 layer one sample per `run` call.

use crate::inputs::Workload;
use crate::metrics::Counts;
use crate::trace::{Tracer, NONE};
use std::time::{Duration, Instant};
use tie_energy::ActivityEnergy;
use tie_sim::{LoadedLayer, RunStats, TieAccelerator, TieConfig};
use tie_tensor::Tensor;

/// One layer loaded on its own accelerator (a load replaces the weight
/// SRAM's previous layer, so layers do not share one).
#[derive(Debug)]
pub struct SimLayer {
    pub acc: TieAccelerator,
    pub layer: LoadedLayer,
}

/// Loads every layer of `wl`; returns the layers and the seconds each
/// load took.
///
/// # Errors
///
/// Propagates configuration and load errors.
pub fn load(wl: &Workload) -> Result<(Vec<SimLayer>, Vec<f64>), String> {
    let mut out = Vec::with_capacity(wl.layers.len());
    let mut secs = Vec::with_capacity(wl.layers.len());
    for l in &wl.layers {
        let t0 = Instant::now();
        let mut acc = TieAccelerator::new(TieConfig::default()).map_err(|e| e.to_string())?;
        let layer = acc
            .load_layer(l.cores.clone())
            .map_err(|e| format!("{}: {e}", l.name))?;
        secs.push(t0.elapsed().as_secs_f64());
        out.push(SimLayer { acc, layer });
    }
    Ok((out, secs))
}

/// The pool inputs of every layer as the 1-D tensors `run` takes.
///
/// # Panics
///
/// Never for generated inputs (the length is the tensor's only dim).
#[must_use]
pub fn input_tensors(wl: &Workload) -> Vec<Vec<Tensor<f64>>> {
    wl.layers
        .iter()
        .map(|l| {
            l.inputs
                .iter()
                .map(|x| Tensor::from_vec(vec![x.len()], x.clone()).expect("1-D"))
                .collect()
        })
        .collect()
}

/// The first run of every pool input: its output and statistics, against
/// which every timed run is checked.
#[derive(Debug)]
pub struct Reference {
    pub outputs: Vec<Vec<Vec<f64>>>,
    pub stats: Vec<Vec<RunStats>>,
}

/// Runs every pool input once and checks `RunStats::macs()` against the
/// plan's MAC count and the outputs for finiteness.
///
/// # Errors
///
/// Propagates simulator errors and reports a failed check.
pub fn reference(layers: &mut [SimLayer], xs: &[Vec<Tensor<f64>>]) -> Result<Reference, String> {
    let mut outputs = Vec::new();
    let mut all_stats = Vec::new();
    for (sl, inputs) in layers.iter_mut().zip(xs) {
        let (mut outs, mut stats) = (Vec::new(), Vec::new());
        for x in inputs {
            let (y, s) = sl.acc.run(&sl.layer, x, false).map_err(|e| e.to_string())?;
            check(&sl.layer, y.data(), &s)?;
            outs.push(y.data().to_vec());
            stats.push(s);
        }
        outputs.push(outs);
        all_stats.push(stats);
    }
    Ok(Reference {
        outputs,
        stats: all_stats,
    })
}

fn check(layer: &LoadedLayer, y: &[f64], s: &RunStats) -> Result<(), String> {
    if s.macs() != layer.plan().total_muls() {
        return Err(format!(
            "RunStats::macs() {} != plan total_muls {}",
            s.macs(),
            layer.plan().total_muls()
        ));
    }
    if !y.iter().all(|v| v.is_finite()) {
        return Err("non-finite simulator output".into());
    }
    Ok(())
}

/// Activity-energy (nJ) of one run, with the repository's
/// `RunStats` → `Activity` conversion.
#[must_use]
pub fn energy_nj(s: &RunStats) -> f64 {
    let cfg = TieConfig::default();
    ActivityEnergy::default().energy_nj(&tie_bench::measure::activity_of(s, cfg.n_mac))
}

/// What the timed loop measured.
#[derive(Debug, Default)]
pub struct SimPhase {
    pub counts: Counts,
    pub latencies_ns: Vec<u64>,
    pub measure_s: f64,
}

impl SimPhase {
    /// Calls completed inside the measured window per second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.latencies_ns.len() as f64 / self.measure_s
    }
}

/// Round-robin over the layers, one sample per `run` call, inputs from
/// the schedule; each result is checked against the reference run of the
/// same input (outputs bit for bit, statistics exactly).
pub fn run_loop(
    layers: &mut [SimLayer],
    xs: &[Vec<Tensor<f64>>],
    wl: &Workload,
    refs: &Reference,
    warmup: Duration,
    measure: Duration,
    tracer: &mut Tracer,
) -> SimPhase {
    let mut phase = SimPhase {
        measure_s: measure.as_secs_f64(),
        ..SimPhase::default()
    };
    let start = Instant::now();
    let t_measure = start + warmup;
    let t_end = t_measure + measure;
    let mut i = 0usize;
    loop {
        let now = Instant::now();
        if now >= t_end {
            break;
        }
        let li = i % layers.len();
        let (_, input) = wl.schedule[i % wl.schedule.len()];
        let input = input as usize;
        i += 1;
        let sl = &mut layers[li];
        let span = tracer.begin("sim.run", NONE, Some(i as u64));
        let t0 = Instant::now();
        let res = sl.acc.run(&sl.layer, &xs[li][input], false);
        let done = Instant::now();
        tracer.end(span);
        phase.counts.attempted += 1;
        match res {
            Ok((y, s)) => {
                phase.counts.completed += 1;
                let same_out = y
                    .data()
                    .iter()
                    .zip(&refs.outputs[li][input])
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same_out
                    || s != refs.stats[li][input]
                    || check(&sl.layer, y.data(), &s).is_err()
                {
                    phase.counts.mismatched += 1;
                }
            }
            Err(_) => phase.counts.failed += 1,
        }
        if done >= t_measure && done < t_end {
            phase.latencies_ns.push((done - t0).as_nanos() as u64);
        }
    }
    phase
}
