//! Shared measurement helpers used by the experiment modules, and the
//! wall-clock timing helpers the benches share.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;
use tie_baselines::eie::{CscMatrix, EieModel, EieRunStats};
use tie_core::InferencePlan;
use tie_energy::TieAreaPowerModel;
use tie_sim::{RunStats, TieAccelerator, TieConfig};
use tie_tensor::{init, Result, Tensor};
use tie_tt::{TtMatrix, TtShape};
use tie_workloads::sparsity::SparsityProfile;

/// One TIE measurement on a layer workload.
#[derive(Debug, Clone)]
pub struct TieMeasurement {
    /// Full simulator statistics.
    pub stats: RunStats,
    /// Latency in seconds at the configured clock.
    pub latency_s: f64,
    /// Dense-equivalent ops of the layer (`2·M·N`).
    pub dense_ops: u64,
    /// Dense-equivalent throughput, ops/s.
    pub equivalent_ops_per_sec: f64,
    /// MAC-array utilization.
    pub utilization: f64,
    /// Modeled power at that utilization, mW.
    pub power_mw: f64,
    /// Modeled die area, mm².
    pub area_mm2: f64,
}

/// Runs the cycle-accurate simulator on a randomly-weighted instance of
/// `shape` (performance depends only on the layout) and derives the
/// paper's figures of merit.
///
/// # Errors
///
/// Propagates simulator errors (capacity, shapes).
pub fn measure_tie_layer(config: &TieConfig, shape: &TtShape, seed: u64) -> Result<TieMeasurement> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let matrix = TtMatrix::<f64>::random(&mut rng, shape, 0.5)?;
    let mut tie = TieAccelerator::new(*config)?;
    let loaded = tie.load_layer(matrix)?;
    let x: Tensor<f64> = init::uniform(&mut rng, vec![shape.num_cols()], 1.0);
    let (_, stats) = tie.run(&loaded, &x, false)?;
    let latency_s = stats.latency_seconds(config.freq_mhz);
    let dense_ops = loaded.plan().dense_equivalent_ops();
    let utilization = stats.utilization(config.n_pe, config.n_mac);
    let model = tie_power_model(config);
    Ok(TieMeasurement {
        equivalent_ops_per_sec: stats.equivalent_ops_per_sec(dense_ops, config.freq_mhz),
        latency_s,
        dense_ops,
        utilization,
        power_mw: model.power_at_utilization(utilization).total(),
        area_mm2: model.area().total(),
        stats,
    })
}

/// Converts the simulator's word/element counters into the crate-neutral
/// [`tie_energy::Activity`] event record (weight words expand to
/// `n_mac` elements each).
pub fn activity_of(stats: &RunStats, n_mac: usize) -> tie_energy::Activity {
    tie_energy::Activity {
        macs: stats.macs(),
        weight_elem_reads: stats.weight_word_reads() * n_mac as u64,
        act_elem_reads: stats.act_reads(),
        act_elem_writes: stats.act_writes() * 16, // write words are N_PE-wide
        cycles: stats.cycles(),
    }
}

/// The area/power model instance matching a simulator configuration.
pub fn tie_power_model(config: &TieConfig) -> TieAreaPowerModel {
    TieAreaPowerModel::new(
        config.n_pe * config.n_mac,
        (config.weight_sram_bytes + 2 * config.working_sram_bytes) as f64 / 1024.0,
        config.freq_mhz,
    )
}

/// Analytic cycle count for a *batched* compact-scheme pass (all `batch`
/// matrix-vector products interleaved as extra `V` columns) — the CONV
/// execution model of Fig. 3, where every output pixel is one column.
/// `Σ_h ceil(R_h/N_MAC) · ceil(W_h·batch/N_PE) · C_h`.
pub fn batched_cycles(plan: &InferencePlan, batch: usize, n_pe: usize, n_mac: usize) -> u64 {
    plan.stages()
        .iter()
        .map(|s| {
            (s.gtilde_rows.div_ceil(n_mac) * (s.v_cols * batch).div_ceil(n_pe) * s.gtilde_cols)
                as u64
        })
        .sum()
}

/// One EIE measurement on a sparse layer.
#[derive(Debug, Clone, Copy)]
pub struct EieMeasurement {
    /// Cycle-model statistics.
    pub stats: EieRunStats,
    /// Latency in seconds at `freq_mhz`.
    pub latency_s: f64,
    /// Dense-equivalent throughput, ops/s.
    pub equivalent_ops_per_sec: f64,
}

/// Runs the EIE model on a synthetic sparse layer of the published
/// density profile.
///
/// # Errors
///
/// Propagates model errors (cannot occur for consistent arguments).
pub fn measure_eie(
    rows: usize,
    cols: usize,
    profile: &SparsityProfile,
    freq_mhz: f64,
    seed: u64,
) -> Result<EieMeasurement> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let w = CscMatrix::random(&mut rng, rows, cols, profile.weight_density, 16);
    let model = EieModel::default();
    let stats = model.estimate(&mut rng, &w, profile.act_density)?;
    let latency_s = stats.cycles as f64 / (freq_mhz * 1e6);
    let dense_ops = 2.0 * rows as f64 * cols as f64;
    Ok(EieMeasurement {
        stats,
        latency_s,
        equivalent_ops_per_sec: dense_ops / latency_s,
    })
}

/// Best-of-`reps` wall-clock seconds for `f` (one untimed warm-up call).
pub fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// The host a wall-clock row was measured on, for a bench report's notes:
/// hardware threads, the SIMD tier the float tile kernel dispatches to,
/// and the `TIE_THREADS` setting with the pool width it resolves to.
#[must_use]
pub fn host_note() -> String {
    format!(
        "host: nproc {}, SIMD tier {}, TIE_THREADS={} (pool width {})",
        tie_tensor::parallel::available_parallelism(),
        tie_tensor::tile::float_tier(),
        std::env::var("TIE_THREADS").unwrap_or_else(|_| "unset".into()),
        tie_tensor::parallel::num_threads(),
    )
}

/// Median of wall-clock samples in seconds (the upper median for an even
/// count). Panics on an empty sample set.
#[must_use]
pub fn median_secs(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tie_measurement_on_fc7_is_consistent() {
        let cfg = TieConfig::default();
        let shape = TtShape::uniform_rank(vec![4; 6], vec![4; 6], 4).unwrap();
        let m = measure_tie_layer(&cfg, &shape, 1).unwrap();
        assert!(m.latency_s > 0.0);
        assert!(m.utilization > 0.0 && m.utilization <= 1.0);
        assert!((m.area_mm2 - 1.744).abs() < 0.01);
        assert!(m.power_mw <= 154.9);
        // equivalent throughput = dense_ops / latency
        let expect = m.dense_ops as f64 / m.latency_s;
        assert!((m.equivalent_ops_per_sec - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn batched_cycles_scale_roughly_linearly() {
        let shape = TtShape::uniform_rank(vec![4, 4], vec![4, 4], 4).unwrap();
        let plan = InferencePlan::new(&shape).unwrap();
        let one = batched_cycles(&plan, 1, 16, 16);
        let many = batched_cycles(&plan, 64, 16, 16);
        assert!(many > one);
        // Large batches amortize tiling padding: ≤ 64× the single cost.
        assert!(many <= 64 * one);
    }

    #[test]
    fn eie_measurement_fc7_scale() {
        let m = measure_eie(512, 512, &tie_workloads::sparsity::VGG_FC7, 800.0, 7).unwrap();
        assert!(m.stats.cycles > 0);
        assert!(m.equivalent_ops_per_sec > 0.0);
    }
}
