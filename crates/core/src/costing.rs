//! Analytic candidate costing: the closed-form TIE cycle model as a pure
//! function of an [`InferencePlan`] and a hardware configuration.
//!
//! This is the Fig. 7 tiling model the simulator's
//! `TieAccelerator::predict_cycles` has always used, hoisted out of
//! `tie-sim` so that *planners* — the deployment autotuner above all —
//! can score thousands of candidate layouts without constructing an
//! accelerator (or touching any weights). The simulator delegates to
//! [`CostModel`], so the two can never drift apart.
//!
//! Two refinements over the plain per-layer sum make the model usable as
//! a search objective:
//!
//! * **batched costing** ([`CostModel::batched_stage_cycles`]): batch
//!   columns ride along as extra `V` columns of every stage, so the pass
//!   count uses `ceil(v_cols·b / N_PE)` — *not* `b · ceil(v_cols/N_PE)`;
//!   wide batches genuinely amortize partially filled PE passes, and the
//!   model must see that.
//! * **pipelined costing** ([`CostModel::pipelined_cycles`]): the
//!   fill-plus-bottleneck-drain overlap model over a [`plan_cuts`]
//!   partition, mirroring `RunStats::pipelined_cycles` but computed from
//!   the analytic per-stage cycles instead of measured ones.

use crate::pipeline::plan_cuts;
use crate::plan::{InferencePlan, StagePlan};

/// The hardware parameters the cycle model depends on — a projection of
/// the simulator's full `TieConfig` (PE/MAC geometry and the per-pass
/// overhead knob; SRAM capacities gate *feasibility*, not cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Processing elements (columns of one output block).
    pub n_pe: usize,
    /// MAC units per PE (rows of one output block).
    pub n_mac: usize,
    /// Extra cycles charged per PE-array pass (pipeline fill/drain;
    /// 0 reproduces the paper's steady-state accounting).
    pub pass_overhead_cycles: u64,
}

impl Default for CostModel {
    /// The Table 5 prototype: 16 PEs × 16 MACs, no pass overhead.
    fn default() -> Self {
        CostModel {
            n_pe: 16,
            n_mac: 16,
            pass_overhead_cycles: 0,
        }
    }
}

impl CostModel {
    /// Cycles of one stage at batch width `b`:
    /// `ceil(R_h/N_MAC) · ceil(C_h·b/N_PE) · (W_h + overhead)` where
    /// `R_h × W_h` is the unfolded core and `C_h` the per-sample `V`
    /// column count. Saturates at `u64::MAX` for a batch too wide to
    /// count: the product is formed in `u128` (the column count
    /// `C_h·b` is exact there) and clamped.
    #[must_use]
    pub fn batched_stage_cycles(&self, stage: &StagePlan, b: usize) -> u64 {
        let col_passes = (stage.v_cols as u128 * b as u128).div_ceil(self.n_pe as u128);
        let passes = (stage.gtilde_rows.div_ceil(self.n_mac) as u128).saturating_mul(col_passes);
        let per_pass = stage.gtilde_cols as u128 + u128::from(self.pass_overhead_cycles);
        u64::try_from(passes.saturating_mul(per_pass)).unwrap_or(u64::MAX)
    }

    /// Per-stage cycles of a whole plan at batch width `b`, in execution
    /// order (`h = d` first).
    #[must_use]
    pub fn stage_cycles(&self, plan: &InferencePlan, b: usize) -> Vec<u64> {
        plan.stages()
            .iter()
            .map(|s| self.batched_stage_cycles(s, b))
            .collect()
    }

    /// Total sequential cycles of one batch-`b` pass (the
    /// `predict_cycles` figure; `b = 1` is the classic single-sample
    /// prediction). Saturates at `u64::MAX`.
    #[must_use]
    pub fn total_cycles(&self, plan: &InferencePlan, b: usize) -> u64 {
        saturating_sum(&self.stage_cycles(plan, b))
    }

    /// Cycles of one batch-`b` pass executed as a stage pipeline of the
    /// given `depth` (clamped to `[1, d]` by [`plan_cuts`]) streaming
    /// `chunks` micro-batch chunks: fill latency (one chunk crossing
    /// every pipeline stage) plus steady-state drain at the bottleneck
    /// segment's rate — the same closed form as
    /// `RunStats::pipelined_cycles`, evaluated analytically. A saturated
    /// sequential total saturates the result too.
    #[must_use]
    pub fn pipelined_cycles(
        &self,
        plan: &InferencePlan,
        depth: usize,
        b: usize,
        chunks: u64,
    ) -> u64 {
        let total = self.total_cycles(plan, b);
        if chunks <= 1 || depth <= 1 || total == u64::MAX {
            return total;
        }
        let stage_cycles = self.stage_cycles(plan, b);
        let cut = plan_cuts(plan, depth);
        let bottleneck = cut
            .runs()
            .iter()
            .map(|r| saturating_sum(&stage_cycles[r.lo..r.hi]))
            .max()
            .unwrap_or(0);
        // Exact in u128: (2^64 − 1) + (2^64 − 2)·(2^64 − 1) < 2^128.
        let drained = u128::from(total) + u128::from(chunks - 1) * u128::from(bottleneck);
        u64::try_from(drained.div_ceil(u128::from(chunks))).unwrap_or(u64::MAX)
    }

    /// Modeled cycles **per sample** of the deployment knobs the
    /// autotuner searches: batch width `b`, pipeline `depth`, micro-batch
    /// chunk width `micro`. Fractional because a batch amortizes partial
    /// passes across samples.
    #[must_use]
    pub fn cycles_per_sample(
        &self,
        plan: &InferencePlan,
        b: usize,
        depth: usize,
        micro: usize,
    ) -> f64 {
        if b == 0 {
            return 0.0;
        }
        let chunks = b.div_ceil(micro.max(1)) as u64;
        self.pipelined_cycles(plan, depth, b, chunks) as f64 / b as f64
    }
}

/// Sum of cycle counts, saturating at `u64::MAX`.
fn saturating_sum(cycles: &[u64]) -> u64 {
    cycles.iter().fold(0, |acc, &c| acc.saturating_add(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tie_tt::TtShape;

    fn fc7_plan() -> InferencePlan {
        InferencePlan::new(&TtShape::uniform_rank(vec![4; 6], vec![4; 6], 4).unwrap()).unwrap()
    }

    #[test]
    fn single_sample_matches_hand_computation() {
        // FC7 at the Table 5 geometry: stage h=6 is 16×4 over 1024
        // columns → 64 passes × 4 cycles; h=5…2 are 16×16 over 1024 →
        // 64 × 16 each; h=1 is 4×16 over 1024 → 64 × 16.
        let m = CostModel::default();
        let cycles = m.stage_cycles(&fc7_plan(), 1);
        assert_eq!(cycles[0], 256);
        assert_eq!(&cycles[1..5], &[1024; 4]);
        assert_eq!(cycles[5], 1024);
        assert_eq!(m.total_cycles(&fc7_plan(), 1), 256 + 4 * 1024 + 1024);
    }

    #[test]
    fn batching_amortizes_partial_passes() {
        // A stage with v_cols = 3 wastes 13 of 16 PE columns per pass;
        // batching 16 samples fills the passes exactly.
        let shape = TtShape::uniform_rank(vec![4, 4], vec![4, 4], 1).unwrap();
        let plan = InferencePlan::new(&shape).unwrap();
        let m = CostModel::default();
        let one = m.total_cycles(&plan, 1) as f64;
        let sixteen = m.total_cycles(&plan, 16) as f64 / 16.0;
        assert!(
            sixteen < one,
            "batch-16 per-sample {sixteen} should beat single-sample {one}"
        );
    }

    #[test]
    fn pipelining_approaches_the_bottleneck_rate() {
        let plan = fc7_plan();
        let m = CostModel::default();
        let seq = m.total_cycles(&plan, 1);
        // Depth 1 or a single chunk degenerate to the sequential cost.
        assert_eq!(m.pipelined_cycles(&plan, 1, 1, 16), seq);
        assert_eq!(m.pipelined_cycles(&plan, 4, 1, 1), seq);
        // Real pipelining strictly beats sequential, and more chunks help.
        let p4 = m.pipelined_cycles(&plan, 4, 1, 4);
        let p16 = m.pipelined_cycles(&plan, 4, 1, 16);
        assert!(p4 < seq && p16 < p4, "{seq} -> {p4} -> {p16}");
        // Never below the bottleneck bound.
        let cut = plan_cuts(&plan, 4);
        let cycles = m.stage_cycles(&plan, 1);
        let bottleneck: u64 = cut
            .runs()
            .iter()
            .map(|r| cycles[r.lo..r.hi].iter().sum::<u64>())
            .max()
            .unwrap();
        assert!(p16 >= bottleneck);
    }

    #[test]
    fn batch_too_wide_to_count_saturates() {
        let plan = fc7_plan();
        let m = CostModel::default();
        let b = usize::MAX / 2;
        for stage in plan.stages() {
            assert_eq!(m.batched_stage_cycles(stage, b), u64::MAX);
        }
        assert_eq!(m.total_cycles(&plan, b), u64::MAX);
        assert_eq!(m.pipelined_cycles(&plan, 4, b, 16), u64::MAX);
        assert_eq!(
            m.cycles_per_sample(&plan, b, 4, 16),
            u64::MAX as f64 / b as f64
        );
    }

    #[test]
    fn cycles_per_sample_divides_the_batch_through() {
        let plan = fc7_plan();
        let m = CostModel::default();
        let direct = m.pipelined_cycles(&plan, 2, 8, 8) as f64 / 8.0;
        assert!((m.cycles_per_sample(&plan, 8, 2, 1) - direct).abs() < 1e-12);
        assert_eq!(m.cycles_per_sample(&plan, 0, 2, 1), 0.0);
    }
}
