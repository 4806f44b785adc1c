//! Stage planning: everything the compact scheme (and the TIE hardware
//! simulator) needs to know about a workload, computed from the
//! [`TtShape`] alone — no weights required.

use tie_tensor::tile::Activation;
use tie_tensor::{Result, TensorError};
use tie_tt::TtShape;

/// Dimensions and cost of one compact-scheme stage.
///
/// Stage `h` (1-based, executed in order `h = d, d-1, …, 1`) multiplies the
/// unfolded core `G̃_h ((m_h r_{h-1}) × (n_h r_h))` by the transformed
/// intermediate `V'_{h+1} ((n_h r_h) × v_cols)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePlan {
    /// 1-based stage index `h` (also the 1-based core index).
    pub h: usize,
    /// Rows of `G̃_h` = `m_h · r_{h-1}` (= rows of the stage output `V_h`).
    pub gtilde_rows: usize,
    /// Columns of `G̃_h` = `n_h · r_h` (= rows of the stage input `V'_{h+1}`).
    pub gtilde_cols: usize,
    /// Columns of `V'_{h+1}` and of `V_h`: `∏_{l<h} n_l · ∏_{t>h} m_t`.
    pub v_cols: usize,
}

impl StagePlan {
    /// Scalar multiplications of this stage's matrix product.
    pub fn muls(&self) -> u64 {
        self.gtilde_rows as u64 * self.gtilde_cols as u64 * self.v_cols as u64
    }

    /// Elements of the unfolded core (weights touched exactly once per
    /// output-column pass — the paper's "one tensor core per stage").
    pub fn core_elems(&self) -> usize {
        self.gtilde_rows * self.gtilde_cols
    }

    /// Elements of the stage input `V'_{h+1}`.
    pub fn input_elems(&self) -> usize {
        self.gtilde_cols * self.v_cols
    }

    /// Elements of the stage output `V_h`.
    pub fn output_elems(&self) -> usize {
        self.gtilde_rows * self.v_cols
    }
}

/// The full execution plan of the compact scheme for one layer.
///
/// Besides the per-stage dimensions, the plan carries the layer's **fused
/// epilogue**: the [`Activation`] applied inside the final stage's GEMM
/// write loop (the TIE PE applies requantization/activation in the same
/// output pass — see `tie_tensor::tile`). Stages `h ≥ 2` never carry an
/// epilogue; their write loop is the inter-stage Transform scatter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferencePlan {
    shape: TtShape,
    stages: Vec<StagePlan>,
    activation: Activation,
}

impl InferencePlan {
    /// Builds the plan for a layout.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if a stage's multiply
    /// count, or the total across stages, overflows `u64` — a layout can
    /// be storable (every size [`TtShape::new`] checks fits `usize`) and
    /// still describe more multiplications than a `u64` counts.
    pub fn new(shape: &TtShape) -> Result<Self> {
        let d = shape.ndim();
        if d == 0 {
            return Err(TensorError::EmptyShape);
        }
        let mut stages = Vec::with_capacity(d);
        let mut total = 0u64;
        for h in (1..=d).rev() {
            // Each factor is bounded by a size `TtShape::new` checked:
            // `n_left·m_right ≤ N·M`, and the unfolded core dims by the
            // per-core parameter count.
            let n_left: usize = shape.col_modes[..h - 1].iter().product();
            let m_right: usize = shape.row_modes[h..].iter().product();
            let stage = StagePlan {
                h,
                gtilde_rows: shape.row_modes[h - 1] * shape.ranks[h - 1],
                gtilde_cols: shape.col_modes[h - 1] * shape.ranks[h],
                v_cols: n_left * m_right,
            };
            total = [stage.gtilde_rows, stage.gtilde_cols, stage.v_cols]
                .iter()
                .try_fold(1u64, |p, &f| p.checked_mul(f as u64))
                .and_then(|muls| total.checked_add(muls))
                .ok_or_else(|| TensorError::InvalidArgument {
                    message: format!("{shape}: stage {h} multiply count overflows u64"),
                })?;
            stages.push(stage);
        }
        Ok(InferencePlan {
            shape: shape.clone(),
            stages,
            activation: Activation::Identity,
        })
    }

    /// Sets the final-stage fused activation (builder style).
    #[must_use]
    pub fn with_activation(mut self, activation: Activation) -> Self {
        self.activation = activation;
        self
    }

    /// The activation fused into the final stage's write epilogue.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The activation stage `idx` (execution order, `h = d` first) fuses
    /// into its write epilogue: the plan's activation on the last stage
    /// (`h = 1`), [`Activation::Identity`] everywhere else — only the
    /// final stage's output pass runs the activation units.
    pub fn stage_activation(&self, idx: usize) -> Activation {
        if idx + 1 == self.stages.len() {
            self.activation
        } else {
            Activation::Identity
        }
    }

    /// The layout this plan was built for.
    pub fn shape(&self) -> &TtShape {
        &self.shape
    }

    /// Stages in execution order (`h = d` first).
    pub fn stages(&self) -> &[StagePlan] {
        &self.stages
    }

    /// Total multiplications across all stages — the compact-scheme count
    /// (agrees with [`crate::counts::mul_compact`] and with the executed
    /// [`crate::scheme::CompactEngine`] counters; tested). Fits `u64` by
    /// construction (see [`InferencePlan::new`]).
    pub fn total_muls(&self) -> u64 {
        self.stages.iter().map(StagePlan::muls).sum()
    }

    /// Largest intermediate matrix, in elements:
    /// `max_h |V_h|` with `|V_h| = r_{h-1} ∏_{k<h} n_k ∏_{k≥h} m_k`,
    /// including the prepared input `|V'_{d+1}| = N`.
    pub fn max_intermediate_elems(&self) -> usize {
        self.stages
            .iter()
            .map(|s| s.input_elems().max(s.output_elems()))
            .max()
            .unwrap_or(0)
    }

    /// The §3.2 storage-overhead bound: both the input and the output of a
    /// stage are buffered (ping-pong working SRAMs), so the requirement is
    /// `2 × max_h |V_h|` elements.
    pub fn working_set_elems(&self) -> usize {
        2 * self.max_intermediate_elems()
    }

    /// Largest stage *input*, in elements: `max_h |V'_{h+1}|` (including
    /// the prepared input `N`). With the Transform fused into the GEMM
    /// write epilogue each workspace buffer only ever holds a stage input
    /// (the final stage writes straight into the caller's output), so this
    /// — not [`Self::max_intermediate_elems`] — sizes the fused ping-pong
    /// buffers. Always `≤ max_intermediate_elems()`.
    pub fn max_stage_input_elems(&self) -> usize {
        self.stages
            .iter()
            .map(StagePlan::input_elems)
            .max()
            .unwrap_or(0)
    }

    /// Total weight elements across all unfolded cores (weight-SRAM
    /// footprint in elements).
    pub fn total_core_elems(&self) -> usize {
        self.stages.iter().map(StagePlan::core_elems).sum()
    }

    /// Dense-equivalent operation count `2 · M · N` (multiply + add), the
    /// convention EIE/CirCNN/TIE all use when quoting "equivalent TOPS".
    pub fn dense_equivalent_ops(&self) -> u64 {
        2 * self.shape.num_rows() as u64 * self.shape.num_cols() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fc7_shape() -> TtShape {
        TtShape::uniform_rank(vec![4; 6], vec![4; 6], 4).unwrap()
    }

    #[test]
    fn stages_are_in_reverse_core_order() {
        let p = InferencePlan::new(&fc7_shape()).unwrap();
        let hs: Vec<usize> = p.stages().iter().map(|s| s.h).collect();
        assert_eq!(hs, vec![6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn stage_dims_match_hand_computation() {
        // shape: m=[2,3], n=[4,5], r=[1,3,1]
        let s = TtShape::new(vec![2, 3], vec![4, 5], vec![1, 3, 1]).unwrap();
        let p = InferencePlan::new(&s).unwrap();
        // stage h=2: G̃_2 is (m2 r1)×(n2 r2) = 9×5, v_cols = n1 · 1 = 4
        assert_eq!(p.stages()[0].gtilde_rows, 9);
        assert_eq!(p.stages()[0].gtilde_cols, 5);
        assert_eq!(p.stages()[0].v_cols, 4);
        // stage h=1: G̃_1 is (m1 r0)×(n1 r1) = 2×12, v_cols = m2 = 3
        assert_eq!(p.stages()[1].gtilde_rows, 2);
        assert_eq!(p.stages()[1].gtilde_cols, 12);
        assert_eq!(p.stages()[1].v_cols, 3);
        assert_eq!(p.total_muls(), (9 * 5 * 4 + 2 * 12 * 3) as u64);
    }

    #[test]
    fn stage_io_chain_is_consistent() {
        // Output elements of stage h must equal input elements of stage h-1
        // (the transform is a permutation).
        let p = InferencePlan::new(&fc7_shape()).unwrap();
        for w in p.stages().windows(2) {
            assert_eq!(
                w[0].output_elems(),
                w[1].input_elems(),
                "stage {} -> {}",
                w[0].h,
                w[1].h
            );
        }
    }

    #[test]
    fn first_stage_input_is_n_and_last_output_is_m() {
        let p = InferencePlan::new(&fc7_shape()).unwrap();
        assert_eq!(p.stages()[0].input_elems(), 4096);
        assert_eq!(p.stages().last().unwrap().output_elems(), 4096);
    }

    #[test]
    fn working_set_is_twice_the_peak() {
        let s = TtShape::uniform_rank(vec![4; 6], vec![2, 7, 8, 8, 7, 4], 4).unwrap();
        let p = InferencePlan::new(&s).unwrap();
        assert_eq!(p.working_set_elems(), 2 * p.max_intermediate_elems());
        // FC6: peak intermediate exceeds both M and N (rank inflation).
        assert!(p.max_intermediate_elems() >= 25088);
    }

    #[test]
    fn fused_buffer_bound_is_tighter_than_legacy() {
        // Never larger than the legacy bound anywhere…
        for s in [
            fc7_shape(),
            TtShape::uniform_rank(vec![4; 6], vec![2, 7, 8, 8, 7, 4], 4).unwrap(),
            TtShape::uniform_rank(vec![4; 4], vec![8, 20, 20, 18], 4).unwrap(),
        ] {
            let p = InferencePlan::new(&s).unwrap();
            assert!(p.max_stage_input_elems() <= p.max_intermediate_elems());
        }
        // …and strictly smaller when the peak is a final-stage output: here
        // V_1 is 16 elements but no stage input exceeds 4.
        let s = TtShape::uniform_rank(vec![8, 2], vec![2, 2], 1).unwrap();
        let p = InferencePlan::new(&s).unwrap();
        assert_eq!(p.max_intermediate_elems(), 16);
        assert_eq!(p.max_stage_input_elems(), 4);
    }

    #[test]
    fn dense_equivalent_ops() {
        let p = InferencePlan::new(&fc7_shape()).unwrap();
        assert_eq!(p.dense_equivalent_ops(), 2 * 4096 * 4096);
    }

    #[test]
    fn stage_activation_fires_on_the_last_stage_only() {
        let p = InferencePlan::new(&fc7_shape()).unwrap();
        let relu = p.clone().with_activation(Activation::Relu);
        for idx in 0..6 {
            assert_eq!(p.stage_activation(idx), Activation::Identity);
            let want = if idx == 5 {
                Activation::Relu
            } else {
                Activation::Identity
            };
            assert_eq!(relu.stage_activation(idx), want, "idx {idx}");
        }
    }

    #[test]
    fn multiply_count_overflow_is_an_error() {
        // Storable (per-core 2^60, params 2^61, M·N 2^60 all fit usize)
        // but stage h = 2 multiplies 2^45 × 2^15 × 2^15 = 2^75 times.
        let s = TtShape::new(
            vec![1 << 15, 1 << 15],
            vec![1 << 15, 1 << 15],
            vec![1, 1 << 30, 1],
        )
        .unwrap();
        assert_eq!(s.num_params(), 1 << 61);
        assert_eq!(s.dense_params(), 1 << 60);
        let err = InferencePlan::new(&s).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
        // Control: the same modes at rank 1 plan fine.
        let ok = TtShape::new(vec![1 << 15; 2], vec![1 << 15; 2], vec![1, 1, 1]).unwrap();
        assert_eq!(InferencePlan::new(&ok).unwrap().total_muls(), 1 << 46);
    }

    #[test]
    fn total_core_elems_counts_all_weights() {
        let p = InferencePlan::new(&fc7_shape()).unwrap();
        assert_eq!(p.total_core_elems(), fc7_shape().num_params());
    }
}
