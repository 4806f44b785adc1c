use crate::layer::{Layer, Trainable};
use tie_core::indexmap::{assemble_dest_map, stage_dest_map};
use tie_core::transform::{
    assemble_output_gather, fold_core, prepare_input_scatter, unfold_core, TransformMap,
};
use tie_core::{Activation, InferencePlan};
use tie_tensor::linalg::{gemm_into_mapped, matmul, matmul_nt, matmul_tn};
use tie_tensor::{Result, Tensor, TensorError};
use tie_tt::{TtMatrix, TtShape};

use rand::Rng;

/// Forward-pass cache of one TT-layer batch (everything the exact backward
/// pass needs).
#[derive(Debug, Clone)]
pub struct TtLayerCache {
    /// `stage_inputs[idx]` is the **batched** `V'_{h+1}` for execution
    /// index `idx` (`idx = 0` ⇔ `h = d`): a `gtilde_cols × (v_cols·B)`
    /// matrix with the batch index inner-most.
    stage_inputs: Vec<Tensor<f32>>,
    /// Batch size the cache was built for.
    batch: usize,
}

/// Functional TT-layer forward: `Y = X Wᵀ` where `W` is given by 4-D TT
/// cores (no bias). Runs **one batch-wide compact pass** — each of the `d`
/// stages is a single GEMM over the whole minibatch, with the batch index
/// riding inner-most so the inter-stage transforms are contiguous block
/// copies — and returns the cache for [`tt_layer_backward`].
///
/// `x` is batch-major `[B, N]`; the result is `[B, M]`. Per sample, the
/// arithmetic (and its floating-point order) is identical to running the
/// compact scheme one sample at a time.
///
/// # Errors
///
/// Returns shape errors for mismatched inputs.
pub fn tt_layer_forward(
    cores: &[Tensor<f32>],
    shape: &TtShape,
    x: &Tensor<f32>,
) -> Result<(Tensor<f32>, TtLayerCache)> {
    let (n, m, d) = (shape.num_cols(), shape.num_rows(), shape.ndim());
    if x.ndim() != 2 || x.dims()[1] != n {
        return Err(TensorError::ShapeMismatch {
            left: x.dims().to_vec(),
            right: vec![0, n],
        });
    }
    let bsz = x.dims()[0];
    let gtildes: Vec<Tensor<f32>> = cores.iter().map(unfold_core).collect::<Result<_>>()?;
    let transforms: Vec<TransformMap> = (2..=d)
        .rev()
        .map(|h| TransformMap::new(shape, h))
        .collect::<Result<_>>()?;
    // Batched prepare (Eqn. (8)): X' with batch inner-most. The input is
    // batch-major, so this is a scatter per sample.
    let scatter = prepare_input_scatter(shape);
    let n_d = shape.col_modes[d - 1];
    let mut v = Tensor::<f32>::zeros(vec![n_d, (n / n_d) * bsz]);
    for b in 0..bsz {
        let row = x.row(b);
        for (j, &dst) in scatter.iter().enumerate() {
            v.data_mut()[dst * bsz + b] = row[j];
        }
    }
    let mut stage_inputs = Vec::with_capacity(d);
    for (idx, h) in (1..=d).rev().enumerate() {
        stage_inputs.push(v.clone());
        // One GEMM covers the whole batch: the batched intermediate is
        // gtilde_cols × (v_cols·B).
        let out = matmul(&gtildes[h - 1], &v)?;
        v = if h >= 2 {
            transforms[idx].apply_batched(&out, bsz)?
        } else {
            out
        };
    }
    // Batched assemble: gather each sample's rows out of V_1.
    let out_gather = assemble_output_gather(shape);
    let mut y = Tensor::zeros(vec![bsz, m]);
    for b in 0..bsz {
        for (i, &src) in out_gather.iter().enumerate() {
            y.data_mut()[b * m + i] = v.data()[src * bsz + b];
        }
    }
    Ok((
        y,
        TtLayerCache {
            stage_inputs,
            batch: bsz,
        },
    ))
}

/// [`tt_layer_forward`] with the bias and activation **fused into the
/// final stage's GEMM write loop** — the TIE PE's one-pass output scheme.
/// Every stage GEMM scatters straight into the next stage's layout through
/// the composed [`tie_core::indexmap`] map (no transform pass), and the
/// `h = 1` stage applies `bias` + `activation` at the finished accumulator
/// while assembling the output, so the separate bias/activation sweep over
/// `Y` no longer exists. One transpose converts the assembled element-major
/// codes to the layer's batch-major `[B, M]`.
///
/// Per output element the scalar arithmetic (and its order) is identical
/// to [`tt_layer_forward`] followed by a separate `+ bias` / ReLU pass, so
/// outputs and the backward cache are **bit-identical** to that
/// composition.
///
/// # Errors
///
/// Returns shape errors for mismatched inputs or a bias that is not `M`
/// elements.
pub fn tt_layer_forward_fused(
    cores: &[Tensor<f32>],
    shape: &TtShape,
    x: &Tensor<f32>,
    bias: Option<&[f32]>,
    activation: Activation,
) -> Result<(Tensor<f32>, TtLayerCache)> {
    let (n, m, d) = (shape.num_cols(), shape.num_rows(), shape.ndim());
    if x.ndim() != 2 || x.dims()[1] != n {
        return Err(TensorError::ShapeMismatch {
            left: x.dims().to_vec(),
            right: vec![0, n],
        });
    }
    if let Some(bias) = bias {
        if bias.len() != m {
            return Err(TensorError::ShapeMismatch {
                left: vec![bias.len()],
                right: vec![m],
            });
        }
    }
    let bsz = x.dims()[0];
    let gtildes: Vec<Tensor<f32>> = cores.iter().map(unfold_core).collect::<Result<_>>()?;
    let plan = InferencePlan::new(shape)?.with_activation(activation);
    // Batched prepare (Eqn. (8)): X' with batch inner-most.
    let scatter = prepare_input_scatter(shape);
    let n_d = shape.col_modes[d - 1];
    let mut v = Tensor::<f32>::zeros(vec![n_d, (n / n_d) * bsz]);
    for b in 0..bsz {
        let row = x.row(b);
        for (j, &dst) in scatter.iter().enumerate() {
            v.data_mut()[dst * bsz + b] = row[j];
        }
    }
    let mut stage_inputs = Vec::with_capacity(d);
    for (idx, h) in (1..=d).rev().enumerate() {
        let stage = &plan.stages()[idx];
        let (rows, k, cols) = (stage.gtilde_rows, stage.gtilde_cols, stage.v_cols);
        // Stages h ≥ 2 evaluate the composed Transform map in their write
        // loop: codes land directly in the next stage's V' layout. The
        // final stage assembles the element-major M × bsz output, with
        // bias + activation fused into the same store.
        let (map, out_dims, stage_bias) = match plan.stages().get(idx + 1) {
            Some(next) => (
                stage_dest_map(shape, h)?,
                vec![next.gtilde_cols, next.v_cols * bsz],
                None,
            ),
            None => (assemble_dest_map(shape)?, vec![m, bsz], bias),
        };
        let mut out = Tensor::<f32>::zeros(out_dims);
        gemm_into_mapped(
            gtildes[h - 1].data(),
            &v.data()[..k * cols * bsz],
            out.data_mut(),
            rows,
            k,
            cols,
            bsz,
            &map,
            stage_bias,
            plan.stage_activation(idx),
        )?;
        stage_inputs.push(std::mem::replace(&mut v, out));
    }
    // `v` now holds the assembled output; transpose it to [B, M].
    let assembled = v.data();
    let mut y = Tensor::zeros(vec![bsz, m]);
    for b in 0..bsz {
        for o in 0..m {
            y.data_mut()[b * m + o] = assembled[o * bsz + b];
        }
    }
    Ok((
        y,
        TtLayerCache {
            stage_inputs,
            batch: bsz,
        },
    ))
}

/// Functional TT-layer backward: given upstream gradients `grad_y [B, M]`
/// and the forward cache, returns `(grad_x [B, N], grad_cores)` where
/// `grad_cores[k]` matches core `k`'s 4-D layout.
///
/// Gradients flow through the *same* stage structure, transposed: the
/// inter-stage transforms are permutations, so their adjoints are their
/// inverses, and each stage contributes `dG̃_h = dV_h · V'ᵀ_{h+1}` and
/// `dV'_{h+1} = G̃ᵀ_h · dV_h`. With the batch inner-most in the cached
/// intermediates, the single product `dV_h · V'ᵀ_{h+1}` **sums over the
/// batch automatically** — one GEMM per stage yields the minibatch core
/// gradient, the backward mirror of the batched forward.
///
/// # Errors
///
/// Returns shape errors for mismatched inputs (including a cache from a
/// different batch size).
pub fn tt_layer_backward(
    cores: &[Tensor<f32>],
    shape: &TtShape,
    cache: &TtLayerCache,
    grad_y: &Tensor<f32>,
) -> Result<(Tensor<f32>, Vec<Tensor<f32>>)> {
    let (n, m, d) = (shape.num_cols(), shape.num_rows(), shape.ndim());
    if grad_y.ndim() != 2 || grad_y.dims()[1] != m || grad_y.dims()[0] != cache.batch {
        return Err(TensorError::ShapeMismatch {
            left: grad_y.dims().to_vec(),
            right: vec![cache.batch, m],
        });
    }
    let bsz = grad_y.dims()[0];
    let gtildes: Vec<Tensor<f32>> = cores.iter().map(unfold_core).collect::<Result<_>>()?;
    let transforms: Vec<TransformMap> = (2..=d)
        .rev()
        .map(|h| TransformMap::new(shape, h))
        .collect::<Result<_>>()?;
    // dV_1 from the output gather's adjoint, batched (batch inner-most).
    let out_gather = assemble_output_gather(shape);
    let m_1 = shape.row_modes[0];
    let mut dv = Tensor::<f32>::zeros(vec![m_1, (m / m_1) * bsz]);
    for b in 0..bsz {
        let row = grad_y.row(b);
        for (i, &src) in out_gather.iter().enumerate() {
            dv.data_mut()[src * bsz + b] = row[i];
        }
    }
    let mut grad_gtildes: Vec<Tensor<f32>> = Vec::with_capacity(d);
    let mut grad_x = Tensor::zeros(vec![bsz, n]);
    // Walk stages h = 1 .. d (reverse of execution order).
    for h in 1..=d {
        let exec_idx = d - h; // forward execution index of stage h
        let vin = &cache.stage_inputs[exec_idx];
        // dV_h · V'ᵀ_{h+1} over the batched columns: sums over the batch.
        grad_gtildes.push(matmul_nt(&dv, vin)?);
        let dvin = matmul_tn(&gtildes[h - 1], &dv)?; // G̃ᵀ_h · dV_h
        if h < d {
            // dV'_{h+1} → dV_{h+1}: invert the transform applied after
            // stage h+1 in the forward pass (execution index d-h-1).
            let t = &transforms[d - h - 1];
            debug_assert_eq!(t.h, h + 1);
            dv = t.apply_inverse_batched(&dvin, bsz)?;
        } else {
            // dX' → dx: adjoint of the batched prepare scatter.
            let scatter = prepare_input_scatter(shape);
            for b in 0..bsz {
                for (j, &src) in scatter.iter().enumerate() {
                    grad_x.data_mut()[b * n + j] = dvin.data()[src * bsz + b];
                }
            }
        }
    }
    let grad_cores = grad_gtildes
        .iter()
        .enumerate()
        .map(|(k, g)| {
            let [r0, mk, nk, r1] = shape.core_dims(k);
            fold_core(g, r0, mk, nk, r1)
        })
        .collect::<Result<Vec<_>>>()?;
    Ok((grad_x, grad_cores))
}

/// A trainable TT-compressed fully-connected layer (with bias), the
/// building block of TT-VGG-16 and the TT-RNN input-to-hidden matrices.
#[derive(Debug, Clone)]
pub struct TtDense {
    shape: TtShape,
    cores: Vec<Tensor<f32>>,
    bias: Tensor<f32>,
    grad_cores: Vec<Tensor<f32>>,
    grad_bias: Tensor<f32>,
    cache: Option<TtLayerCache>,
    /// Activation fused into the final stage's GEMM write loop.
    activation: Activation,
    /// Post-activation output cached when `activation` needs it for the
    /// backward mask (`ReLU`: `1[y > 0]`).
    out: Option<Tensor<f32>>,
}

impl TtDense {
    /// Randomly initialized layer with variance-scaled cores: element
    /// variance is chosen so the reconstructed dense matrix matches Glorot
    /// initialization (`var(W) ≈ 2/(N+M)`), accounting for the
    /// `∏ r_k` rank paths each dense element sums over.
    pub fn new<R: Rng>(rng: &mut R, shape: &TtShape) -> Self {
        let d = shape.ndim();
        let target_var = 2.0 / (shape.num_cols() + shape.num_rows()) as f64;
        let rank_paths: f64 = shape.ranks[1..d].iter().map(|&r| r as f64).product();
        let core_sigma = (target_var / rank_paths).powf(1.0 / (2.0 * d as f64));
        let cores: Vec<Tensor<f32>> = (0..d)
            .map(|k| {
                let [r0, m, n, r1] = shape.core_dims(k);
                tie_tensor::init::normal(rng, vec![r0, m, n, r1], core_sigma)
            })
            .collect();
        let grad_cores = cores
            .iter()
            .map(|c| Tensor::zeros(c.dims().to_vec()))
            .collect();
        TtDense {
            shape: shape.clone(),
            cores,
            bias: Tensor::zeros(vec![shape.num_rows()]),
            grad_cores,
            grad_bias: Tensor::zeros(vec![shape.num_rows()]),
            cache: None,
            activation: Activation::Identity,
            out: None,
        }
    }

    /// Builds the layer from an existing [`TtMatrix`] (e.g. decomposed from
    /// a trained dense layer) with zero bias.
    pub fn from_tt_matrix(tt: &TtMatrix<f32>) -> Self {
        let shape = tt.shape().clone();
        let cores: Vec<Tensor<f32>> = tt.cores().to_vec();
        let grad_cores = cores
            .iter()
            .map(|c| Tensor::zeros(c.dims().to_vec()))
            .collect();
        let m = shape.num_rows();
        TtDense {
            shape,
            cores,
            bias: Tensor::zeros(vec![m]),
            grad_cores,
            grad_bias: Tensor::zeros(vec![m]),
            cache: None,
            activation: Activation::Identity,
            out: None,
        }
    }

    /// Selects the activation fused into the final TT stage's GEMM write
    /// loop (builder style). The backward pass masks gradients through it
    /// (`ReLU`: `1[y > 0]`), so the layer trains exactly like
    /// TT-dense-then-activation — without the separate activation sweep in
    /// the forward pass.
    #[must_use]
    pub fn with_activation(mut self, activation: Activation) -> Self {
        self.activation = activation;
        self
    }

    /// The fused activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The layer's TT layout.
    pub fn shape(&self) -> &TtShape {
        &self.shape
    }

    /// Current cores as a [`TtMatrix`] (for export to the simulator).
    ///
    /// # Errors
    ///
    /// Cannot fail for a layer constructed through this type.
    pub fn to_tt_matrix(&self) -> Result<TtMatrix<f32>> {
        TtMatrix::new(self.cores.clone())
    }

    /// Stored parameter count (cores + bias).
    pub fn stored_params(&self) -> usize {
        self.shape.num_params() + self.bias.num_elements()
    }
}

impl Trainable for TtDense {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor<f32>, &mut Tensor<f32>)) {
        for (c, g) in self.cores.iter_mut().zip(&mut self.grad_cores) {
            f(c, g);
        }
        f(&mut self.bias, &mut self.grad_bias);
    }
}

impl Layer for TtDense {
    fn forward(&mut self, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        // Bias (and the optional activation) ride the final stage's GEMM
        // write loop — no second pass over the output.
        let (y, cache) = tt_layer_forward_fused(
            &self.cores,
            &self.shape,
            x,
            Some(self.bias.data()),
            self.activation,
        )?;
        self.cache = Some(cache);
        self.out = (self.activation == Activation::Relu).then(|| y.clone());
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor<f32>) -> Result<Tensor<f32>> {
        let cache = self.cache.as_ref().ok_or(TensorError::InvalidArgument {
            message: "backward called before forward".into(),
        })?;
        // Gradient through the fused activation first: ReLU's derivative
        // from its own output is `1[y > 0]`.
        let masked;
        let grad_z = if self.activation == Activation::Relu {
            let y = self.out.as_ref().ok_or(TensorError::InvalidArgument {
                message: "backward called before forward".into(),
            })?;
            let mut g = grad_out.clone();
            for (gv, &yv) in g.data_mut().iter_mut().zip(y.data()) {
                if yv <= 0.0 {
                    *gv = 0.0;
                }
            }
            masked = g;
            &masked
        } else {
            grad_out
        };
        let (grad_x, grad_cores) = tt_layer_backward(&self.cores, &self.shape, cache, grad_z)?;
        for (g, dg) in self.grad_cores.iter_mut().zip(&grad_cores) {
            g.axpy(1.0, dg)?;
        }
        let (bsz, m) = (grad_z.dims()[0], grad_z.dims()[1]);
        for b in 0..bsz {
            for o in 0..m {
                self.grad_bias.data_mut()[o] += grad_z.data()[b * m + o];
            }
        }
        Ok(grad_x)
    }

    fn describe(&self) -> String {
        format!(
            "tt-dense {}->{} (d={}, {} params vs {} dense)",
            self.shape.num_cols(),
            self.shape.num_rows(),
            self.shape.ndim(),
            self.stored_params(),
            self.shape.dense_params()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tie_tensor::init;

    fn small_shape() -> TtShape {
        TtShape::uniform_rank(vec![2, 3], vec![3, 2], 2).unwrap()
    }

    #[test]
    fn forward_matches_dense_reconstruction() {
        let mut rng = ChaCha8Rng::seed_from_u64(100);
        let mut layer = TtDense::new(&mut rng, &small_shape());
        let w = layer.to_tt_matrix().unwrap().to_dense().unwrap();
        let x: Tensor<f32> = init::uniform(&mut rng, vec![3, 6], 1.0);
        let y = layer.forward(&x).unwrap();
        let want = matmul_nt(&x, &w).unwrap();
        assert!(
            y.approx_eq(&want, 1e-5),
            "max diff {}",
            y.sub(&want).unwrap().max_abs()
        );
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(101);
        let mut layer = TtDense::new(&mut rng, &small_shape());
        let x: Tensor<f32> = init::uniform(&mut rng, vec![2, 6], 1.0);
        let y = layer.forward(&x).unwrap();
        let gx = layer.backward(&y).unwrap();
        let eps = 1e-2f32;
        for i in 0..x.num_elements() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp: f64 = layer
                .forward(&xp)
                .unwrap()
                .data()
                .iter()
                .map(|&v| 0.5 * (v as f64) * (v as f64))
                .sum();
            let lm: f64 = layer
                .forward(&xm)
                .unwrap()
                .data()
                .iter()
                .map(|&v| 0.5 * (v as f64) * (v as f64))
                .sum();
            let numeric = (lp - lm) / (2.0 * eps as f64);
            let analytic = gx.data()[i] as f64;
            assert!(
                (numeric - analytic).abs() <= 2e-2 * (1.0 + numeric.abs()),
                "input grad mismatch at {i}: numeric {numeric}, analytic {analytic}"
            );
        }
    }

    #[test]
    fn core_gradients_match_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(102);
        let shape = TtShape::uniform_rank(vec![2, 2], vec![2, 2], 2).unwrap();
        let mut layer = TtDense::new(&mut rng, &shape);
        let x: Tensor<f32> = init::uniform(&mut rng, vec![2, 4], 1.0);
        let y = layer.forward(&x).unwrap();
        layer.zero_grads();
        layer.backward(&y).unwrap();
        let analytic: Vec<Tensor<f32>> = layer.grad_cores.clone();
        let eps = 1e-2f32;
        #[allow(clippy::needless_range_loop)]
        // k indexes layer.cores (mutated) and analytic together
        for k in 0..layer.cores.len() {
            for i in 0..layer.cores[k].num_elements() {
                let orig = layer.cores[k].data()[i];
                layer.cores[k].data_mut()[i] = orig + eps;
                let lp: f64 = layer
                    .forward(&x)
                    .unwrap()
                    .data()
                    .iter()
                    .map(|&v| 0.5 * (v as f64) * (v as f64))
                    .sum();
                layer.cores[k].data_mut()[i] = orig - eps;
                let lm: f64 = layer
                    .forward(&x)
                    .unwrap()
                    .data()
                    .iter()
                    .map(|&v| 0.5 * (v as f64) * (v as f64))
                    .sum();
                layer.cores[k].data_mut()[i] = orig;
                let numeric = (lp - lm) / (2.0 * eps as f64);
                let got = analytic[k].data()[i] as f64;
                assert!(
                    (numeric - got).abs() <= 3e-2 * (1.0 + numeric.abs()),
                    "core {k} grad mismatch at {i}: numeric {numeric}, analytic {got}"
                );
            }
        }
    }

    #[test]
    fn gradient_descent_fits_a_linear_target() {
        // Train the TT layer to reproduce a random dense map; loss must
        // drop by >10x, demonstrating the backward pass is useful, not just
        // locally correct.
        let mut rng = ChaCha8Rng::seed_from_u64(103);
        let shape = TtShape::uniform_rank(vec![2, 2], vec![2, 2], 2).unwrap();
        let mut layer = TtDense::new(&mut rng, &shape);
        let target: Tensor<f32> = init::uniform(&mut rng, vec![4, 4], 0.5);
        let xs: Tensor<f32> = init::uniform(&mut rng, vec![16, 4], 1.0);
        let ys = matmul_nt(&xs, &target).unwrap();
        let mut first_loss = None;
        let mut last_loss = 0.0f64;
        for _ in 0..300 {
            let out = layer.forward(&xs).unwrap();
            let diff = out.sub(&ys).unwrap();
            let loss: f64 = diff
                .data()
                .iter()
                .map(|&v| (v as f64) * (v as f64))
                .sum::<f64>()
                / 16.0;
            first_loss.get_or_insert(loss);
            last_loss = loss;
            layer.zero_grads();
            layer.backward(&diff).unwrap();
            layer.visit_params(&mut |p, g| {
                p.axpy(-0.02, g).unwrap();
            });
        }
        let first = first_loss.unwrap();
        assert!(
            last_loss < first / 10.0,
            "loss did not drop: {first} -> {last_loss}"
        );
    }

    #[test]
    fn bias_is_applied_and_trained() {
        let mut rng = ChaCha8Rng::seed_from_u64(104);
        let mut layer = TtDense::new(&mut rng, &small_shape());
        layer.bias.data_mut()[0] = 1.5;
        let x = Tensor::<f32>::zeros(vec![1, 6]);
        let y = layer.forward(&x).unwrap();
        assert!((y.data()[0] - 1.5).abs() < 1e-6);
        let gout = Tensor::<f32>::filled(vec![1, 6], 2.0).unwrap();
        layer.zero_grads();
        layer.backward(&gout).unwrap();
        assert!((layer.grad_bias.data()[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn shape_validation() {
        let mut rng = ChaCha8Rng::seed_from_u64(105);
        let mut layer = TtDense::new(&mut rng, &small_shape());
        assert!(layer.forward(&Tensor::<f32>::zeros(vec![1, 5])).is_err());
        assert!(layer.backward(&Tensor::<f32>::zeros(vec![1, 6])).is_err());
    }

    #[test]
    fn fused_forward_is_bitwise_equal_to_unfused_plus_separate_pass() {
        let mut rng = ChaCha8Rng::seed_from_u64(107);
        let shape = small_shape();
        let layer = TtDense::new(&mut rng, &shape);
        let bias: Vec<f32> = (0..shape.num_rows())
            .map(|o| (o as f32 - 2.5) * 0.3)
            .collect();
        let x: Tensor<f32> = init::uniform(&mut rng, vec![4, 6], 1.0);
        for act in [Activation::Identity, Activation::Relu] {
            let (fused, fused_cache) =
                tt_layer_forward_fused(&layer.cores, &shape, &x, Some(&bias), act).unwrap();
            // Oracle: the unfused forward, then bias and activation as a
            // separate output pass.
            let (mut want, cache) = tt_layer_forward(&layer.cores, &shape, &x).unwrap();
            let m = shape.num_rows();
            for b in 0..4 {
                for (o, &bo) in bias.iter().enumerate() {
                    let mut v = want.data()[b * m + o] + bo;
                    if act == Activation::Relu {
                        v = if v > 0.0 { v } else { 0.0 };
                    }
                    want.data_mut()[b * m + o] = v;
                }
            }
            for (got, want) in fused.data().iter().zip(want.data()) {
                assert_eq!(got.to_bits(), want.to_bits(), "act {act:?}");
            }
            // The cache feeding backward must be identical too.
            assert_eq!(fused_cache.stage_inputs.len(), cache.stage_inputs.len());
            for (a, b) in fused_cache.stage_inputs.iter().zip(&cache.stage_inputs) {
                for (va, vb) in a.data().iter().zip(b.data()) {
                    assert_eq!(va.to_bits(), vb.to_bits());
                }
            }
        }
    }

    #[test]
    fn fused_relu_backward_matches_masked_identity_backward() {
        let mut rng = ChaCha8Rng::seed_from_u64(108);
        let shape = small_shape();
        let mut plain = TtDense::new(&mut rng, &shape);
        for (i, v) in plain.bias.data_mut().iter_mut().enumerate() {
            *v = (i as f32 - 2.0) * 0.4;
        }
        let mut fused = plain.clone().with_activation(Activation::Relu);
        assert_eq!(fused.activation(), Activation::Relu);

        let x: Tensor<f32> = init::uniform(&mut rng, vec![3, 6], 1.0);
        let y_plain = plain.forward(&x).unwrap();
        let y_fused = fused.forward(&x).unwrap();
        // ReLU must have actually clipped something for the mask to matter.
        assert!(y_plain.data().iter().any(|&v| v <= 0.0));
        for (yf, yp) in y_fused.data().iter().zip(y_plain.data()) {
            let want = if *yp > 0.0 { *yp } else { 0.0 };
            assert_eq!(yf.to_bits(), want.to_bits());
        }

        let gout: Tensor<f32> = init::uniform(&mut rng, vec![3, shape.num_rows()], 1.0);
        // Oracle: mask the upstream gradient by 1[y > 0] and push it
        // through the Identity layer.
        let mut masked = gout.clone();
        for (g, &y) in masked.data_mut().iter_mut().zip(y_plain.data()) {
            if y <= 0.0 {
                *g = 0.0;
            }
        }
        plain.zero_grads();
        fused.zero_grads();
        let gx_plain = plain.backward(&masked).unwrap();
        let gx_fused = fused.backward(&gout).unwrap();
        for (a, b) in gx_fused.data().iter().zip(gx_plain.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in fused.grad_bias.data().iter().zip(plain.grad_bias.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (gf, gp) in fused.grad_cores.iter().zip(&plain.grad_cores) {
            for (a, b) in gf.data().iter().zip(gp.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn stored_params_reflect_compression() {
        let mut rng = ChaCha8Rng::seed_from_u64(106);
        let shape = TtShape::uniform_rank(vec![4, 4, 4], vec![4, 4, 4], 2).unwrap();
        let mut layer = TtDense::new(&mut rng, &shape);
        assert!(layer.stored_params() < shape.dense_params());
        assert_eq!(layer.num_params(), shape.num_params() + shape.num_rows());
    }
}
