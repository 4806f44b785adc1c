use tie_tensor::{Result, TensorError};

/// The TT-matrix layout tuple `(d, m, n, r)` of a TT-compressed layer.
///
/// This is exactly the per-workload configuration row of the paper's
/// Table 4: a weight matrix `W ∈ R^{M×N}` with `M = ∏ m_k`, `N = ∏ n_k`
/// stored as `d` cores `G_k ∈ R^{r_{k-1} × m_k × n_k × r_k}`. `ranks` has
/// `d + 1` entries with `r_0 = r_d = 1` (the paper's boundary condition).
///
/// `TtShape` is pure metadata: the compact-scheme planner (`tie-core`), the
/// cycle-accurate simulator (`tie-sim`) and the analytical counters all
/// consume it without touching weight values.
///
/// # Example
///
/// ```
/// use tie_tt::TtShape;
///
/// # fn main() -> Result<(), tie_tensor::TensorError> {
/// // VGG-16 FC7 as configured in the paper (Table 4).
/// let fc7 = TtShape::uniform_rank(vec![4; 6], vec![4; 6], 4)?;
/// assert_eq!(fc7.num_rows(), 4096);
/// assert_eq!(fc7.num_cols(), 4096);
/// // cores: 1·4·4·4 + four of 4·4·4·4 + 4·4·4·1
/// assert_eq!(fc7.num_params(), 64 + 4 * 256 + 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TtShape {
    /// Output-side mode sizes `m_1 … m_d` (`M = ∏ m_k`).
    pub row_modes: Vec<usize>,
    /// Input-side mode sizes `n_1 … n_d` (`N = ∏ n_k`).
    pub col_modes: Vec<usize>,
    /// TT ranks `r_0 … r_d`, with `r_0 = r_d = 1`.
    pub ranks: Vec<usize>,
}

impl TtShape {
    /// Creates and validates a TT-matrix shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the mode lists are empty
    /// or of different length, if `ranks.len() != d + 1`, if any entry is
    /// zero, if the boundary ranks are not 1, or if `M = ∏ m_k`,
    /// `N = ∏ n_k`, `M·N`, a core's size `r_{k-1} m_k n_k r_k` or the
    /// parameter total overflows `usize` — so every size accessor below
    /// is exact.
    pub fn new(row_modes: Vec<usize>, col_modes: Vec<usize>, ranks: Vec<usize>) -> Result<Self> {
        let d = row_modes.len();
        if d == 0 {
            return Err(TensorError::InvalidArgument {
                message: "TT shape needs at least one mode".into(),
            });
        }
        if col_modes.len() != d {
            return Err(TensorError::InvalidArgument {
                message: format!("row/col mode count mismatch: {d} vs {}", col_modes.len()),
            });
        }
        if ranks.len() != d + 1 {
            return Err(TensorError::InvalidArgument {
                message: format!("need {} ranks, got {}", d + 1, ranks.len()),
            });
        }
        if row_modes
            .iter()
            .chain(&col_modes)
            .chain(&ranks)
            .any(|&v| v == 0)
        {
            return Err(TensorError::InvalidArgument {
                message: "modes and ranks must be nonzero".into(),
            });
        }
        if ranks[0] != 1 || ranks[d] != 1 {
            return Err(TensorError::InvalidArgument {
                message: format!(
                    "boundary ranks must be 1, got r0={} rd={}",
                    ranks[0], ranks[d]
                ),
            });
        }
        let product = |xs: &[usize]| xs.iter().try_fold(1usize, |p, &x| p.checked_mul(x));
        let overflow = |what: String| TensorError::InvalidArgument {
            message: format!("{what} overflows usize"),
        };
        let rows = product(&row_modes)
            .ok_or_else(|| overflow(format!("row mode product {row_modes:?}")))?;
        let cols = product(&col_modes)
            .ok_or_else(|| overflow(format!("column mode product {col_modes:?}")))?;
        rows.checked_mul(cols)
            .ok_or_else(|| overflow(format!("dense size {rows} x {cols}")))?;
        (0..d)
            .try_fold(0usize, |sum, k| {
                product(&[ranks[k], row_modes[k], col_modes[k], ranks[k + 1]])
                    .and_then(|core| sum.checked_add(core))
            })
            .ok_or_else(|| overflow(format!("core size total of ranks {ranks:?}")))?;
        Ok(TtShape {
            row_modes,
            col_modes,
            ranks,
        })
    }

    /// Shape with all interior ranks equal to `rank` (the common
    /// configuration in the paper: `r_1 = … = r_{d-1} = r`).
    ///
    /// # Errors
    ///
    /// Same as [`TtShape::new`].
    pub fn uniform_rank(row_modes: Vec<usize>, col_modes: Vec<usize>, rank: usize) -> Result<Self> {
        let d = row_modes.len();
        let mut ranks = vec![rank; d + 1];
        if let Some(first) = ranks.first_mut() {
            *first = 1;
        }
        if let Some(last) = ranks.last_mut() {
            *last = 1;
        }
        TtShape::new(row_modes, col_modes, ranks)
    }

    /// Returns a copy with every interior rank replaced by `rank`
    /// (used by the Fig. 13 rank sweeps).
    ///
    /// # Errors
    ///
    /// Same as [`TtShape::new`].
    pub fn with_uniform_rank(&self, rank: usize) -> Result<Self> {
        TtShape::uniform_rank(self.row_modes.clone(), self.col_modes.clone(), rank)
    }

    /// Number of TT dimensions `d`.
    pub fn ndim(&self) -> usize {
        self.row_modes.len()
    }

    /// `M = ∏ m_k`, the dense row count.
    pub fn num_rows(&self) -> usize {
        self.row_modes.iter().product()
    }

    /// `N = ∏ n_k`, the dense column count.
    pub fn num_cols(&self) -> usize {
        self.col_modes.iter().product()
    }

    /// Parameters stored in TT format: `Σ_k r_{k-1} m_k n_k r_k`.
    pub fn num_params(&self) -> usize {
        (0..self.ndim())
            .map(|k| self.ranks[k] * self.row_modes[k] * self.col_modes[k] * self.ranks[k + 1])
            .sum()
    }

    /// Parameters of the uncompressed dense matrix: `M · N`.
    pub fn dense_params(&self) -> usize {
        self.num_rows() * self.num_cols()
    }

    /// Compression ratio `M·N / Σ_k r_{k-1} m_k n_k r_k` (the paper's CR).
    pub fn compression_ratio(&self) -> f64 {
        self.dense_params() as f64 / self.num_params() as f64
    }

    /// Expected dense shape of core `k` as stored:
    /// `[r_{k-1}, m_k, n_k, r_k]`.
    pub fn core_dims(&self, k: usize) -> [usize; 4] {
        [
            self.ranks[k],
            self.row_modes[k],
            self.col_modes[k],
            self.ranks[k + 1],
        ]
    }

    /// Shape of the unfolded core `G̃_k ((m_k r_{k-1}) × (n_k r_k))` that the
    /// compact inference scheme multiplies by (paper Fig. 6 / Eqn. (9)).
    pub fn unfolded_core_dims(&self, k: usize) -> (usize, usize) {
        (
            self.row_modes[k] * self.ranks[k],
            self.col_modes[k] * self.ranks[k + 1],
        )
    }

    /// Maximum interior rank (drives buffer sizing in the simulator).
    pub fn max_rank(&self) -> usize {
        self.ranks.iter().copied().max().unwrap_or(1)
    }
}

impl std::fmt::Display for TtShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TT(d={}, m={:?}, n={:?}, r={:?})",
            self.ndim(),
            self.row_modes,
            self.col_modes,
            self.ranks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_lengths_and_boundaries() {
        assert!(TtShape::new(vec![], vec![], vec![1]).is_err());
        assert!(TtShape::new(vec![2], vec![2, 2], vec![1, 1]).is_err());
        assert!(TtShape::new(vec![2, 2], vec![2, 2], vec![1, 4]).is_err());
        assert!(TtShape::new(vec![2, 2], vec![2, 2], vec![2, 4, 1]).is_err());
        assert!(TtShape::new(vec![2, 2], vec![2, 2], vec![1, 0, 1]).is_err());
        assert!(TtShape::new(vec![2, 2], vec![2, 2], vec![1, 4, 1]).is_ok());
        let huge = 1usize << (usize::BITS / 2);
        assert!(TtShape::new(vec![huge, huge], vec![2, 2], vec![1, 4, 1]).is_err());
        assert!(TtShape::new(vec![2, 2], vec![huge, huge], vec![1, 4, 1]).is_err());
        // M = 2^63 fits, but M·N = 2^65 does not.
        assert!(TtShape::new(vec![huge, huge / 2], vec![2, 2], vec![1, 4, 1]).is_err());
        assert!(TtShape::new(vec![huge, huge / 2], vec![1, 1], vec![1, 4, 1]).is_ok());
        // Per-core size r0·m1·n1·r1 = 2·2·2^63 overflows though M·N fits.
        assert!(TtShape::new(vec![2, 2], vec![2, 2], vec![1, 1 << 63, 1]).is_err());
        // Rank r: each core is 4r = 2^62, the total 2^63 fits. Rank 2r:
        // each core 2^63 still fits, but the total 2^64 does not.
        let r = 1usize << 60;
        assert!(TtShape::new(vec![2, 2], vec![2, 2], vec![1, r, 1]).is_ok());
        assert!(TtShape::new(vec![2, 2], vec![2, 2], vec![1, 2 * r, 1]).is_err());
    }

    #[test]
    fn uniform_rank_sets_interior_only() {
        let s = TtShape::uniform_rank(vec![4, 4, 4], vec![4, 4, 4], 7).unwrap();
        assert_eq!(s.ranks, vec![1, 7, 7, 1]);
        // d = 1 degenerates to ranks [1, 1]
        let s1 = TtShape::uniform_rank(vec![5], vec![3], 9).unwrap();
        assert_eq!(s1.ranks, vec![1, 1]);
    }

    #[test]
    fn vgg_fc6_table4_compression_ratio() {
        // Table 4 row 1: (4096, 25088), d=6, n=[2,7,8,8,7,4], m=[4;6], r=4
        // CR reported as 50972x.
        let s = TtShape::uniform_rank(vec![4; 6], vec![2, 7, 8, 8, 7, 4], 4).unwrap();
        assert_eq!(s.num_rows(), 4096);
        assert_eq!(s.num_cols(), 25088);
        let cr = s.compression_ratio();
        assert!(
            (cr - 50972.0).abs() / 50972.0 < 0.02,
            "FC6 CR should be ~50972x, got {cr:.0}"
        );
    }

    #[test]
    fn core_dims_and_unfolded_dims() {
        let s = TtShape::new(vec![3, 4], vec![5, 6], vec![1, 7, 1]).unwrap();
        assert_eq!(s.core_dims(0), [1, 3, 5, 7]);
        assert_eq!(s.core_dims(1), [7, 4, 6, 1]);
        assert_eq!(s.unfolded_core_dims(0), (3, 35));
        assert_eq!(s.unfolded_core_dims(1), (28, 6));
        assert_eq!(s.max_rank(), 7);
    }

    #[test]
    fn param_counting_matches_hand_computation() {
        // Fig. 1 of the paper: 3x4x5 tensor (as a TT-matrix row of 1s to
        // reuse the type): use a plain shape instead.
        let s = TtShape::new(vec![1, 1, 1], vec![3, 4, 5], vec![1, 2, 2, 1]).unwrap();
        // params: 1*1*3*2 + 2*1*4*2 + 2*1*5*1 = 6 + 16 + 10 = 32
        assert_eq!(s.num_params(), 32);
        assert_eq!(s.dense_params(), 60);
    }

    #[test]
    fn display_mentions_all_fields() {
        let s = TtShape::uniform_rank(vec![2, 2], vec![3, 3], 2).unwrap();
        let txt = s.to_string();
        assert!(txt.contains("d=2") && txt.contains('m') && txt.contains('r'));
    }
}
