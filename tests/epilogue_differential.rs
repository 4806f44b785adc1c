//! Epilogue-fusion differential suite.
//!
//! The Tile/Stage/Global GEMM hierarchy promises that every fused kernel —
//! any (tile kernel × epilogue × destination map) instantiation, at any
//! pool size — is **bit-identical** to the naive reference GEMM followed
//! by a separate scatter pass and a separate epilogue pass. This suite
//! sweeps the full combination lattice on both datapaths:
//!
//! * float: {dispatched `FloatAuto`, forced-portable} × {Identity, Relu,
//!   Bias, BiasRelu} × {RowMajor, identity `DestMap`, permuted `DestMap`}
//!   × pool {1, 8};
//! * quantized: {dispatched `IntAuto`, forced-portable} × {Requant,
//!   RequantRelu} × {row-major, permuted `DestMap`} × pool {1, 8}, with
//!   saturation reports compared exactly;
//! * both lattices again at pool {1, 2} with batch widths up to the
//!   engines' 16 and on skinny Table-4-like stage shapes.
//!
//! The dispatched mapped cases go through the public stage-GEMM entries
//! (`gemm_into_mapped`, `qmatmul_raw_mapped`), which pick the epilogue
//! from their `(bias, act)` / `act` arguments; every other triple goes
//! straight through `tile::stream_gemm` with an explicit kernel,
//! destination and epilogue.

//!
//! Shapes include the degenerate corners (`m = 1`, `k = 1`, single
//! element) and tile-remainder edges straddling the 8/16/32 SIMD lane
//! widths, where ragged-tail handling historically hides bugs.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tie::quant::{
    alignment, qmatmul_naive, qmatmul_raw, qmatmul_raw_mapped, QFormat, QMatmulReport, QTensor,
    QuantPath,
};
use tie::tensor::linalg::{gemm_into_mapped, DestMap};
use tie::tensor::tile::{
    stream_gemm, Activation, Bias, BiasRelu, Dest, FloatAuto, FloatPath, Identity, IntAuto, Mapped,
    PortableTile, Relu, Requant, RequantRelu, RowMajor, TileKernel,
};
use tie::tensor::{init, parallel, Tensor};

/// The forced-portable tile kernel (8 lanes, one row), pinned past the
/// SIMD dispatch.
const PORTABLE: PortableTile<8, 1> = PortableTile;

/// Shapes covering the degenerate corners and the SIMD-lane remainder
/// edges (lane widths are 32/16/8 for f64 AVX-512/AVX2/portable tiles).
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),  // single element
    (1, 7, 5),  // m = 1
    (3, 1, 4),  // k = 1
    (5, 9, 31), // one short of a full 32-lane tile
    (4, 6, 33), // one past a full 32-lane tile
    (7, 11, 17),
];

/// Skinny Table-4-like stage shapes: 16 rows (four 4-row register tiles),
/// a row count that is not a multiple of 4, and column counts that leave
/// a ragged strip at every lane width.
const SKINNY_SHAPES: &[(usize, usize, usize)] = &[(16, 4, 65), (18, 80, 37), (16, 28, 33)];

/// Batch widths: the existing `{1, 3}`, one (5) that divides no tile
/// width, so a run of one column's samples straddles two tiles, and the
/// engines' serving batch (16).
const BATCHES: [usize; 4] = [1, 3, 5, 16];

/// A deterministic permuted `DestMap`: rows reversed, columns rotated.
/// Separable, bijective, and different from identity whenever the output
/// has more than one element.
fn permuted_map(rows: usize, cols: usize) -> DestMap {
    let row: Vec<usize> = (0..rows).map(|i| (rows - 1 - i) * cols).collect();
    let col: Vec<usize> = (0..cols).map(|q| (q + 1) % cols).collect();
    DestMap::new(row, col).unwrap()
}

/// Naive oracle: plain triple-loop GEMM (ascending `k`, no blocking —
/// the same accumulation order the streaming kernels promise), then a
/// separate scatter pass through `map`, then a separate epilogue pass
/// over the scattered output.
#[allow(clippy::too_many_arguments)]
fn oracle_f64(
    a: &[f64],
    b: &[f64],
    m: usize,
    k: usize,
    n_mat: usize,
    bsz: usize,
    map: &DestMap,
    bias: Option<&[f64]>,
    act: Activation,
) -> Vec<f64> {
    let n = n_mat * bsz;
    let mut c = vec![0.0f64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    // Separate scatter pass.
    let mut scattered = vec![0.0f64; m * n];
    for i in 0..m {
        for q in 0..n_mat {
            for cb in 0..bsz {
                scattered[map.offset(i, q) * bsz + cb] = c[i * n + q * bsz + cb];
            }
        }
    }
    // Separate epilogue pass, indexed by the logical destination element.
    for e in 0..m * n_mat {
        for cb in 0..bsz {
            let mut v = scattered[e * bsz + cb];
            if let Some(bias) = bias {
                v += bias[e];
            }
            if act == Activation::Relu {
                v = if v > 0.0 { v } else { 0.0 };
            }
            scattered[e * bsz + cb] = v;
        }
    }
    scattered
}

/// One float streaming GEMM on an explicit tile kernel and destination,
/// with the epilogue instantiation `(bias, act)` names.
#[allow(clippy::too_many_arguments)]
fn float_stream<K: TileKernel, D: Dest>(
    kern: K,
    dest: &D,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    (m, k, n_mat, bsz): (usize, usize, usize, usize),
    bias: Option<&[f64]>,
    act: Activation,
) {
    let path = FloatPath::<f64>::new();
    match (bias, act) {
        (None, Activation::Identity) => {
            stream_gemm(path, kern, a, b, c, m, k, n_mat, bsz, dest, &Identity);
        }
        (None, Activation::Relu) => {
            stream_gemm(path, kern, a, b, c, m, k, n_mat, bsz, dest, &Relu);
        }
        (Some(bias), Activation::Identity) => {
            let epi = Bias::new(bias);
            stream_gemm(path, kern, a, b, c, m, k, n_mat, bsz, dest, &epi);
        }
        (Some(bias), Activation::Relu) => {
            let epi = BiasRelu::new(bias);
            stream_gemm(path, kern, a, b, c, m, k, n_mat, bsz, dest, &epi);
        }
    }
}

/// Runs the float lattice for one shape at one pool size: both kernels
/// (dispatched, forced-portable) × all four epilogues × all three
/// destinations. The dispatched mapped cases use the public
/// `gemm_into_mapped`; the rest run `stream_gemm` directly.
fn float_lattice(m: usize, k: usize, n_mat: usize, bsz: usize, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let a: Tensor<f64> = init::uniform(&mut rng, vec![m, k], 1.0);
    let b: Tensor<f64> = init::uniform(&mut rng, vec![k, n_mat * bsz], 1.0);
    let bias: Vec<f64> = (0..m * n_mat).map(|e| (e as f64 - 3.0) * 0.25).collect();
    let identity = DestMap::identity(m, n_mat);
    let permuted = permuted_map(m, n_mat);
    let (a, b) = (a.data(), b.data());
    let dims = (m, k, n_mat, bsz);
    let row_major = RowMajor::new(m, n_mat);

    for act in [Activation::Identity, Activation::Relu] {
        for with_bias in [false, true] {
            let bias_opt = with_bias.then_some(&bias[..]);
            for (map, mapped) in [(&identity, false), (&identity, true), (&permuted, true)] {
                let want = oracle_f64(a, b, m, k, n_mat, bsz, map, bias_opt, act);
                let mut got = vec![0.0f64; m * n_mat * bsz];
                let mut port = vec![0.0f64; m * n_mat * bsz];
                if mapped {
                    gemm_into_mapped(a, b, &mut got, m, k, n_mat, bsz, map, bias_opt, act).unwrap();
                    let dest = Mapped::new(map);
                    float_stream(PORTABLE, &dest, a, b, &mut port, dims, bias_opt, act);
                } else {
                    float_stream(FloatAuto, &row_major, a, b, &mut got, dims, bias_opt, act);
                    float_stream(PORTABLE, &row_major, a, b, &mut port, dims, bias_opt, act);
                }
                assert_bits_eq(&got, &want, "dispatched", act, with_bias, mapped);
                assert_bits_eq(&port, &want, "portable", act, with_bias, mapped);
            }
        }
    }
}

fn assert_bits_eq(
    got: &[f64],
    want: &[f64],
    kernel: &str,
    act: Activation,
    with_bias: bool,
    mapped: bool,
) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{kernel} kernel, act {act:?}, bias {with_bias}, mapped {mapped}, element {i}: {g} != {w}"
        );
    }
}

#[test]
fn float_kernel_epilogue_dest_lattice_matches_oracle_at_pool_1_and_8() {
    for (threads, seed) in [(1usize, 0x51u64), (8, 0x52)] {
        let prev = parallel::set_num_threads(threads);
        for (si, &(m, k, n_mat)) in SHAPES.iter().enumerate() {
            for bsz in [1usize, 3] {
                float_lattice(m, k, n_mat, bsz, seed + si as u64 * 31);
            }
        }
        parallel::set_num_threads(prev);
    }
}

#[test]
fn float_lattice_at_engine_batches_and_skinny_shapes_matches_oracle_at_pool_1_and_2() {
    for (threads, seed) in [(1usize, 0x71u64), (2, 0x72)] {
        let prev = parallel::set_num_threads(threads);
        for (si, &(m, k, n_mat)) in SHAPES.iter().chain(SKINNY_SHAPES).enumerate() {
            for bsz in BATCHES {
                float_lattice(m, k, n_mat, bsz, seed + si as u64 * 31 + bsz as u64);
            }
        }
        parallel::set_num_threads(prev);
    }
}

/// Heavy-tailed random codes: ~1/4 pinned at ±`i16::MAX` so both
/// saturation paths fire regularly (same generator family as
/// `tests/quant_kernels.rs`).
fn heavy_codes(len: usize, seed: u64) -> Vec<i16> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..len)
        .map(|_| {
            let r = next();
            match r % 4 {
                0 => {
                    if r & 8 == 0 {
                        i16::MAX
                    } else {
                        i16::MIN
                    }
                }
                _ => (r >> 16) as i16,
            }
        })
        .collect()
}

/// One quantized streaming GEMM on an explicit tile kernel and
/// destination, with the requantization epilogue `act` names.
#[allow(clippy::too_many_arguments)]
fn quant_stream<K: TileKernel, D: Dest>(
    kern: K,
    dest: &D,
    a: &[i16],
    b: &[i16],
    codes: &mut [i16],
    (m, k, n_mat, bsz): (usize, usize, usize, usize),
    (prod_shift, out_shift): (u32, u32),
    act: Activation,
) -> QMatmulReport {
    let path = QuantPath::new(prod_shift, out_shift);
    let (acc_saturations, out_saturations) = match act {
        Activation::Identity => {
            stream_gemm(path, kern, a, b, codes, m, k, n_mat, bsz, dest, &Requant)
        }
        Activation::Relu => stream_gemm(
            path,
            kern,
            a,
            b,
            codes,
            m,
            k,
            n_mat,
            bsz,
            dest,
            &RequantRelu,
        ),
    };
    QMatmulReport {
        acc_saturations,
        out_saturations,
        outputs: (m * n_mat * bsz) as u64,
    }
}

/// Quantized lattice for one shape and batch width at the current pool
/// size: dispatched and forced-portable kernels × {Requant, RequantRelu}
/// × {row-major, permuted map} against naive-then-scatter-then-relu,
/// codes and reports exact. The naive oracle sees the batch as `bsz`
/// extra columns per logical column, the layout the streaming stage
/// reads.
fn quant_lattice(m: usize, k: usize, n_mat: usize, bsz: usize, seed: u64) {
    let n = n_mat * bsz;
    let a = QTensor::from_codes(
        vec![m, k],
        heavy_codes(m * k, seed),
        QFormat::new(12).unwrap(),
    )
    .unwrap();
    let b = QTensor::from_codes(
        vec![k, n],
        heavy_codes(k * n, seed ^ 0xabcd),
        QFormat::new(8).unwrap(),
    )
    .unwrap();
    let out = QFormat::new(14).unwrap();
    let shifts = alignment(a.format(), b.format(), out);
    let (prod_shift, out_shift) = shifts;

    // Oracle: the retained naive kernel, then separate scatter and relu
    // passes on its codes. Its report must carry over unchanged — the
    // fused relu counts saturation on the pre-epilogue code.
    let (c_naive, r_naive) = qmatmul_naive(&a, &b, out).unwrap();
    let map = permuted_map(m, n_mat);
    let scatter = |codes: &[i16]| -> Vec<i16> {
        let mut s = vec![0i16; m * n];
        for i in 0..m {
            for q in 0..n_mat {
                for cb in 0..bsz {
                    s[map.offset(i, q) * bsz + cb] = codes[i * n + q * bsz + cb];
                }
            }
        }
        s
    };
    let (a, b) = (a.codes(), b.codes());
    let dims = (m, k, n_mat, bsz);

    // Row-major plain through the public raw entry.
    let mut got = vec![0i16; m * n];
    let r = qmatmul_raw(a, b, m, k, n, prod_shift, out_shift, &mut got);
    assert_eq!(
        &got[..],
        c_naive.codes(),
        "raw vs naive codes ({m}x{k}x{n_mat}, bsz {bsz})"
    );
    assert_eq!(r, r_naive, "raw vs naive report");

    let row_major = RowMajor::new(m, n_mat);
    let mapped = Mapped::new(&map);
    for act in [Activation::Identity, Activation::Relu] {
        let epilogue = |codes: Vec<i16>| -> Vec<i16> {
            match act {
                Activation::Identity => codes,
                Activation::Relu => codes.into_iter().map(|v| v.max(0)).collect(),
            }
        };
        let want_rm = epilogue(c_naive.codes().to_vec());
        let want_map = epilogue(scatter(c_naive.codes()));

        // Row-major, dispatched and forced-portable.
        let r = quant_stream(IntAuto, &row_major, a, b, &mut got, dims, shifts, act);
        assert_eq!(got, want_rm, "row-major {act:?} vs naive codes");
        assert_eq!(r, r_naive, "row-major {act:?} must not perturb the report");
        let r = quant_stream(PORTABLE, &row_major, a, b, &mut got, dims, shifts, act);
        assert_eq!(got, want_rm, "portable row-major {act:?} codes");
        assert_eq!(r, r_naive, "portable row-major {act:?} report");

        // Mapped (permuted): the public entry, and forced-portable.
        let r = qmatmul_raw_mapped(
            a, b, m, k, n_mat, bsz, prod_shift, out_shift, &mut got, &map, act,
        );
        assert_eq!(got, want_map, "mapped {act:?} vs naive-then-scatter codes");
        assert_eq!(r, r_naive, "mapped {act:?} report");
        let r = quant_stream(PORTABLE, &mapped, a, b, &mut got, dims, shifts, act);
        assert_eq!(got, want_map, "portable mapped {act:?} codes");
        assert_eq!(r, r_naive, "portable mapped {act:?} report");
    }
}

#[test]
fn quant_kernel_epilogue_dest_lattice_matches_oracle_at_pool_1_and_8() {
    for (threads, seed) in [(1usize, 0x61u64), (8, 0x62)] {
        let prev = parallel::set_num_threads(threads);
        for (si, &(m, k, n_mat)) in SHAPES.iter().enumerate() {
            quant_lattice(m, k, n_mat, 1, seed + si as u64 * 37);
        }
        parallel::set_num_threads(prev);
    }
    // Sanity: the heavy-tailed generator really exercises saturation on
    // the larger shapes (otherwise the report comparison proves little).
    let a = QTensor::from_codes(
        vec![6, 64],
        heavy_codes(6 * 64, 9),
        QFormat::new(12).unwrap(),
    )
    .unwrap();
    let b = QTensor::from_codes(
        vec![64, 9],
        heavy_codes(64 * 9, 10),
        QFormat::new(8).unwrap(),
    )
    .unwrap();
    let (_, report) = qmatmul_naive(&a, &b, QFormat::new(14).unwrap()).unwrap();
    assert!(
        report.acc_saturations > 0 && report.out_saturations > 0,
        "generator must saturate both paths: {report:?}"
    );
}

#[test]
fn quant_lattice_at_engine_batches_and_skinny_shapes_matches_oracle_at_pool_1_and_2() {
    for (threads, seed) in [(1usize, 0x81u64), (2, 0x82)] {
        let prev = parallel::set_num_threads(threads);
        for (si, &(m, k, n_mat)) in SHAPES.iter().chain(SKINNY_SHAPES).enumerate() {
            for bsz in BATCHES {
                quant_lattice(m, k, n_mat, bsz, seed + si as u64 * 37 + bsz as u64);
            }
        }
        parallel::set_num_threads(prev);
    }
}
