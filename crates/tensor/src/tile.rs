//! Composable Tile/Stage/Global GEMM hierarchy with fused epilogues.
//!
//! TIE's PE array performs each stage GEMM and the following
//! requantization/activation in **one pass** over the output. This module
//! restructures the repo's formerly hand-specialized GEMM bodies (blocked
//! float, mapped float, quantized, Gram) as instantiations of one skeleton,
//! in the style of kubecl's `StageMatmul` (see DESIGN.md §16):
//!
//! * **Tile** — [`TileKernel`]: picks a register-tile instantiation
//!   (`TJ` output columns × `R` rows) and the SIMD ISA it compiles for.
//!   [`PortableTile`] is the pinned baseline; [`FloatAuto`] / [`IntAuto`]
//!   dispatch at runtime to AVX-512 / AVX(2) instantiations of the *same*
//!   generic body, so every tier computes identical bits.
//! * **Stage** — [`StageMatmul`]: one row-span's worth of work. The
//!   streaming stage ([`stream_gemm`]) accumulates full-`k` register tiles
//!   through a [`Datapath`] (pluggable accumulator: float, or the
//!   saturating fixed-point path in `tie-quant`) and retires each output
//!   through an [`Epilogue`] at the wide accumulator, *before* narrowing —
//!   bias add and ReLU cost zero extra output passes. The k-blocked stage
//!   ([`kblocked_gemm`]) keeps the cache-blocked float body for large
//!   pre-zeroed outputs (no epilogue there: its partial sums round-trip
//!   through `C`, and an epilogue must only ever see *final* sums).
//! * **Global** — [`global_matmul`]: partitions output rows over the
//!   persistent pool per the stage's [`Partition`] choice and merges
//!   per-span statistics through the stage's sink.
//!
//! # Bit-consistency contract
//!
//! Every output element accumulates its products in ascending `k` with
//! plain multiply-then-add (never FMA-contracted); tiles, stages and the
//! row partition only reorder *independent* outputs. Epilogues apply once,
//! to the finished accumulator of each output. Hence every (kernel ×
//! epilogue × destination × thread count) combination is bit-identical to
//! naive-GEMM-then-epilogue — property-tested in `tests/epilogue_differential.rs`.

use crate::{parallel, pool, Scalar};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Rows of `A`/`C` processed per cache block by the k-blocked stage
/// (reuses one `B` panel across a slab of output rows).
pub(crate) const BLOCK_M: usize = 128;
/// Depth (inner dimension) per cache block. Blocks are walked in ascending
/// order so each output element accumulates its products in the same `k`
/// order as the naive kernels.
pub(crate) const BLOCK_K: usize = 128;
/// Columns of `B`/`C` per cache block; `BLOCK_K × BLOCK_N` elements of `B`
/// (256 KiB at `f64`) stay L2-resident while a row slab streams past.
pub(crate) const BLOCK_N: usize = 256;
/// Float register-tile width on the portable (128-bit SIMD) path: 8 `f64`
/// = 4 `xmm` accumulators per row.
pub(crate) const TILE_J: usize = 8;
/// Float register-tile width on the runtime-detected AVX path: 16 `f64` =
/// 4 `ymm` accumulators per row. Width only changes how many independent
/// output columns are grouped per pass — accumulation order per output is
/// unchanged, so all tiers are bit-identical.
pub(crate) const TILE_J_WIDE: usize = 16;
/// Float register-tile width on the runtime-detected AVX-512 path: 32
/// `f64` = 4 `zmm` accumulators per row.
pub(crate) const TILE_J_512: usize = 32;
/// Integer (i32-lane) tile width on the portable path: 8 lanes = 2 `xmm`.
pub(crate) const QTILE_J: usize = 8;
/// Integer tile width on the runtime-detected AVX2 path: 16 i32 lanes.
pub(crate) const QTILE_J_WIDE: usize = 16;
/// Integer tile width on the runtime-detected AVX-512 path: 32 i32 lanes.
pub(crate) const QTILE_J_512: usize = 32;

/// Activation applied by a fused epilogue (and recorded in inference
/// plans). `Identity` keeps the raw GEMM output; `Relu` clamps negatives
/// to zero at the accumulator, exactly like `tie-nn`'s `Relu` layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// No activation — the epilogue passes accumulators through.
    #[default]
    Identity,
    /// Rectified linear unit: `max(x, 0)`, fused into the GEMM store.
    Relu,
}

// ---------------------------------------------------------------------------
// Epilogue: per-output transform applied at the wide accumulator.
// ---------------------------------------------------------------------------

/// Per-output transform fused into the GEMM store loop.
///
/// `apply` receives the finished accumulator value `v` (at the datapath's
/// *wide* epilogue type — `f32`/`f64` for the float path, the clipped
/// `i32` for the quantized path, before narrowing to `i16`) and the
/// **logical destination element** `e = row_base(i) + col_off(q)` — for
/// the engines' final assemble maps this is exactly the output-neuron
/// index, which is what per-element bias needs.
///
/// The contract: `apply` must be pure (no interior mutability observable
/// across calls), because outputs retire in whatever order the row
/// partition and register tiling produce.
pub trait Epilogue<V: Copy>: Sync {
    /// Transforms one finished accumulator value.
    fn apply(&self, v: V, e: usize) -> V;
}

/// Pass-through epilogue: the plain GEMM.
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl<V: Copy> Epilogue<V> for Identity {
    #[inline(always)]
    fn apply(&self, v: V, _e: usize) -> V {
        v
    }
}

/// Fused ReLU for the float datapath: `if v > 0 { v } else { 0 }` — the
/// exact comparison `tie-nn`'s `Relu` layer uses, so a fused forward is
/// bit-identical to GEMM-then-activation (and `-0.0` maps to `+0.0`, like
/// the layer).
#[derive(Debug, Clone, Copy, Default)]
pub struct Relu;

impl<T: Scalar> Epilogue<T> for Relu {
    #[inline(always)]
    fn apply(&self, v: T, _e: usize) -> T {
        if v > T::ZERO {
            v
        } else {
            T::ZERO
        }
    }
}

/// Fused per-element bias add: `v + bias[e]`.
#[derive(Debug, Clone, Copy)]
pub struct Bias<'a, T: Scalar> {
    bias: &'a [T],
}

impl<'a, T: Scalar> Bias<'a, T> {
    /// Wraps a bias table indexed by logical destination element.
    #[must_use]
    pub fn new(bias: &'a [T]) -> Self {
        Bias { bias }
    }
}

impl<T: Scalar> Epilogue<T> for Bias<'_, T> {
    #[inline(always)]
    fn apply(&self, v: T, e: usize) -> T {
        v + self.bias[e]
    }
}

/// Fused bias-then-ReLU: `max(v + bias[e], 0)` with the same comparison
/// as [`Relu`].
#[derive(Debug, Clone, Copy)]
pub struct BiasRelu<'a, T: Scalar> {
    bias: &'a [T],
}

impl<'a, T: Scalar> BiasRelu<'a, T> {
    /// Wraps a bias table indexed by logical destination element.
    #[must_use]
    pub fn new(bias: &'a [T]) -> Self {
        BiasRelu { bias }
    }
}

impl<T: Scalar> Epilogue<T> for BiasRelu<'_, T> {
    #[inline(always)]
    fn apply(&self, v: T, e: usize) -> T {
        let s = v + self.bias[e];
        if s > T::ZERO {
            s
        } else {
            T::ZERO
        }
    }
}

/// Quantized pass-through epilogue: requantization only (the datapath has
/// already rounded, shifted and clipped to the `i16` code range by the
/// time the epilogue sees the value).
#[derive(Debug, Clone, Copy, Default)]
pub struct Requant;

impl Epilogue<i32> for Requant {
    #[inline(always)]
    fn apply(&self, v: i32, _e: usize) -> i32 {
        v
    }
}

/// Quantized requantize-then-ReLU: `max(v, 0)` on the **clipped** `i32`
/// code, before narrowing to `i16`. Because the datapath's output clip is
/// monotone and the Q-format is zero-point-free, `max(0)` on the clipped
/// `i32` equals `max(0)` applied to the narrowed `i16` code — so the fused
/// path is bit-identical to requant-then-relu run separately, and the
/// saturation counts (taken *before* the epilogue) are untouched.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequantRelu;

impl Epilogue<i32> for RequantRelu {
    #[inline(always)]
    fn apply(&self, v: i32, _e: usize) -> i32 {
        v.max(0)
    }
}

// ---------------------------------------------------------------------------
// Dest: separable destination of the streaming store.
// ---------------------------------------------------------------------------

/// Separable destination of the streaming stage's scatter store.
///
/// Logical output element `(i, q)` of an `rows() × cols()` product lands
/// at element offset `row_base(i) + col_off(q)`; with a batch width
/// `bsz`, GEMM column `q·bsz + cb` lands at
/// `(row_base(i) + col_off(q))·bsz + cb` — the batch-innermost layout the
/// compact engine uses.
///
/// # Safety
///
/// Implementors must guarantee `(i, q) ↦ row_base(i) + col_off(q)` is a
/// **bijection onto `[0, rows()·cols())`** for `i < rows()`,
/// `q < cols()`. The streaming kernel scatters through raw pointers on
/// that basis: in-bounds because the image is `[0, rows()·cols())`, and
/// race-free because distinct `(i, q)` map to distinct offsets while the
/// global driver partitions by row. Both provided impls hold the
/// invariant by construction ([`RowMajor`] trivially; [`Mapped`] because
/// [`DestMap::new`](crate::linalg::DestMap::new) validates bijectivity).
#[allow(unsafe_code)]
pub unsafe trait Dest: Sync {
    /// Number of logical output rows.
    fn rows(&self) -> usize;
    /// Number of logical output columns.
    fn cols(&self) -> usize;
    /// Destination row offset (in elements) of logical row `i`.
    fn row_base(&self, i: usize) -> usize;
    /// Destination column offset (in elements) of logical column `q`.
    fn col_off(&self, q: usize) -> usize;
}

/// Plain row-major destination: `(i, q) ↦ i·cols + q`. A streaming GEMM
/// with this destination is bitwise the unmapped kernel, with no per-call
/// offset-table allocation (the zero-alloc steady state depends on that).
#[derive(Debug, Clone, Copy)]
pub struct RowMajor {
    rows: usize,
    cols: usize,
}

impl RowMajor {
    /// Row-major destination for an `rows × cols` logical output.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        RowMajor { rows, cols }
    }
}

// SAFETY: `(i, q) ↦ i·cols + q` is the canonical row-major bijection onto
// `[0, rows·cols)`.
#[allow(unsafe_code)]
unsafe impl Dest for RowMajor {
    #[inline(always)]
    fn rows(&self) -> usize {
        self.rows
    }
    #[inline(always)]
    fn cols(&self) -> usize {
        self.cols
    }
    #[inline(always)]
    fn row_base(&self, i: usize) -> usize {
        i * self.cols
    }
    #[inline(always)]
    fn col_off(&self, q: usize) -> usize {
        q
    }
}

/// Destination redirected through a validated
/// [`DestMap`](crate::linalg::DestMap) — the fused inter-stage Transform.
#[derive(Debug, Clone, Copy)]
pub struct Mapped<'a> {
    map: &'a crate::linalg::DestMap,
}

impl<'a> Mapped<'a> {
    /// Wraps a validated destination map.
    #[must_use]
    pub fn new(map: &'a crate::linalg::DestMap) -> Self {
        Mapped { map }
    }
}

// SAFETY: `DestMap::new` proves `(i, q) ↦ row[i] + col[q]` is a bijection
// onto `[0, rows·cols)` at construction time.
#[allow(unsafe_code)]
unsafe impl Dest for Mapped<'_> {
    #[inline(always)]
    fn rows(&self) -> usize {
        self.map.rows()
    }
    #[inline(always)]
    fn cols(&self) -> usize {
        self.map.cols()
    }
    #[inline(always)]
    fn row_base(&self, i: usize) -> usize {
        self.map.row_offsets()[i]
    }
    #[inline(always)]
    fn col_off(&self, q: usize) -> usize {
        self.map.col_offsets()[q]
    }
}

// ---------------------------------------------------------------------------
// Datapath: the pluggable accumulator.
// ---------------------------------------------------------------------------

/// The pluggable accumulator of the streaming stage: element types, the
/// per-lane multiply-accumulate step, and how a finished lane retires
/// through the epilogue into the output type (plus saturation-statistics
/// plumbing for the fixed-point path).
///
/// A datapath is the *arithmetic* of a GEMM; the [`TileKernel`] chooses
/// vector width, the [`Dest`] chooses where outputs land, the
/// [`Epilogue`] transforms them. `FloatPath` lives here; the saturating
/// fixed-point `QuantPath` lives in `tie-quant` — adding a dtype is a new
/// `Datapath` impl, not a fourth kernel body.
pub trait Datapath: Copy + Sync {
    /// Input element type of `A` and `B`.
    type In: Copy + Sync;
    /// Output element type written to `C`.
    type Out: Copy;
    /// Per-lane accumulator state.
    type Lane: Copy;
    /// Per-lane sticky saturation flag (`()` for exact paths). Kept in a
    /// separate array from the lanes so the hot loop stays
    /// structure-of-arrays and vectorizes.
    type Sat: Copy;
    /// Value type the epilogue sees (the wide pre-narrowing type).
    type EpiV: Copy;
    /// Per-span statistics accumulated while retiring outputs.
    type Stats: Copy + Default;
    /// Shared sink the global driver merges per-span statistics into.
    type Sink: Sync + Default;

    /// A fresh zero lane.
    fn lane_zero(self) -> Self::Lane;
    /// A fresh clear saturation flag.
    fn sat_zero(self) -> Self::Sat;
    /// One multiply-accumulate step: `lane ⊕= a · b` (with whatever
    /// rounding/clamping the datapath defines), updating `sat`.
    fn mac(self, lane: &mut Self::Lane, sat: &mut Self::Sat, a: Self::In, b: Self::In);
    /// Retires one finished lane: folds `sat` into `stats`, applies the
    /// datapath's narrowing pipeline and the epilogue (at the wide type),
    /// and produces the output element for destination element `e`.
    fn finish<E: Epilogue<Self::EpiV>>(
        self,
        lane: Self::Lane,
        sat: Self::Sat,
        e: usize,
        epi: &E,
        stats: &mut Self::Stats,
    ) -> Self::Out;
    /// Merges one span's statistics into the shared sink.
    fn stats_add(sink: &Self::Sink, stats: Self::Stats);
    /// Extracts the final statistics from the sink.
    fn stats_take(sink: Self::Sink) -> Self::Stats;
}

/// Exact float datapath: plain multiply-then-add (never FMA-contracted),
/// no saturation, no statistics.
#[derive(Debug)]
pub struct FloatPath<T: Scalar>(PhantomData<T>);

impl<T: Scalar> FloatPath<T> {
    /// The float datapath (stateless).
    #[must_use]
    pub fn new() -> Self {
        FloatPath(PhantomData)
    }
}

impl<T: Scalar> Default for FloatPath<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> Clone for FloatPath<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: Scalar> Copy for FloatPath<T> {}

impl<T: Scalar> Datapath for FloatPath<T> {
    type In = T;
    type Out = T;
    type Lane = T;
    type Sat = ();
    type EpiV = T;
    type Stats = ();
    type Sink = ();

    #[inline(always)]
    fn lane_zero(self) -> T {
        T::ZERO
    }
    #[inline(always)]
    fn sat_zero(self) {}
    #[inline(always)]
    fn mac(self, lane: &mut T, _sat: &mut (), a: T, b: T) {
        *lane += a * b;
    }
    #[inline(always)]
    fn finish<E: Epilogue<T>>(self, lane: T, _sat: (), e: usize, epi: &E, _stats: &mut ()) -> T {
        epi.apply(lane, e)
    }
    #[inline(always)]
    fn stats_add(_sink: &(), _stats: ()) {}
    #[inline(always)]
    fn stats_take(_sink: ()) {}
}

/// Shared atomic sink for `(accumulator, output)` saturation counters —
/// the quantized datapath's `Sink`. Exposed so `tie-quant` can name it
/// without its own atomics plumbing.
#[derive(Debug, Default)]
pub struct SatSink {
    /// Mid-accumulation (24-bit) clamp events.
    pub acc: AtomicU64,
    /// Output-narrowing clip events.
    pub out: AtomicU64,
}

impl SatSink {
    /// Adds one span's `(acc, out)` counts. Relaxed ordering suffices: the
    /// pool's dispatch join orders all worker writes before the read.
    #[inline]
    pub fn add(&self, acc: u64, out: u64) {
        self.acc.fetch_add(acc, Ordering::Relaxed);
        self.out.fetch_add(out, Ordering::Relaxed);
    }

    /// Consumes the sink, returning `(acc, out)` totals.
    #[inline]
    #[must_use]
    pub fn take(self) -> (u64, u64) {
        (self.acc.into_inner(), self.out.into_inner())
    }
}

// ---------------------------------------------------------------------------
// Tile: register-tile instantiation choice + SIMD multiversioning.
// ---------------------------------------------------------------------------

/// A unit of work that can run at any register-tile instantiation. The
/// tile kernel picks the `TJ` (output columns per tile) and `R` (rows per
/// tile) constants and the ISA the body is compiled for; the job supplies
/// the loop nest. Implementations of `run` must be `#[inline(always)]`
/// so the body inlines *into* the `#[target_feature]` wrapper and LLVM
/// vectorizes it for that ISA.
pub trait TileJob {
    /// Result of the job (per-span statistics, or `()`).
    type Out;
    /// Runs the job at the `TJ × R` register-tile instantiation.
    fn run<const TJ: usize, const R: usize>(self) -> Self::Out;
}

/// Chooses the register-tile instantiation (and ISA) a [`TileJob`] runs
/// at. All kernels execute the same generic body in the same arithmetic
/// order — wider tiles only group more independent output columns per
/// pass — so every kernel is bit-identical.
pub trait TileKernel: Copy + Sync {
    /// Runs `job` at this kernel's tile instantiation.
    fn run<J: TileJob>(self, job: J) -> J::Out;
}

/// Pinned portable kernel: always runs the `TJ × R` instantiation with no
/// runtime dispatch. `PortableTile::<8, 2>` (float) and
/// `PortableTile::<8, 1>` (quant) are the reference tiers the
/// differential suites pin against the auto-dispatched kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortableTile<const TJ: usize, const R: usize>;

impl<const TJ: usize, const R: usize> TileKernel for PortableTile<TJ, R> {
    #[inline]
    fn run<J: TileJob>(self, job: J) -> J::Out {
        job.run::<TJ, R>()
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx512f")]
unsafe fn tile_run_avx512<J: TileJob, const TJ: usize, const R: usize>(job: J) -> J::Out {
    job.run::<TJ, R>()
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx")]
unsafe fn tile_run_avx<J: TileJob, const TJ: usize, const R: usize>(job: J) -> J::Out {
    job.run::<TJ, R>()
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn tile_run_avx2<J: TileJob, const TJ: usize, const R: usize>(job: J) -> J::Out {
    job.run::<TJ, R>()
}

/// Runtime-dispatched float kernel: AVX-512 (`32 × 4` tile) → AVX
/// (`16 × 2`) → portable (`8 × 2`), mirroring the historical
/// `gemm_nn_block` tiering so the refactor is bitwise invisible.
#[derive(Debug, Clone, Copy, Default)]
pub struct FloatAuto;

impl TileKernel for FloatAuto {
    #[inline]
    fn run<J: TileJob>(self, job: J) -> J::Out {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: `avx512f` support was just detected on this CPU;
                // the callee is ordinary safe slice code whose only
                // `unsafe` obligation is target-feature availability.
                #[allow(unsafe_code)]
                return unsafe { tile_run_avx512::<J, TILE_J_512, 4>(job) };
            }
            if std::arch::is_x86_feature_detected!("avx") {
                // SAFETY: as above, for `avx`.
                #[allow(unsafe_code)]
                return unsafe { tile_run_avx::<J, TILE_J_WIDE, 2>(job) };
            }
        }
        job.run::<TILE_J, 2>()
    }
}

/// Runtime-dispatched integer kernel: AVX-512 (`32 × 1` tile) → AVX2
/// (`16 × 1`) → portable (`8 × 1`), mirroring the historical `qmatmul`
/// tiering. Single-row tiles: the i32 lane + sticky-flag state of the
/// quantized datapath already fills the vector register budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntAuto;

impl TileKernel for IntAuto {
    #[inline]
    fn run<J: TileJob>(self, job: J) -> J::Out {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: `avx512f` support was just detected on this CPU;
                // see `FloatAuto`.
                #[allow(unsafe_code)]
                return unsafe { tile_run_avx512::<J, QTILE_J_512, 1>(job) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: as above, for `avx2`.
                #[allow(unsafe_code)]
                return unsafe { tile_run_avx2::<J, QTILE_J_WIDE, 1>(job) };
            }
        }
        job.run::<QTILE_J, 1>()
    }
}

// ---------------------------------------------------------------------------
// Shared raw-pointer plumbing.
// ---------------------------------------------------------------------------

/// Shareable raw destination pointer for scatter stores and disjoint slab
/// carving: spans write bijection-disjoint offsets (streaming stage) or
/// non-overlapping row slabs (k-blocked/Gram stages), so no two workers
/// touch the same element.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);

#[allow(unsafe_code)]
// SAFETY: the pointer is only dereferenced at offsets derived from a
// validated `Dest` bijection or a disjoint row partition — no two threads
// ever write the same element, and the buffer outlives the dispatch (the
// caller holds `&mut` across the pool join).
unsafe impl<T> Send for SendPtr<T> {}
#[allow(unsafe_code)]
// SAFETY: as above — shared references to the wrapper only hand out the
// raw pointer; disjointness is guaranteed by the row partition.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Stage + Global: row-partitioned drivers.
// ---------------------------------------------------------------------------

/// How a stage wants its output rows partitioned across the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// Near-equal spans, one per thread (the GEMM default: uniform cost
    /// per row).
    Even,
    /// Fixed-size row slabs, oversubscribed so the pool's claim counter
    /// load-balances non-uniform rows (the Gram triangle).
    Slabs(usize),
}

/// One matmul stage: a row-partitionable unit of GEMM work plus its
/// statistics plumbing. [`global_matmul`] drives it over the pool.
pub trait StageMatmul: Sync {
    /// Shared sink per-span statistics merge into.
    type Sink: Sync + Default;
    /// Final statistics extracted from the sink.
    type Stats;

    /// Total output rows.
    fn rows(&self) -> usize;
    /// Work estimate (multiply-accumulates) for the spawn threshold.
    fn work(&self) -> usize;
    /// Partition choice given the thread count the driver settled on.
    fn partition(&self, _threads: usize) -> Partition {
        Partition::Even
    }
    /// Runs rows `row0 .. row0 + rows` of the stage.
    fn run_span(&self, row0: usize, rows: usize, sink: &Self::Sink);
    /// Extracts final statistics after all spans completed.
    fn take(sink: Self::Sink) -> Self::Stats;
}

/// Global driver: decides the thread count from the stage's work estimate,
/// partitions output rows per the stage's [`Partition`] choice, runs every
/// span on the persistent pool, and extracts the merged statistics.
///
/// Row-span boundaries depend only on `(rows, threads)` — identical to the
/// historical slab partition (`parallel::for_each_row_span` and
/// `parallel::for_each_row_slab` produce the same spans) — so outputs are
/// bit-deterministic at any `TIE_THREADS` setting.
pub fn global_matmul<S: StageMatmul>(stage: &S) -> S::Stats {
    let sink = S::Sink::default();
    let m = stage.rows();
    let threads = parallel::threads_for(stage.work(), m);
    match stage.partition(threads) {
        Partition::Even => {
            parallel::for_each_row_span(m, threads, |row0, rows| {
                stage.run_span(row0, rows, &sink);
            });
        }
        Partition::Slabs(slab_rows) => {
            let slab_rows = slab_rows.max(1);
            pool::dispatch(m.div_ceil(slab_rows), |s| {
                let row0 = s * slab_rows;
                stage.run_span(row0, slab_rows.min(m - row0), &sink);
            });
        }
    }
    S::take(sink)
}

// ---------------------------------------------------------------------------
// Streaming stage: full-k accumulation, fused epilogue + scatter store.
// ---------------------------------------------------------------------------

/// The streaming stage's per-span job: `R`-row × `TJ`-column register
/// tiles accumulated across the **whole** `k` extent (no k-blocking — the
/// tile never round-trips through `C`, which a scattered destination could
/// not reload cheaply anyway; since the k-blocked kernel's partial-sum
/// store/reload is exact, full-`k` accumulation produces identical bits),
/// then retired through `Datapath::finish` + the epilogue and scattered
/// through the destination.
struct StreamJob<'a, P: Datapath, D, E> {
    path: P,
    a: &'a [P::In],
    b: &'a [P::In],
    c: *mut P::Out,
    row0: usize,
    rows: usize,
    k: usize,
    n_mat: usize,
    bsz: usize,
    dest: &'a D,
    epi: &'a E,
}

/// Retires one row of a register tile: lane `t` is GEMM column `jt + t` of
/// logical row whose destination row offset is `base_row`. The `(q, cb)`
/// odometer advances without per-element division — one div/mod at entry,
/// then increment-and-wrap.
///
/// # Safety
///
/// `c` must point at a buffer of `dest.rows()·dest.cols()·bsz` elements
/// and `dest` must uphold the [`Dest`] bijection invariant with
/// `base_row = dest.row_base(i)` for a row `i` owned by this span.
#[allow(unsafe_code)]
#[allow(clippy::too_many_arguments)] // kernel-internal ABI: dims + state are positional
#[inline(always)]
unsafe fn finish_store<P: Datapath, D: Dest, E: Epilogue<P::EpiV>>(
    path: P,
    c: *mut P::Out,
    base_row: usize,
    dest: &D,
    bsz: usize,
    jt: usize,
    lanes: &[P::Lane],
    sats: &[P::Sat],
    epi: &E,
    stats: &mut P::Stats,
) {
    let mut q = jt / bsz;
    let mut cb = jt - q * bsz;
    for (&lane, &sat) in lanes.iter().zip(sats) {
        let e = base_row + dest.col_off(q);
        let out = path.finish(lane, sat, e, epi, stats);
        // SAFETY: `e·bsz + cb` is inside the destination buffer by the
        // `Dest` bijection invariant (see trait docs).
        unsafe {
            *c.add(e * bsz + cb) = out;
        }
        cb += 1;
        if cb == bsz {
            cb = 0;
            q += 1;
        }
    }
}

impl<P: Datapath, D: Dest, E: Epilogue<P::EpiV>> TileJob for StreamJob<'_, P, D, E> {
    type Out = P::Stats;

    #[inline(always)]
    fn run<const TJ: usize, const R: usize>(self) -> P::Stats {
        let StreamJob {
            path,
            a,
            b,
            c,
            row0,
            rows,
            k,
            n_mat,
            bsz,
            dest,
            epi,
        } = self;
        let n = n_mat * bsz;
        let mut stats = P::Stats::default();
        let i1 = row0 + rows;
        let mut i = row0;
        while i + R <= i1 {
            let mut jt = 0;
            while jt + TJ <= n {
                let mut lanes = [[path.lane_zero(); TJ]; R];
                let mut sats = [[path.sat_zero(); TJ]; R];
                for kk in 0..k {
                    let bv = &b[kk * n + jt..][..TJ];
                    for r in 0..R {
                        let ar = a[(i + r) * k + kk];
                        let (tr, sr) = (&mut lanes[r], &mut sats[r]);
                        for (t, &bt) in bv.iter().enumerate() {
                            path.mac(&mut tr[t], &mut sr[t], ar, bt);
                        }
                    }
                }
                for r in 0..R {
                    // SAFETY: rows `i..i+R` belong to this span; see
                    // `finish_store`.
                    #[allow(unsafe_code)]
                    unsafe {
                        finish_store(
                            path,
                            c,
                            dest.row_base(i + r),
                            dest,
                            bsz,
                            jt,
                            &lanes[r],
                            &sats[r],
                            epi,
                            &mut stats,
                        );
                    }
                }
                jt += TJ;
            }
            while jt < n {
                for r in 0..R {
                    let arow = &a[(i + r) * k..(i + r + 1) * k];
                    let mut lane = path.lane_zero();
                    let mut sat = path.sat_zero();
                    for (kk, &ar) in arow.iter().enumerate() {
                        path.mac(&mut lane, &mut sat, ar, b[kk * n + jt]);
                    }
                    // SAFETY: single in-range offset, as above.
                    #[allow(unsafe_code)]
                    unsafe {
                        finish_store(
                            path,
                            c,
                            dest.row_base(i + r),
                            dest,
                            bsz,
                            jt,
                            &[lane],
                            &[sat],
                            epi,
                            &mut stats,
                        );
                    }
                }
                jt += 1;
            }
            i += R;
        }
        while i < i1 {
            let arow = &a[i * k..(i + 1) * k];
            let base = dest.row_base(i);
            let mut jt = 0;
            while jt + TJ <= n {
                let mut lane = [path.lane_zero(); TJ];
                let mut sat = [path.sat_zero(); TJ];
                for (kk, &ar) in arow.iter().enumerate() {
                    let bv = &b[kk * n + jt..][..TJ];
                    for (t, &bt) in bv.iter().enumerate() {
                        path.mac(&mut lane[t], &mut sat[t], ar, bt);
                    }
                }
                // SAFETY: see `finish_store`.
                #[allow(unsafe_code)]
                unsafe {
                    finish_store(path, c, base, dest, bsz, jt, &lane, &sat, epi, &mut stats);
                }
                jt += TJ;
            }
            while jt < n {
                let mut lane = path.lane_zero();
                let mut sat = path.sat_zero();
                for (kk, &ar) in arow.iter().enumerate() {
                    path.mac(&mut lane, &mut sat, ar, b[kk * n + jt]);
                }
                // SAFETY: see `finish_store`.
                #[allow(unsafe_code)]
                unsafe {
                    finish_store(
                        path,
                        c,
                        base,
                        dest,
                        bsz,
                        jt,
                        &[lane],
                        &[sat],
                        epi,
                        &mut stats,
                    );
                }
                jt += 1;
            }
            i += 1;
        }
        stats
    }
}

/// The streaming stage: binds a datapath, tile kernel, operands,
/// destination and epilogue into a [`StageMatmul`].
struct StreamStage<'a, P: Datapath, K, D, E> {
    path: P,
    kern: K,
    a: &'a [P::In],
    b: &'a [P::In],
    c: SendPtr<P::Out>,
    m: usize,
    k: usize,
    n_mat: usize,
    bsz: usize,
    dest: &'a D,
    epi: &'a E,
}

impl<P: Datapath, K: TileKernel, D: Dest, E: Epilogue<P::EpiV>> StageMatmul
    for StreamStage<'_, P, K, D, E>
{
    type Sink = P::Sink;
    type Stats = P::Stats;

    fn rows(&self) -> usize {
        self.m
    }
    fn work(&self) -> usize {
        self.m * self.k * self.n_mat * self.bsz
    }
    fn run_span(&self, row0: usize, rows: usize, sink: &P::Sink) {
        let job = StreamJob {
            path: self.path,
            a: self.a,
            b: self.b,
            c: self.c.get(),
            row0,
            rows,
            k: self.k,
            n_mat: self.n_mat,
            bsz: self.bsz,
            dest: self.dest,
            epi: self.epi,
        };
        let stats = self.kern.run(job);
        P::stats_add(sink, stats);
    }
    fn take(sink: P::Sink) -> P::Stats {
        P::stats_take(sink)
    }
}

/// Streaming GEMM with fused epilogue and destination redirection:
/// `C = epilogue(A · B)` scattered through `dest`.
///
/// `a` is `m × k`, `b` is `k × (n_mat·bsz)` (logical columns
/// batch-inner), and output element `(i, q·bsz + cb)` lands at
/// `(dest.row_base(i) + dest.col_off(q))·bsz + cb` of `c`, transformed by
/// `epi` at the datapath's wide accumulator type. No pre-zero: the
/// destination bijection guarantees every element of `c` is written
/// exactly once. Returns the datapath's statistics (saturation counts for
/// the quantized path, `()` for float).
///
/// This is the kernel-layer entry; shape validation is by `assert!`
/// (the `Result`-returning wrappers live in [`crate::linalg`] and
/// `tie-quant`).
#[allow(clippy::too_many_arguments)] // GEMM kernel ABI: dims + slices are positional by design
pub fn stream_gemm<P: Datapath, K: TileKernel, D: Dest, E: Epilogue<P::EpiV>>(
    path: P,
    kern: K,
    a: &[P::In],
    b: &[P::In],
    c: &mut [P::Out],
    m: usize,
    k: usize,
    n_mat: usize,
    bsz: usize,
    dest: &D,
    epi: &E,
) -> P::Stats {
    assert!(bsz > 0, "stream_gemm: bsz must be positive");
    assert_eq!(dest.rows(), m, "stream_gemm: dest rows != m");
    assert_eq!(dest.cols(), n_mat, "stream_gemm: dest cols != n_mat");
    assert_eq!(a.len(), m * k, "stream_gemm: a length != m*k");
    assert_eq!(b.len(), k * n_mat * bsz, "stream_gemm: b length != k*n*bsz");
    assert_eq!(c.len(), m * n_mat * bsz, "stream_gemm: c length != m*n*bsz");
    let stage = StreamStage {
        path,
        kern,
        a,
        b,
        c: SendPtr(c.as_mut_ptr()),
        m,
        k,
        n_mat,
        bsz,
        dest,
        epi,
    };
    global_matmul(&stage)
}

// ---------------------------------------------------------------------------
// K-blocked stage: the cache-blocked float accumulate kernel.
// ---------------------------------------------------------------------------

/// The k-blocked stage's per-span job — the historical cache-blocked float
/// GEMM body, verbatim. `C` tiles load into registers once per k-block,
/// accumulate across the block, and store back; ascending `k0`/`kk` keeps
/// each output's accumulation order identical to the naive kernel, and the
/// partial-sum store/reload through `C` is bitwise exact. **No epilogue**:
/// mid-k partial sums round-trip through `C`, and an epilogue must only
/// ever see final sums — callers wanting fusion use the streaming stage.
struct KBlockJob<'a, T> {
    rows: usize,
    k: usize,
    n: usize,
    a: &'a [T],
    b: &'a [T],
    c: &'a mut [T],
}

impl<T: Scalar> TileJob for KBlockJob<'_, T> {
    type Out = ();

    #[inline(always)]
    fn run<const TJ: usize, const R: usize>(self) {
        let KBlockJob {
            rows,
            k,
            n,
            a,
            b,
            c,
        } = self;
        for i0 in (0..rows).step_by(BLOCK_M) {
            let i1 = (i0 + BLOCK_M).min(rows);
            for k0 in (0..k).step_by(BLOCK_K) {
                let k1 = (k0 + BLOCK_K).min(k);
                for j0 in (0..n).step_by(BLOCK_N) {
                    let j1 = (j0 + BLOCK_N).min(n);
                    let len = j1 - j0;
                    // R-row × TJ-column register microkernel: the C tiles
                    // are loaded into locals ONCE per k-block, accumulated
                    // across the whole `kk` loop, and stored back once —
                    // so steady state does one B-vector load per R output
                    // rows and no C traffic inside the k loop. The `jt`
                    // strip loop sits OUTSIDE the row loop so one
                    // `BLOCK_K × TJ` column strip of `B` stays L1-resident
                    // while every row pair of the slab sweeps over it.
                    // Because k-blocks advance in ascending order and each
                    // tile element adds its products in ascending `kk`,
                    // every output still sees the exact left-to-right
                    // accumulation sequence of the scalar loop, keeping
                    // the kernel bit-identical to `matmul_naive` on
                    // NaN/∞-free inputs. The fixed-size tile arrays give
                    // the compiler provable lengths, eliding bounds checks
                    // and vectorizing across the tile.
                    let mut jt = 0;
                    while jt + TJ <= len {
                        let jb = j0 + jt;
                        let mut i = i0;
                        while i + R <= i1 {
                            let mut t = [[T::ZERO; TJ]; R];
                            for (r, tr) in t.iter_mut().enumerate() {
                                tr.copy_from_slice(&c[(i + r) * n + jb..][..TJ]);
                            }
                            for kk in k0..k1 {
                                let bv = &b[kk * n + jb..][..TJ];
                                for (r, tr) in t.iter_mut().enumerate() {
                                    let ar = a[(i + r) * k + kk];
                                    for (x, &v) in tr.iter_mut().zip(bv) {
                                        *x += ar * v;
                                    }
                                }
                            }
                            for (r, tr) in t.iter().enumerate() {
                                c[(i + r) * n + jb..][..TJ].copy_from_slice(tr);
                            }
                            i += R;
                        }
                        while i < i1 {
                            let arow = &a[i * k..(i + 1) * k];
                            let crow = &mut c[i * n + jb..][..TJ];
                            let mut t0 = [T::ZERO; TJ];
                            t0.copy_from_slice(crow);
                            for kk in k0..k1 {
                                let a0 = arow[kk];
                                let bv = &b[kk * n + jb..][..TJ];
                                for (t, &v) in bv.iter().enumerate() {
                                    t0[t] += a0 * v;
                                }
                            }
                            crow.copy_from_slice(&t0);
                            i += 1;
                        }
                        jt += TJ;
                    }
                    // Remainder columns (< TJ wide): plain scalar
                    // accumulators, same ascending-k order.
                    while jt < len {
                        let jb = j0 + jt;
                        for i in i0..i1 {
                            let arow = &a[i * k..(i + 1) * k];
                            let mut s0 = c[i * n + jb];
                            for kk in k0..k1 {
                                s0 += arow[kk] * b[kk * n + jb];
                            }
                            c[i * n + jb] = s0;
                        }
                        jt += 1;
                    }
                }
            }
        }
    }
}

/// The k-blocked stage: row-major `C += A · B` over pre-zeroed output.
struct KBlockStage<'a, T, K> {
    kern: K,
    a: &'a [T],
    b: &'a [T],
    c: SendPtr<T>,
    m: usize,
    k: usize,
    n: usize,
}

impl<T: Scalar, K: TileKernel> StageMatmul for KBlockStage<'_, T, K> {
    type Sink = ();
    type Stats = ();

    fn rows(&self) -> usize {
        self.m
    }
    fn work(&self) -> usize {
        self.m * self.k * self.n
    }
    fn run_span(&self, row0: usize, rows: usize, _sink: &()) {
        // SAFETY: `global_matmul` hands each worker a disjoint row span,
        // so the carved sub-slices never alias; the buffer outlives the
        // dispatch (the caller holds `&mut` across the pool join).
        #[allow(unsafe_code)]
        let c_slab = unsafe {
            std::slice::from_raw_parts_mut(self.c.get().add(row0 * self.n), rows * self.n)
        };
        let a_slab = &self.a[row0 * self.k..(row0 + rows) * self.k];
        self.kern.run(KBlockJob {
            rows,
            k: self.k,
            n: self.n,
            a: a_slab,
            b: self.b,
            c: c_slab,
        });
    }
    fn take(_sink: ()) {}
}

/// Cache/k-blocked `C += A · B` (row-major, `c` pre-zeroed by the caller)
/// — the [`crate::linalg::gemm_into`] engine. No epilogue by design:
/// mid-k partial sums round-trip through `C`, and an epilogue must only
/// ever see final sums.
pub fn kblocked_gemm<T: Scalar, K: TileKernel>(
    kern: K,
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "kblocked_gemm: a length != m*k");
    assert_eq!(b.len(), k * n, "kblocked_gemm: b length != k*n");
    assert_eq!(c.len(), m * n, "kblocked_gemm: c length != m*n");
    let stage = KBlockStage {
        kern,
        a,
        b,
        c: SendPtr(c.as_mut_ptr()),
        m,
        k,
        n,
    };
    global_matmul(&stage)
}

/// One k-blocked span, run inline on the calling thread — the slab body
/// `gemm_into_scoped` (the pool-perf baseline) drives under its own
/// `std::thread::scope` partition.
pub(crate) fn kblocked_span<T: Scalar, K: TileKernel>(
    kern: K,
    rows: usize,
    k: usize,
    n: usize,
    a: &[T],
    b: &[T],
    c: &mut [T],
) {
    kern.run(KBlockJob {
        rows,
        k,
        n,
        a,
        b,
        c,
    });
}

// ---------------------------------------------------------------------------
// Gram stage: the triangular A·Aᵀ kernel.
// ---------------------------------------------------------------------------

/// Column-block size for the Gram stage: `m` row segments of 512 doubles
/// (4 KiB each) stay L2-resident while the `m²/2` pairwise dot products
/// reuse them, so `A` is streamed from memory exactly once.
pub(crate) const GRAM_BLOCK_K: usize = 512;

/// The Gram stage: lower triangle of `G += A · Aᵀ` (`g` pre-zeroed).
///
/// Row `i` of the triangle costs `i + 1` dot products, so the stage
/// requests [`Partition::Slabs`] oversubscribed 4× — the pool's claim
/// counter rebalances the triangle dynamically. The per-span body is the
/// degenerate "trivial tile" of the hierarchy (plain scalar dots, no
/// register tiling): every element `G[i][j]` accumulates its column
/// blocks in ascending-`k` order inside exactly one span, hence
/// bit-deterministic at any thread count.
struct GramStage<'a, T> {
    a: &'a [T],
    g: SendPtr<T>,
    m: usize,
    n: usize,
}

impl<T: Scalar> StageMatmul for GramStage<'_, T> {
    type Sink = ();
    type Stats = ();

    fn rows(&self) -> usize {
        self.m
    }
    fn work(&self) -> usize {
        self.m.saturating_mul(self.m).saturating_mul(self.n) / 2
    }
    fn partition(&self, threads: usize) -> Partition {
        if threads <= 1 {
            Partition::Slabs(self.m.max(1))
        } else {
            Partition::Slabs(self.m.div_ceil(threads * 4).max(1))
        }
    }
    fn run_span(&self, row0: usize, rows: usize, _sink: &()) {
        let (m, n, ad) = (self.m, self.n, self.a);
        // SAFETY: disjoint row spans (see `KBlockStage::run_span`).
        #[allow(unsafe_code)]
        let g_slab =
            unsafe { std::slice::from_raw_parts_mut(self.g.get().add(row0 * m), rows * m) };
        for k0 in (0..n).step_by(GRAM_BLOCK_K) {
            let k1 = (k0 + GRAM_BLOCK_K).min(n);
            for r in 0..rows {
                let i = row0 + r;
                let arow = &ad[i * n + k0..i * n + k1];
                for j in 0..=i {
                    let brow = &ad[j * n + k0..j * n + k1];
                    let mut acc = T::ZERO;
                    for (&x, &y) in arow.iter().zip(brow) {
                        acc += x * y;
                    }
                    g_slab[r * m + j] += acc;
                }
            }
        }
    }
    fn take(_sink: ()) {}
}

/// Lower triangle of the Gram matrix `G += A · Aᵀ` into pre-zeroed `g`
/// (`m × m`, row-major); `a` is `m × n`. The caller mirrors the upper
/// triangle (see [`crate::linalg`]'s `gram_nt`).
pub(crate) fn gram_into<T: Scalar>(a: &[T], g: &mut [T], m: usize, n: usize) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(g.len(), m * m);
    let stage = GramStage {
        a,
        g: SendPtr(g.as_mut_ptr()),
        m,
        n,
    };
    global_matmul(&stage)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 7 + 3) % 11) as f64 * scale - 2.0)
            .collect()
    }

    fn naive(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    #[test]
    fn stream_rowmajor_identity_matches_naive() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (9, 17, 33), (4, 1, 31)] {
            let a = seq(m * k, 0.5);
            let b = seq(k * n, 0.25);
            let want = naive(&a, &b, m, k, n);
            let mut c = vec![f64::NAN; m * n];
            stream_gemm(
                FloatPath::<f64>::new(),
                FloatAuto,
                &a,
                &b,
                &mut c,
                m,
                k,
                n,
                1,
                &RowMajor::new(m, n),
                &Identity,
            );
            assert_eq!(c, want, "auto kernel {m}x{k}x{n}");
            let mut cp = vec![f64::NAN; m * n];
            stream_gemm(
                FloatPath::<f64>::new(),
                PortableTile::<8, 2>,
                &a,
                &b,
                &mut cp,
                m,
                k,
                n,
                1,
                &RowMajor::new(m, n),
                &Identity,
            );
            assert_eq!(cp, want, "portable kernel {m}x{k}x{n}");
        }
    }

    #[test]
    fn fused_bias_relu_matches_separate_passes() {
        let (m, k, n) = (5, 9, 13);
        let a = seq(m * k, 0.3);
        let b = seq(k * n, -0.2);
        let bias = seq(m * n, 0.1);
        let plain = naive(&a, &b, m, k, n);
        let want: Vec<f64> = plain
            .iter()
            .zip(&bias)
            .map(|(&v, &bb)| {
                let s = v + bb;
                if s > 0.0 {
                    s
                } else {
                    0.0
                }
            })
            .collect();
        let mut c = vec![f64::NAN; m * n];
        stream_gemm(
            FloatPath::<f64>::new(),
            FloatAuto,
            &a,
            &b,
            &mut c,
            m,
            k,
            n,
            1,
            &RowMajor::new(m, n),
            &BiasRelu::new(&bias),
        );
        assert_eq!(
            c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn kblocked_matches_streaming_bits() {
        let (m, k, n) = (37, 65, 41);
        let a = seq(m * k, 0.7);
        let b = seq(k * n, 0.9);
        let mut c1 = vec![0.0; m * n];
        kblocked_gemm(FloatAuto, &a, &b, &mut c1, m, k, n);
        let mut c2 = vec![f64::NAN; m * n];
        stream_gemm(
            FloatPath::<f64>::new(),
            FloatAuto,
            &a,
            &b,
            &mut c2,
            m,
            k,
            n,
            1,
            &RowMajor::new(m, n),
            &Identity,
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c1), bits(&c2));
    }

    #[test]
    fn activation_default_is_identity() {
        assert_eq!(Activation::default(), Activation::Identity);
    }
}
