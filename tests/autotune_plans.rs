//! Autotuner deployment-plan suite: the JSON round-trip property, golden
//! tuned-plan fixtures for two Table 4 layers, worker-pool determinism,
//! and the saturation re-probe loop at integration scale.
//!
//! The golden fixtures under `tests/fixtures/golden_tuned_plan_*.json`
//! pin the tuner's *output contract*: the exact plan (layout, ranks, SVD
//! seed, serving knobs, validated margin) the pinned search config
//! produces for LSTM-UCF11 and LSTM-Youtube. The fast tests parse and
//! re-derive the fixtures without running the search; the `#[ignore]`d
//! reproduction test re-runs the search in release mode (ci.sh tier-2)
//! and must land on the committed bytes — that is the determinism gate,
//! and `TIE_AUTOTUNE_BUDGET_S` turns it into a wall-clock gate too.
//!
//! Regenerate after an *intentional* tuner change with:
//! `cargo test --release --test autotune_plans -- --ignored regenerate`

use proptest::prelude::*;
use serde_json::Value;
use tie::core::{plans_from_json, plans_to_json};
use tie::core::{Activation, CostModel, DeploymentPlan, InferencePlan, PlanBackend};
use tie::sim::{QuantConfig, ReprobeConfig, TieConfig};
use tie::tensor::linalg::{RsvdParams, SvdMethod};
use tie::tensor::parallel;
use tie::tt::TtShape;
use tie::workloads::autotune::{autotune_layer, SearchSpace, TunerConfig};
use tie::workloads::{table4_layer_specs, LayerSpec, Task};

// ---------------------------------------------------------------------------
// Property: every well-formed plan survives the JSON round trip
// bit-identically (the fixture/diff/load contract of `DeploymentPlan`).
// ---------------------------------------------------------------------------

/// Strategy: a valid TT layout with d in 1..=4, modes in 1..=8, uniform
/// interior rank in 1..=4.
fn shape_strategy() -> impl Strategy<Value = TtShape> {
    (1usize..=4).prop_flat_map(|d| {
        (
            proptest::collection::vec(1usize..=8, d),
            proptest::collection::vec(1usize..=8, d),
            1usize..=4,
        )
            .prop_map(|(m, n, r)| TtShape::uniform_rank(m, n, r).expect("valid layout"))
    })
}

/// Strategy: every `SvdMethod` variant, seeds and rSVD params included.
fn svd_strategy() -> impl Strategy<Value = SvdMethod> {
    (0usize..3, 0u64..u64::MAX, 1usize..16, 0usize..4).prop_map(
        |(variant, seed, oversample, power_iters)| match variant {
            0 => SvdMethod::Jacobi,
            1 => SvdMethod::Auto { seed },
            _ => SvdMethod::Randomized(RsvdParams {
                seed,
                oversample,
                power_iters,
            }),
        },
    )
}

fn plan_strategy() -> impl Strategy<Value = DeploymentPlan> {
    (
        (0usize..4, 1u32..1000),
        shape_strategy(),
        svd_strategy(),
        (0usize..2, 0usize..2, 1usize..=64, 1usize..=8, 1usize..=16),
        (1e-3f64..1e3, 0.0f64..1e12),
    )
        .prop_map(
            |((name_ix, tag), shape, svd, (backend, act, batch, depth, micro), (margin, cps))| {
                DeploymentPlan {
                    layer: format!("{}-{tag}", ["fc", "lstm", "conv", "attn"][name_ix]),
                    shape,
                    svd,
                    backend: [PlanBackend::Float, PlanBackend::Quantized][backend],
                    batch,
                    pipeline_depth: depth,
                    micro_batch: micro,
                    activation: [Activation::Identity, Activation::Relu][act],
                    quant_margin: margin,
                    modeled_cycles_per_sample: cps,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Serialize → parse lands on the identical plan, floats bit-for-bit.
    #[test]
    fn plan_json_round_trip_is_bit_identical(plan in plan_strategy()) {
        let back = DeploymentPlan::from_json(&plan.to_json()).expect("round trip parses");
        prop_assert_eq!(&back, &plan);
        prop_assert_eq!(back.quant_margin.to_bits(), plan.quant_margin.to_bits());
        prop_assert_eq!(
            back.modeled_cycles_per_sample.to_bits(),
            plan.modeled_cycles_per_sample.to_bits()
        );
        // Serializing the parsed plan reproduces the exact bytes.
        prop_assert_eq!(back.to_json(), plan.to_json());
    }

    /// Whole deployments (arrays of plans) round-trip the same way.
    #[test]
    fn deployment_arrays_round_trip(plans in proptest::collection::vec(plan_strategy(), 0..4)) {
        let text = plans_to_json(&plans);
        let back = plans_from_json(&text).expect("array round trip parses");
        prop_assert_eq!(&back, &plans);
        prop_assert_eq!(plans_to_json(&back), text);
    }
}

// ---------------------------------------------------------------------------
// Golden tuned-plan fixtures: LSTM-UCF11 and LSTM-Youtube under the
// pinned search config below. `{ "default": <plan>, "tuned": <plan> }`.
// ---------------------------------------------------------------------------

/// The two pinned layers (the LSTM rows of Table 4 — paper-scale inputs
/// whose searches run in seconds in release mode).
const GOLDEN_LAYERS: [&str; 2] = ["LSTM-UCF11", "LSTM-Youtube"];

/// The frozen search config the fixtures were generated with. Every knob
/// that shapes the search is spelled out here so a default-drift anywhere
/// upstream shows up as a fixture diff, not a silent re-tune.
fn fixture_cfg() -> TunerConfig {
    TunerConfig {
        space: SearchSpace {
            layouts_per_dim: 2,
            ..SearchSpace::default()
        },
        top_k: 2,
        ..TunerConfig::default()
    }
}

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("golden_tuned_plan_{name}.json"))
}

fn golden_spec(name: &str) -> LayerSpec {
    table4_layer_specs()
        .into_iter()
        .find(|s| s.name == name)
        .expect("pinned layer is in Table 4")
}

fn read_fixture(name: &str) -> (DeploymentPlan, DeploymentPlan) {
    let path = fixture_path(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}; regenerate with \
             `cargo test --release --test autotune_plans -- --ignored regenerate`",
            path.display()
        )
    });
    let fixture: Value = serde_json::from_str(&text).expect("fixture parses");
    let default =
        DeploymentPlan::from_value(fixture.get("default").expect("default plan")).unwrap();
    let tuned = DeploymentPlan::from_value(fixture.get("tuned").expect("tuned plan")).unwrap();
    (default, tuned)
}

fn fixture_text(default: &DeploymentPlan, tuned: &DeploymentPlan) -> String {
    use serde::Serialize;
    let fixture = Value::Object(vec![
        ("default".into(), default.to_value()),
        ("tuned".into(), tuned.to_value()),
    ]);
    serde_json::to_string_pretty(&fixture).unwrap() + "\n"
}

/// Regenerates both tuned-plan fixtures from the frozen search config.
/// Run in **release** mode — each layer's search TT-SVD-compiles its
/// paper-scale dense weights a few times.
#[test]
#[ignore = "writes tests/fixtures/; run only after an intentional tuner change"]
fn regenerate_tuned_plan_fixtures() {
    std::fs::create_dir_all(fixture_path("x").parent().unwrap()).unwrap();
    let cfg = fixture_cfg();
    for name in GOLDEN_LAYERS {
        let tuned = autotune_layer(&golden_spec(name), &cfg).expect("search succeeds");
        std::fs::write(
            fixture_path(name),
            fixture_text(&tuned.default_plan, &tuned.plan),
        )
        .unwrap();
    }
}

fn check_fixture(name: &str) {
    let (default, tuned) = read_fixture(name);
    let spec = golden_spec(name);

    // Both plans address the pinned layer and factorize its dense dims.
    let (rows, cols) = spec.size();
    for plan in [&default, &tuned] {
        assert_eq!(plan.layer, name);
        assert_eq!(plan.shape.num_rows(), rows, "{name}: row dim drifted");
        assert_eq!(plan.shape.num_cols(), cols, "{name}: col dim drifted");
        plan.validate().expect("fixture plans are valid");
        assert_eq!(plan.backend, PlanBackend::Quantized);
        // Bit-identical JSON round trip on the committed bytes.
        let back = DeploymentPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(&back, plan, "{name}: fixture plan does not round-trip");
    }

    // The stored score is re-derivable from the shape + knobs with the
    // same cost model the tuner used — the fixture can't smuggle in a
    // number the hardware model wouldn't produce.
    let model: CostModel = TieConfig::default().cost_model();
    for plan in [&default, &tuned] {
        let inference = InferencePlan::new(&plan.shape).unwrap();
        let cps = model.cycles_per_sample(
            &inference,
            plan.batch,
            plan.pipeline_depth,
            plan.micro_batch,
        );
        assert_eq!(
            cps.to_bits(),
            plan.modeled_cycles_per_sample.to_bits(),
            "{name}: stored modeled_cycles_per_sample diverges from the cost model"
        );
    }

    // The default plan is the paper setting: spec layout, batch 1,
    // sequential. The tuned plan must beat it on modeled cycles (the
    // acceptance criterion) by moving at least one serving knob.
    assert_eq!(default.shape.row_modes, spec.row_modes);
    assert_eq!(default.shape.col_modes, spec.col_modes);
    assert_eq!((default.batch, default.pipeline_depth), (1, 1));
    assert!(
        tuned.modeled_cycles_per_sample < default.modeled_cycles_per_sample,
        "{name}: tuned {} must beat default {}",
        tuned.modeled_cycles_per_sample,
        default.modeled_cycles_per_sample
    );
    assert!(tuned.batch > 1 || tuned.pipeline_depth > 1);
    // The validated margin is positive and at least the tightest searched
    // one (the re-probe ladder can only widen, never tighten).
    let tightest = fixture_cfg()
        .space
        .quant_margins
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    assert!(tuned.quant_margin >= tightest);
}

#[test]
fn golden_tuned_plan_lstm_ucf11() {
    check_fixture("LSTM-UCF11");
}

#[test]
fn golden_tuned_plan_lstm_youtube() {
    check_fixture("LSTM-Youtube");
}

/// A golden plan whose mode product overflows `usize` is rejected when
/// the deployment file is parsed, instead of panicking later in
/// `num_rows()`/`num_cols()`.
#[test]
fn overflowing_mode_products_are_rejected_at_parse_time() {
    let text = std::fs::read_to_string(fixture_path("LSTM-UCF11")).unwrap();
    let fixture: Value = serde_json::from_str(&text).unwrap();
    let Some(Value::Object(plan)) = fixture.get("tuned").cloned() else {
        panic!("tuned plan is an object");
    };
    // Overwrites entries `at` of the array field `key`.
    let with_entries = |key: &str, at: std::ops::Range<usize>, value: u64| {
        let mut plan = plan.clone();
        let modes = plan.iter_mut().find(|(k, _)| k == key).unwrap();
        let Value::Array(items) = &mut modes.1 else {
            panic!("{key} is an array");
        };
        for item in &mut items[at] {
            *item = Value::UInt(value);
        }
        serde_json::to_string(&Value::Array(vec![Value::Object(plan)])).unwrap()
    };
    // Control: the same edit with in-range modes still parses.
    assert!(plans_from_json(&with_entries("row_modes", 0..2, 4)).is_ok());
    for key in ["row_modes", "col_modes"] {
        let err = plans_from_json(&with_entries(key, 0..2, 1 << 32)).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{key}: {err}");
    }
    // Interior ranks of 2^40: the mode products fit, but a core's
    // r_{k-1}·m_k·n_k·r_k does not, so every size the plan would later
    // multiply out is rejected here rather than overflowing downstream.
    // Control: in-range interior ranks still parse.
    assert!(plans_from_json(&with_entries("ranks", 1..4, 8)).is_ok());
    let err = plans_from_json(&with_entries("ranks", 1..4, 1 << 40)).unwrap_err();
    assert!(err.to_string().contains("overflow"), "ranks: {err}");
}

/// Re-runs the pinned search and demands the committed fixture bytes —
/// the tuner determinism gate (ci.sh tier-2, release mode, both thread
/// settings). With `TIE_AUTOTUNE_BUDGET_S` set, each layer's search must
/// also finish inside that wall-clock budget.
#[test]
#[ignore = "re-runs paper-scale searches; ci.sh tier-2 runs it in release mode"]
fn tuned_plan_search_reproduces_the_fixtures() {
    let budget_s: Option<f64> = std::env::var("TIE_AUTOTUNE_BUDGET_S")
        .ok()
        .map(|v| v.parse().expect("TIE_AUTOTUNE_BUDGET_S must be seconds"));
    let cfg = fixture_cfg();
    for name in GOLDEN_LAYERS {
        let committed = std::fs::read_to_string(fixture_path(name)).unwrap();
        let t0 = std::time::Instant::now();
        let tuned = autotune_layer(&golden_spec(name), &cfg).expect("search succeeds");
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(
            fixture_text(&tuned.default_plan, &tuned.plan),
            committed,
            "{name}: the search no longer reproduces the committed fixture"
        );
        if let Some(budget) = budget_s {
            assert!(
                elapsed <= budget,
                "{name}: search took {elapsed:.2}s, over the {budget:.2}s budget"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Determinism across worker-pool sizes, and the re-probe loop, on a
// compile-in-milliseconds layer (runs in debug mode as part of tier 1).
// ---------------------------------------------------------------------------

/// A small planted-rank-2 layer whose full search runs in milliseconds.
fn small_spec() -> LayerSpec {
    LayerSpec {
        name: "tiny-fc",
        row_modes: vec![4, 4],
        col_modes: vec![4, 4],
        rank: 2,
        task: Task::ImageClassification,
        paper_cr: None,
        activation: Activation::Relu,
        noise: 1e-4,
    }
}

fn small_cfg() -> TunerConfig {
    TunerConfig {
        space: SearchSpace {
            layouts_per_dim: 2,
            batch_sizes: vec![1, 8],
            pipeline_depths: vec![1, 2],
            ..SearchSpace::default()
        },
        top_k: 2,
        error_entries: 1 << 10,
        ..TunerConfig::default()
    }
}

/// Same seed ⇒ byte-identical plan at every pool size: the SVD routes,
/// probe generators and margin walk are all seed-deterministic, and with
/// `compile_budget_s = None` no wall-clock measurement feeds back into
/// the search.
#[test]
fn autotuned_plan_is_identical_across_pool_sizes() {
    let spec = small_spec();
    let cfg = small_cfg();
    let prev = parallel::set_num_threads(1);
    let reference = autotune_layer(&spec, &cfg).unwrap();
    for threads in [2usize, 8] {
        parallel::set_num_threads(threads);
        let got = autotune_layer(&spec, &cfg).unwrap();
        assert_eq!(
            got.plan.to_json(),
            reference.plan.to_json(),
            "plan drifted at pool size {threads}"
        );
        assert_eq!(got.plan, reference.plan);
        assert_eq!(got.default_plan, reference.default_plan);
    }
    parallel::set_num_threads(prev);
}

/// Calibrating far too tight forces saturation drift on the held-out
/// validation probes; the tuner must walk the margin ladder, accept a
/// widened margin, and end clean — the re-probe loop end to end.
#[test]
fn reprobe_ladder_widens_on_saturation_drift() {
    let spec = small_spec();
    let cfg = TunerConfig {
        quant: QuantConfig {
            probe_amplitude: 0.05,
            ..QuantConfig::default()
        },
        space: SearchSpace {
            quant_margins: vec![1.0, 2.0],
            ..small_cfg().space
        },
        reprobe: ReprobeConfig {
            widen_factor: 2.0,
            max_widenings: 8,
            ..ReprobeConfig::default()
        },
        ..small_cfg()
    };
    let tuned = autotune_layer(&spec, &cfg).unwrap();
    let trail = tuned.reprobe_attempts.as_ref().expect("quantized backend");
    assert!(trail.len() > 1, "drift must force more than one attempt");
    assert!(
        trail[0].saturation_rate > 0.0,
        "the tightest margin must saturate on validation probes"
    );
    assert!(tuned.plan.quant_margin > 1.0, "accepted margin widened");
    assert_eq!(tuned.tuned_saturation_rate.unwrap(), 0.0, "ends clean");
}
