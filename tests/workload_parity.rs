//! Golden-digest parity for the application-layer generalization, plus
//! the NN workload's end-to-end pipeline contract.
//!
//! The `Workload` refactor (generic `run_pipeline` over any QoR domain)
//! must leave the image path **byte-identical**: the quickstart example's
//! Sobel front digest, pseudo-Pareto size and final-front size are pinned
//! here to the values captured before the refactor (commit 95e7ccb). If
//! this test fails, the generalization changed numeric behaviour — that
//! is a bug, not a baseline to re-pin.

use autoax::pipeline::{run_pipeline, PipelineOptions};
use autoax_accel::sobel::SobelEd;
use autoax_circuit::charlib::{build_library, LibraryConfig};
use autoax_image::synthetic::benchmark_suite;
use autoax_nn::NnScenario;

#[test]
fn sobel_quickstart_front_is_bit_identical_to_pre_workload_refactor() {
    // exactly the quickstart example's setup: tiny library, 4 synthetic
    // 96×64 images (seed 7), quick pipeline budgets, hill search
    let lib = build_library(&LibraryConfig::tiny());
    let images = benchmark_suite(4, 96, 64, 7);
    let accel = SobelEd::new();
    let res = run_pipeline(&accel, &lib, &images, &PipelineOptions::quick()).expect("pipeline");
    assert_eq!(
        res.pseudo_front.len(),
        65,
        "pseudo-Pareto size drifted from the pre-refactor baseline"
    );
    assert_eq!(
        res.final_front.len(),
        14,
        "final front size drifted from the pre-refactor baseline"
    );
    assert_eq!(
        res.front_digest(),
        0x252e_0c00_c843_33a4,
        "front digest drifted: the application-layer generalization must \
         leave Sobel results byte-identical"
    );
    assert_eq!(res.qor_metric, "SSIM");
}

#[test]
fn nn_pipeline_runs_all_three_steps_end_to_end() {
    // the same generic pipeline on the NN workload: profiling → models
    // with reported fidelity → search → non-empty accuracy/area/energy
    // front with accuracy in [0, 1] and the exact design reaching 1.0
    let lib = build_library(&LibraryConfig::tiny());
    let (accel, samples) = NnScenario::tiny().build();
    let res = run_pipeline(&accel, &lib, &samples, &PipelineOptions::quick()).expect("nn pipeline");
    assert_eq!(res.qor_metric, "top-1 accuracy");
    assert!(!res.final_front.is_empty(), "empty NN front");
    for m in &res.final_front {
        assert!(
            (0.0..=1.0).contains(&m.qor),
            "accuracy out of range: {}",
            m.qor
        );
    }
    let best = res
        .final_front
        .iter()
        .map(|m| m.qor)
        .fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(best, 1.0, "the exact configuration must reach accuracy 1.0");
    for (name, v) in [
        ("qor_train", res.fidelity.qor_train),
        ("qor_test", res.fidelity.qor_test),
        ("hw_train", res.fidelity.hw_train),
        ("hw_test", res.fidelity.hw_test),
    ] {
        assert!(
            (0.0..=1.0).contains(&v),
            "fidelity {name} out of [0,1]: {v}"
        );
    }
    // PMFs profiled for every MAC slot
    assert_eq!(res.preprocessed.pmfs.len(), 4);
    for pmf in &res.preprocessed.pmfs {
        assert!(pmf.total() > 0);
    }
}

#[test]
fn nn_pipeline_is_deterministic() {
    let lib = build_library(&LibraryConfig::tiny());
    let (accel, samples) = NnScenario::tiny().build();
    let opts = PipelineOptions::quick();
    let a = run_pipeline(&accel, &lib, &samples, &opts).expect("run a");
    let b = run_pipeline(&accel, &lib, &samples, &opts).expect("run b");
    assert_eq!(a.front_digest(), b.front_digest());
    assert_eq!(a.pseudo_front.len(), b.pseudo_front.len());
}

/// The Gaussian accelerators' quick-pipeline fronts, pinned the same way
/// as Sobel's: tiny library, the `gaussian_dse quick` images (two 64×48
/// synthetic images, seed 11), quick budgets, hill search. Together with
/// the Sobel pin this gates every accelerator's software model byte for
/// byte (the values were captured on the per-pixel model that preceded
/// the lane-batched one).
#[test]
fn gaussian_quick_fronts_are_bit_identical() {
    use autoax_accel::gaussian_fixed::FixedGaussian;
    use autoax_accel::gaussian_generic::GenericGaussian;
    let lib = build_library(&LibraryConfig::tiny());
    let images = benchmark_suite(2, 64, 48, 11);
    let opts = PipelineOptions::quick();
    let fixed = run_pipeline(&FixedGaussian::new(), &lib, &images, &opts).expect("fixed gf");
    let generic =
        run_pipeline(&GenericGaussian::with_sweep(2), &lib, &images, &opts).expect("generic gf");
    assert_eq!(
        (fixed.pseudo_front.len(), fixed.final_front.len()),
        (60, 18),
        "Fixed GF front sizes drifted"
    );
    assert_eq!(
        (generic.pseudo_front.len(), generic.final_front.len()),
        (28, 10),
        "Generic GF front sizes drifted"
    );
    assert_eq!(
        fixed.front_digest(),
        0x9ee9_4d32_d22d_cfab,
        "Fixed GF front drifted"
    );
    assert_eq!(
        generic.front_digest(),
        0xd122_589e_2274_4efd,
        "Generic GF front drifted"
    );
}
