//! Measures the fused forest-inference kernel against the matrix +
//! pointer-walk baseline on a paper-shaped Sobel study: random-forest QoR
//! and hardware models driven over a columnar candidate batch in the
//! search layer's 32-row slices, single-threaded, reporting candidate
//! evaluations per second for both paths (one evaluation = one genome
//! through *both* models).
//!
//! ```sh
//! cargo run --release -p autoax-bench --bin forest_kernel -- --scale default
//! ```
//!
//! CI runs the quick scale with a floor on the fused/matrix ratio:
//!
//! ```sh
//! cargo run --release -p autoax-bench --bin forest_kernel -- \
//!     --scale quick --assert-speedup 1.0
//! ```
//!
//! Both paths produce bitwise-identical points (asserted on every run),
//! so the ratio is pure throughput. Each path's rate is the median of
//! five measurements of at least 0.5 s, reported with its min/max; the
//! fused models' engine labels and the per-slot member counts (which
//! decide the engine) are printed and recorded alongside.

use autoax::evaluate::Evaluator;
use autoax::model::{fit_models, EvaluatedSet, ModelEstimator};
use autoax::preprocess::{preprocess, PreprocessOptions};
use autoax::search::{ConfigBatch, Estimator};
use autoax::TradeoffPoint;
use autoax_accel::sobel::SobelEd;
use autoax_bench::{sobel_image_suite, write_bench_section, Json, Scale};
use autoax_circuit::charlib::build_library;
use autoax_ml::EngineKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Rows per `estimate_slice` call — the search layer's round granularity.
const SLICE: usize = 32;

/// Parses `--<name> <x>` / `--<name>=<x>` into a number.
fn num_arg<T: std::str::FromStr>(name: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    let eq = format!("--{name}=");
    let bare = format!("--{name}");
    for (i, a) in args.iter().enumerate() {
        let v = if let Some(rest) = a.strip_prefix(&eq) {
            Some(rest.to_string())
        } else if *a == bare {
            args.get(i + 1).cloned()
        } else {
            None
        };
        if let Some(v) = v {
            match v.parse() {
                Ok(n) => return Some(n),
                Err(_) => panic!("--{name} takes a number, got `{v}`"),
            }
        }
    }
    None
}

/// Timed measurements per path; the reported rate is their median.
const SAMPLES: usize = 5;

/// Minimum wall time of one measurement.
const MIN_SAMPLE_S: f64 = 0.5;

/// Evals/s of one path: the median of [`SAMPLES`] measurements with
/// their spread.
struct Rate {
    median: f64,
    min: f64,
    max: f64,
}

impl Rate {
    fn json(&self, path: &str) -> Vec<(String, Json)> {
        vec![
            (format!("{path}_evals_per_sec"), Json::Num(self.median)),
            (format!("{path}_evals_per_sec_min"), Json::Num(self.min)),
            (format!("{path}_evals_per_sec_max"), Json::Num(self.max)),
        ]
    }
}

/// Drives the estimator over the whole batch in `SLICE`-row chunks,
/// repeating passes until [`MIN_SAMPLE_S`] elapses, [`SAMPLES`] times.
/// Returns the evals/s rate and the points of the final pass (for the
/// parity check).
fn measure(est: &ModelEstimator<'_>, batch: &ConfigBatch) -> (Rate, Vec<TradeoffPoint>) {
    let n = batch.len();
    let mut out: Vec<TradeoffPoint> = Vec::with_capacity(n);
    let pass = |out: &mut Vec<TradeoffPoint>| {
        out.clear();
        let mut lo = 0;
        while lo < n {
            let hi = (lo + SLICE).min(n);
            est.estimate_slice(batch.slice(lo..hi), out);
            lo = hi;
        }
    };
    pass(&mut out); // warm-up: fault pages, fill caches
    let mut rates: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            let mut rows = 0u64;
            loop {
                pass(&mut out);
                black_box(&out);
                rows += n as u64;
                if start.elapsed().as_secs_f64() >= MIN_SAMPLE_S {
                    break;
                }
            }
            rows as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    let rate = Rate {
        median: rates[SAMPLES / 2],
        min: rates[0],
        max: rates[SAMPLES - 1],
    };
    (rate, out)
}

fn main() {
    // Single-thread measurement: the kernel comparison is about work per
    // core, not the parallel schedule.
    std::env::set_var(autoax_exec::THREADS_ENV, "1");
    let scale = Scale::from_args();
    let assert_min: Option<f64> = num_arg("assert-speedup");
    let batch_rows = match scale {
        Scale::Quick => 2_048,
        Scale::Default => 8_192,
        Scale::Paper => 16_384,
    };

    println!("building library (scale {}) ...", scale.label());
    let lib = build_library(&scale.library_config());
    let accel = SobelEd::new();
    let images = sobel_image_suite(scale);
    let pre = preprocess(&accel, &lib, &images, &PreprocessOptions::default()).expect("preprocess");
    let evaluator = Evaluator::new(&accel, &lib, &pre.space, &images);
    // `--train <n>` sizes the models independently of the image/library
    // scale (e.g. `--scale quick --train 1500` measures paper-sized
    // forests without the paper-scale evaluation cost).
    let train_n = num_arg("train").unwrap_or(scale.model_budget().0);
    println!("fitting random-forest models on {train_n} configurations ...");
    let train = EvaluatedSet::generate(&evaluator, &pre.space, train_n, 1);
    let models = fit_models(EngineKind::RandomForest, &pre.space, &lib, &train, 42).expect("fit");

    let members: Vec<usize> = pre.space.slots().iter().map(|s| s.members.len()).collect();
    println!("slots: {} (members per slot: {members:?})", members.len());

    let mut rng = StdRng::seed_from_u64(7);
    let mut batch = ConfigBatch::with_capacity(pre.space.slot_count(), batch_rows);
    for _ in 0..batch_rows {
        pre.space.random_into(batch.push_row(), &mut rng);
    }

    let fused = ModelEstimator::new(&models, &pre.space, &lib);
    let matrix = ModelEstimator::new_unfused(&models, &pre.space, &lib);
    assert_eq!(fused.fused(), (true, true), "forest models must fuse");
    assert_eq!(matrix.fused(), (false, false));
    let engines = fused.engines();
    println!("fused engines: qor={}, hw={}", engines.0, engines.1);

    println!(
        "timing {batch_rows} candidate rows per pass, {SLICE}-row slices, single thread, \
         median of {SAMPLES} x >= {MIN_SAMPLE_S} s per path ..."
    );
    let (matrix_rate, matrix_pts) = measure(&matrix, &batch);
    let (fused_rate, fused_pts) = measure(&fused, &batch);

    // Both paths must agree bit for bit — the speedup is free of any
    // numeric drift by construction.
    assert_eq!(matrix_pts.len(), fused_pts.len());
    for (i, (m, f)) in matrix_pts.iter().zip(&fused_pts).enumerate() {
        assert_eq!(m.qor.to_bits(), f.qor.to_bits(), "row {i}: qor diverged");
        assert_eq!(m.cost.to_bits(), f.cost.to_bits(), "row {i}: cost diverged");
    }

    let speedup = fused_rate.median / matrix_rate.median;
    println!("\nforest_kernel ({} scale, single thread)", scale.label());
    for (label, r) in [
        ("matrix + pointer-walk", &matrix_rate),
        ("fused gather+traverse", &fused_rate),
    ] {
        println!(
            "  {label}: {:>12.0} evals/s  (min {:.0}, max {:.0})",
            r.median, r.min, r.max
        );
    }
    println!("  speedup:               {speedup:>12.2}x (median / median)");

    let mut fields = vec![
        ("scale".into(), Json::Str(scale.label().into())),
        ("train_configs".into(), Json::int(train_n as u64)),
        ("threads".into(), Json::int(1)),
        ("batch_rows".into(), Json::int(batch_rows as u64)),
        ("slice_rows".into(), Json::int(SLICE as u64)),
        ("samples".into(), Json::int(SAMPLES as u64)),
        ("min_sample_s".into(), Json::Num(MIN_SAMPLE_S)),
        (
            "engines".into(),
            Json::Arr(vec![
                Json::Str(engines.0.into()),
                Json::Str(engines.1.into()),
            ]),
        ),
        (
            "members_per_slot".into(),
            Json::Arr(members.iter().map(|&m| Json::int(m as u64)).collect()),
        ),
    ];
    fields.extend(matrix_rate.json("matrix"));
    fields.extend(fused_rate.json("fused"));
    fields.push(("speedup".into(), Json::Num(speedup)));
    write_bench_section("forest_kernel", &Json::Obj(fields));

    if let Some(min) = assert_min {
        assert!(
            speedup >= min,
            "fused path regressed: {speedup:.2}x < required {min:.2}x"
        );
        println!("speedup floor {min:.2}x satisfied");
    }
}
