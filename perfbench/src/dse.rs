//! Ledger helpers shared by the two in-process workloads (`cold_start`
//! and `explore`), whose units call `run_pipeline` directly.

use crate::ledger::{pct, Counters, Fold, SpanTree};
use crate::Outcome;
use autoax::evaluate::Evaluator;
use autoax::pipeline::{PipelineOptions, PipelineResult};
use autoax_accel::Workload;
use autoax_circuit::charlib::{build_class, ComponentLibrary, LibraryConfig};
use autoax_circuit::OpSignature;
use autoax_store::library::encode_library;
use autoax_telemetry as telemetry;
use std::collections::BTreeMap;
use std::time::Instant;

/// Report names of [`OpSignature::PAPER_CLASSES`], in order.
const CLASS_NAMES: [&str; 6] = ["add8", "add9", "add16", "sub10", "sub16", "mul8"];

/// Real evaluations the traced run repeats per unit to time the QoR and
/// synthesis paths of `Evaluator` separately.
const EVALUATOR_SAMPLE: usize = 8;

/// Sums of per-unit values over a traced phase.
#[derive(Default)]
pub struct Acc {
    sums: BTreeMap<&'static str, f64>,
    /// Unit wall times, seconds, in unit order.
    pub walls: Vec<f64>,
}

impl Acc {
    /// Adds `v` to `name`'s sum.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    /// Adds what a pipeline result reports about itself.
    pub fn add_result(&mut self, r: &PipelineResult, opts: &PipelineOptions) {
        let t = &r.timings;
        let trained = if t.cache_misses > 0 {
            opts.train_configs + opts.test_configs
        } else {
            0
        };
        self.add("core.real_evals", (trained + r.evaluated.len()) as f64);
        self.add("core.search_estimates", t.search_estimates as f64);
        self.add("core.estimates_per_s", t.search_evals_per_sec);
        self.add("core.search_propose_s", t.search_propose.as_secs_f64());
        self.add("core.search_insert_s", t.search_insert.as_secs_f64());
        self.add("core.step12_cache_hits", t.cache_hits as f64);
        self.add("core.step12_cache_misses", t.cache_misses as f64);
        self.add("core.pseudo_front", r.pseudo_front.len() as f64);
        self.add("core.final_front", r.final_front.len() as f64);
        if t.search_estimates > 0 {
            self.add(
                "ml.estimate_ns_per_row",
                t.search_estimate.as_nanos() as f64 / t.search_estimates as f64,
            );
        }
    }

    /// Writes the means per unit, the span-derived stage times and the
    /// layer shares into `out`; counters are totals over the phase.
    pub fn finish(self, out: &mut Outcome, tree: &SpanTree, counters: Counters) {
        let n = self.walls.len().max(1) as f64;
        for (name, sum) in &self.sums {
            out.set(name, sum / n);
        }
        let mut fold = Fold::default();
        let roots = tree.roots("bench.unit");
        if roots.len() != self.walls.len() {
            out.problem(format!(
                "trace holds {} unit spans for {} units",
                roots.len(),
                self.walls.len()
            ));
        }
        for &r in &roots {
            fold.add(&tree.fold(r));
        }
        let mean = |name: &str| fold.total(name) / n;
        out.set("core.step1_s", mean("pipeline.step1.preprocess"));
        out.set("core.step2_eval_s", mean("pipeline.step2.training_data"));
        out.set("ml.fit_s", mean("pipeline.step2.fit"));
        out.set("core.step3_search_s", mean("pipeline.step3.search"));
        out.set("core.step3b_eval_s", mean("pipeline.step3b.final_eval"));
        out.set("store.step12_load_s", mean("pipeline.cache.load_step12"));
        out.set(
            "core.unattributed_s",
            fold.self_s.get("other").copied().unwrap_or(0.0) / n,
        );
        let evals = self.sums.get("core.real_evals").copied().unwrap_or(0.0) / n;
        if evals > 0.0 {
            let eval_s = mean("pipeline.step2.training_data") + mean("pipeline.step3b.final_eval");
            out.set("core.real_eval_ms_per_config", 1e3 * eval_s / evals);
        }
        let wall: f64 = self.walls.iter().sum();
        fold.write_shares(wall, out);
        out.notes.push(format!(
            "span tree: {} unit roots, self time covers {:.1}% of unit wall",
            roots.len(),
            pct(fold.self_s.values().sum(), wall)
        ));
        write_counters(out, counters);
    }
}

/// Runs `f` with metrics and tracing off, so the traced run's extra calls
/// stay out of the phase's counters and span tree.
pub fn unobserved<T>(f: impl FnOnce() -> T) -> T {
    let was = (telemetry::metrics_enabled(), telemetry::tracing_enabled());
    telemetry::set_metrics(false);
    telemetry::set_tracing(false);
    let r = f();
    telemetry::set_metrics(was.0);
    telemetry::set_tracing(was.1);
    r
}

/// Writes the registry counter deltas of a phase.
pub fn write_counters(out: &mut Outcome, c: Counters) {
    out.set("store.lru_hits", c.lru_hits as f64);
    out.set("store.disk_hits", c.disk_hits as f64);
    out.set("store.misses", c.misses as f64);
    out.set("store.saves", c.saves as f64);
    out.set("exec.bursts", c.bursts as f64);
    out.set("serve.rejections", c.rejections as f64);
    let (load, load_kind) = crate::ledger::store_p50_us("autoax_store_load_ns");
    let (save, save_kind) = crate::ledger::store_p50_us("autoax_store_save_ns");
    out.set("store.load_p50_us", load);
    out.set("store.save_p50_us", save);
    out.set(
        "exec.burst_p50_us",
        crate::ledger::hist_p50_us("autoax_pool_burst_ns", &[]),
    );
    out.notes.push(format!(
        "store latency p50 from the busiest kind: load `{load_kind}`, save `{save_kind}`"
    ));
}

/// Repeats up to [`EVALUATOR_SAMPLE`] of a unit's final real evaluations
/// through `Evaluator`, timing the QoR and synthesis halves apart, and
/// checks they reproduce the pipeline's numbers bit for bit.
pub fn time_evaluator<W: Workload + ?Sized>(
    work: &W,
    lib: &ComponentLibrary,
    r: &PipelineResult,
    samples: &[W::Sample],
    acc: &mut Acc,
) -> Result<(), String> {
    let eval = Evaluator::new(work, lib, &r.preprocessed.space, samples);
    let picked = &r.evaluated[..r.evaluated.len().min(EVALUATOR_SAMPLE)];
    if picked.is_empty() {
        return Ok(());
    }
    let (mut qor_s, mut hw_s) = (0.0, 0.0);
    for (c, real) in picked {
        let t = Instant::now();
        let qor = eval.evaluate_qor(c);
        qor_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let hw = eval.evaluate_hw(c);
        hw_s += t.elapsed().as_secs_f64();
        if qor.to_bits() != real.qor.to_bits() || hw.area.to_bits() != real.hw.area.to_bits() {
            return Err(format!(
                "Evaluator re-run differs from the pipeline: qor {qor} vs {}, area {} vs {}",
                real.qor, hw.area, real.hw.area
            ));
        }
    }
    let k = picked.len() as f64;
    acc.add("accel.qor_ms_per_config", 1e3 * qor_s / k);
    acc.add("circuit.synth_ms_per_config", 1e3 * hw_s / k);
    Ok(())
}

/// Builds the library class by class with `build_class`, timing each,
/// and writes the per-class times when the assembled library encodes to
/// exactly the bytes of `reference` (the `build_library` output).
/// Otherwise the split is reported as unavailable.
pub fn class_split(cfg: &LibraryConfig, reference: &ComponentLibrary, out: &mut Outcome) {
    let mut lib = ComponentLibrary::default();
    let mut times = Vec::new();
    for (i, sig) in OpSignature::PAPER_CLASSES.into_iter().enumerate() {
        let t = Instant::now();
        // The per-class seed `build_library` uses; the byte comparison
        // below catches any drift from it.
        let seed = cfg.seed.wrapping_add(i as u64 * 0x9E37);
        let entries = build_class(sig, cfg.counts.for_signature(sig), cfg, seed);
        times.push(t.elapsed().as_secs_f64());
        lib.insert_class(sig, entries);
    }
    if encode_library(&lib) != encode_library(reference) {
        out.notes.push(
            "circuit.class_build_s: unavailable (build_class split does not reproduce build_library)"
                .into(),
        );
        return;
    }
    for (name, s) in CLASS_NAMES.iter().zip(times) {
        out.set(&format!("circuit.class_build_s.{name}"), s);
    }
    out.notes.push(
        "circuit.class_build_s: build_class split reproduces build_library byte for byte".into(),
    );
}
