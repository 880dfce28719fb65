//! `explore`: a returning user exploring a bigger space. Set-up builds
//! the tiny library and runs Steps 1–2 of the generic Gaussian filter
//! once into a store; each unit is then a warm `run_pipeline` that loads
//! Steps 1–2 from the store and spends the paper's GF budget of 10^6
//! hill-climb estimates. Step-3 search dominates.

use crate::dse::{class_split, time_evaluator, unobserved, Acc};
use crate::ledger::{Counters, SpanTree};
use crate::{closed_loop, Ctx, Outcome, Phase, Sample, Served, SETUP_REPS};
use autoax::pipeline::{run_pipeline, PipelineOptions, PipelineResult};
use autoax::CacheMode;
use autoax_accel::gaussian_generic::GenericGaussian;
use autoax_circuit::charlib::LibraryConfig;
use autoax_image::synthetic::benchmark_suite;
use autoax_image::GrayImage;
use autoax_store::library::LibraryOutcome;
use autoax_store::load_or_build_library;
use autoax_telemetry as telemetry;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Step-3 estimate budget of a unit (the paper's GF budget).
const UNIT_EVALS: usize = 1_000_000;

struct Inputs {
    lib_cfg: LibraryConfig,
    images: Vec<GrayImage>,
    /// A unit's options; set-up differs only in the search budget, which
    /// is not part of the Step-1/2 cache key.
    opts: PipelineOptions,
    accel: GenericGaussian,
}

fn inputs(ctx: &Ctx, dir: &Path) -> Inputs {
    let mut opts = PipelineOptions::quick().with_cache(dir, CacheMode::ReadWrite);
    opts.seed = ctx.seeds.pipeline;
    opts.train_configs = 120;
    opts.test_configs = 60;
    opts.final_eval_cap = 40;
    opts.search.max_evals = UNIT_EVALS;
    opts.search.threads = ctx.threads;
    Inputs {
        lib_cfg: LibraryConfig::tiny(),
        images: benchmark_suite(2, 64, 48, ctx.seeds.images),
        opts,
        accel: GenericGaussian::with_sweep(2),
    }
}

/// One set-up into the empty directory `dir`: library build, then a cold
/// Steps 1–2 with the quick search budget. Also returns the seconds the
/// library call spent beyond the build (the blob save).
fn setup(ctx: &Ctx, dir: &Path) -> Result<(Inputs, LibraryOutcome, f64), String> {
    let inp = inputs(ctx, dir);
    let t = Instant::now();
    let lib = load_or_build_library(&inp.lib_cfg, Some(dir), CacheMode::ReadWrite);
    let save_s = (t.elapsed() - lib.build_time).as_secs_f64();
    let mut cold = inp.opts.clone();
    cold.search.max_evals = PipelineOptions::quick().search.max_evals;
    let r = run_pipeline(&inp.accel, &lib.lib, &inp.images, &cold)
        .map_err(|e| format!("cold run_pipeline: {e}"))?;
    if lib.cache_hit || r.timings.cache_misses != 1 {
        return Err("set-up in an empty directory hit a cache".into());
    }
    Ok((inp, lib, save_s))
}

fn unit(inp: &Inputs, lib: &LibraryOutcome) -> Result<(f64, PipelineResult), String> {
    let t0 = Instant::now();
    let sp_unit = telemetry::span("bench.unit");
    let sp = telemetry::span("bench.run_pipeline");
    let result = run_pipeline(&inp.accel, &lib.lib, &inp.images, &inp.opts);
    drop(sp);
    drop(sp_unit);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let result = result.map_err(|e| format!("run_pipeline: {e}"))?;
    let t = &result.timings;
    if t.cache_hits != 1 || t.cache_misses != 0 {
        return Err(format!(
            "Steps 1-2 did not load from the store (hits {}, misses {})",
            t.cache_hits, t.cache_misses
        ));
    }
    if t.search_estimates < UNIT_EVALS as u64 {
        return Err(format!("search spent {} estimates", t.search_estimates));
    }
    if result.final_front.is_empty() {
        return Err("empty final front".into());
    }
    Ok((ms, result))
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut ready: Option<(Inputs, LibraryOutcome, f64, PathBuf)> = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let dir = ctx.fresh_dir(&format!("setup-{rep}"));
        let s = setup(ctx, &dir);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        match s {
            Ok((inp, lib, save_s)) => {
                if let Some((.., old)) = ready.replace((inp, lib, save_s, dir)) {
                    let _ = std::fs::remove_dir_all(old);
                }
            }
            Err(e) => out.problem(format!("set-up {rep}: {e}")),
        }
    }
    let Some((inp, lib, save_s, dir)) = ready else {
        return out;
    };

    let mut reference: Option<u64> = None;
    let mut engines = ("-", "-");
    for (traced, length) in ctx.phases() {
        telemetry::set_tracing(traced);
        telemetry::set_metrics(traced);
        let before = Counters::read();
        let mut acc = Acc::default();
        let mut samples = Vec::new();
        let wall_s = closed_loop(length, || {
            out.attempted += 1;
            match unit(&inp, &lib) {
                Ok((ms, r)) => {
                    let d = r.front_digest();
                    engines = r.timings.search_engines;
                    let want = *reference.get_or_insert(d);
                    if d != want {
                        out.fail(format!("front digest {d:016x} != first unit's {want:016x}"));
                    } else {
                        samples.push(Sample {
                            ms,
                            served: Served::Computed,
                        });
                    }
                    if traced {
                        acc.walls.push(ms / 1e3);
                        acc.add_result(&r, &inp.opts);
                        unobserved(|| {
                            let warm =
                                load_or_build_library(&inp.lib_cfg, Some(&dir), CacheMode::Read);
                            if !warm.cache_hit {
                                out.problem("set-up library blob did not load back".into());
                            }
                            acc.add("store.library_load_s", warm.load_time.as_secs_f64());
                            let timed =
                                time_evaluator(&inp.accel, &lib.lib, &r, &inp.images, &mut acc);
                            if let Err(e) = timed {
                                out.problem(e);
                            }
                        });
                    }
                }
                Err(e) => out.fail(e),
            }
        });
        let phase = Phase { samples, wall_s };
        if traced {
            telemetry::set_tracing(false);
            let counters = Counters::read().since(&before);
            telemetry::set_metrics(false);
            acc.finish(&mut out, &SpanTree::take(), counters);
            // The library is built and saved once, in set-up.
            out.set("circuit.library_build_s", lib.build_time.as_secs_f64());
            out.set("store.library_save_s", save_s);
            class_split(&inp.lib_cfg, &lib.lib, &mut out);
            out.traced = phase;
        } else {
            out.plain = phase;
        }
    }
    if let Some(d) = reference {
        out.notes.push(format!("front digest {d:016x}"));
    }
    out.notes.push(format!("ml.engine (qor, hw): {engines:?}"));
    out
}
