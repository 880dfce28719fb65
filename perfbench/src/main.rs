//! End-to-end benchmark of the autoAx reproduction.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_start --seed 0 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload (`cold_start`, `explore`, `served_computed` or
//! `served_cached`) in this process, checks every result, prints a report and, as the last line
//! of standard output, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer ledger (`--trace 1`). A wrong result
//! makes the run fail: the JSON says `"correct": false` and the process
//! exits with code 1. See `perfbench/README.md` for what each workload
//! and metric means and which layer each metric is expected to move.

mod cold_start;
mod dse;
mod explore;
mod jobmix;
mod ledger;
mod seeds;
mod served;
mod stats;

use seeds::Seeds;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// every one of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("circuit.library_build_s", "s"),
    ("circuit.class_build_s.add8", "s"),
    ("circuit.class_build_s.add9", "s"),
    ("circuit.class_build_s.add16", "s"),
    ("circuit.class_build_s.sub10", "s"),
    ("circuit.class_build_s.sub16", "s"),
    ("circuit.class_build_s.mul8", "s"),
    ("circuit.synth_ms_per_config", "ms"),
    ("accel.qor_ms_per_config", "ms"),
    ("core.step1_s", "s"),
    ("core.step2_eval_s", "s"),
    ("core.step3b_eval_s", "s"),
    ("core.real_evals", "count"),
    ("core.real_eval_ms_per_config", "ms"),
    ("core.step3_search_s", "s"),
    ("core.search_estimates", "count"),
    ("core.estimates_per_s", "1/s"),
    ("core.search_propose_s", "s"),
    ("core.search_insert_s", "s"),
    ("core.step12_cache_hits", "count"),
    ("core.step12_cache_misses", "count"),
    ("core.pseudo_front", "count"),
    ("core.final_front", "count"),
    ("core.unattributed_s", "s"),
    ("ml.fit_s", "s"),
    ("ml.estimate_ns_per_row", "ns"),
    ("store.library_save_s", "s"),
    ("store.library_load_s", "s"),
    ("store.step12_load_s", "s"),
    ("store.lru_hits", "count"),
    ("store.disk_hits", "count"),
    ("store.misses", "count"),
    ("store.saves", "count"),
    ("store.load_p50_us", "us"),
    ("store.save_p50_us", "us"),
    ("exec.bursts", "count"),
    ("exec.burst_p50_us", "us"),
    ("serve.executions", "count"),
    ("serve.dedup_waits", "count"),
    ("serve.result_cache_hits", "count"),
    ("serve.rejections", "count"),
    ("serve.request_p50_us", "us"),
    ("serve.deduped_p50_ms", "ms"),
    ("serve.computed_jobs", "count"),
    ("serve.cached_jobs", "count"),
    ("bench.traced_units", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("share.circuit_pct", "%"),
    ("share.store_pct", "%"),
    ("share.step1_pct", "%"),
    ("share.real_eval_pct", "%"),
    ("share.ml_fit_pct", "%"),
    ("share.search_pct", "%"),
    ("share.serve_pct", "%"),
    ("share.other_pct", "%"),
    ("share.cached_server_pct", "%"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// What a run was asked to do, plus the environment it runs in.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Stream seeds derived from [`Ctx::seed`].
    pub seeds: Seeds,
    /// Measured time; split evenly between an untraced and a traced
    /// phase when [`Ctx::trace`] is set.
    pub seconds: f64,
    /// Per-layer ledger run.
    pub trace: bool,
    /// Worker threads the program may use (at most
    /// `available_parallelism`).
    pub threads: usize,
    /// Scratch directory of this run, inside the checkout.
    pub work: PathBuf,
}

impl Ctx {
    /// The timed phases: `(traced, length)`.
    pub fn phases(&self) -> Vec<(bool, Duration)> {
        if self.trace {
            let half = Duration::from_secs_f64(self.seconds / 2.0);
            vec![(false, half), (true, half)]
        } else {
            vec![(false, Duration::from_secs_f64(self.seconds))]
        }
    }

    /// A fresh, empty directory under the run's scratch directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// How a unit's answer was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// The program computed it.
    Computed,
    /// Waited on an identical running computation.
    Deduped,
    /// Answered from a result cache.
    Cached,
}

impl Served {
    /// Parses the name a served job's `accepted` event carries.
    pub fn parse(s: &str) -> Option<Served> {
        match s {
            "computed" => Some(Served::Computed),
            "deduped" => Some(Served::Deduped),
            "cached" => Some(Served::Cached),
            _ => None,
        }
    }
}

/// One timed unit.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall time, milliseconds.
    pub ms: f64,
    /// How the answer was produced.
    pub served: Served,
}

/// The units of one timed phase and its wall time.
#[derive(Debug, Default)]
pub struct Phase {
    /// Completed units.
    pub samples: Vec<Sample>,
    /// Measured wall time (first unit start to last unit end), seconds.
    pub wall_s: f64,
}

impl Phase {
    fn ms(&self, served: Option<Served>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| served.is_none_or(|c| s.served == c))
            .map(|s| s.ms)
            .collect()
    }
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// The untraced timed phase.
    pub plain: Phase,
    /// The traced timed phase (`--trace 1` only).
    pub traced: Phase,
    /// Units attempted in the timed phases.
    pub attempted: usize,
    /// Units that errored, were refused or returned a wrong result.
    pub failed: usize,
    /// Correctness failures, one line each.
    pub problems: Vec<String>,
    /// Per-layer values by [`PER_LAYER`] name.
    pub layer: BTreeMap<String, f64>,
    /// Report lines.
    pub notes: Vec<String>,
    /// `VmHWM` taken after a fixed amount of work, for a workload whose
    /// memory grows with the units it completes; `None` reads it at exit.
    pub peak_rss_mb: Option<f64>,
}

impl Outcome {
    /// Records a correctness failure of one unit.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    /// Records a correctness failure that is not one unit's (set-up,
    /// accounting).
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Sets a per-layer value.
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layer.insert(name.to_string(), value);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: seeds::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag}: missing value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 120.0) {
                    return Err("--seconds: must lie in (0, 120]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".to_string(), |x| format!("{x:.3}"))
}

/// The end-to-end metrics of the untraced phase.
fn end_to_end(out: &Outcome) -> BTreeMap<&'static str, Option<f64>> {
    let p = &out.plain;
    let mut m = BTreeMap::new();
    m.insert("setup_s", stats::median(&out.setup_s));
    m.insert("latency_p50_ms", stats::median(&p.ms(None)));
    m.insert(
        "throughput_per_s",
        (p.wall_s > 0.0 && !p.samples.is_empty()).then(|| p.samples.len() as f64 / p.wall_s),
    );
    m.insert(
        "peak_rss_mb",
        Some(out.peak_rss_mb.unwrap_or_else(peak_rss_mb)),
    );
    m
}

/// Report lines for the timings the JSON does not carry: the latency
/// tail, the medians per way of serving and the failure share.
fn extra_lines(out: &Outcome) -> Vec<String> {
    let p = &out.plain;
    let all = p.ms(None);
    let tail = match stats::tail_percentile(all.len()) {
        Some(q) => format!(
            "latency_p{q}_ms = {} ms ({} beyond)",
            fmt_opt(stats::percentile(&all, q)),
            stats::beyond(all.len(), q)
        ),
        None => format!(
            "latency tail: n/a (n={}, fewer than {} samples beyond p75)",
            all.len(),
            stats::MIN_BEYOND
        ),
    };
    let mut lines = vec![
        format!(
            "samples: n={} in {:.2} s; first units (ms): {:?}",
            all.len(),
            p.wall_s,
            all.iter().take(8).map(|ms| ms.round()).collect::<Vec<_>>()
        ),
        tail,
    ];
    for (name, served) in [
        ("computed", Served::Computed),
        ("deduped", Served::Deduped),
        ("cached", Served::Cached),
    ] {
        let ms = p.ms(Some(served));
        lines.push(format!(
            "{name}_p50_ms = {} ms (n={})",
            fmt_opt(stats::median(&ms)),
            ms.len()
        ));
    }
    lines.push(format!(
        "failed_frac = {:.4} ({} of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    lines
}

fn json_metrics(values: &[(&str, &str, f64)]) -> String {
    let parts: Vec<String> = values
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload cold_start|explore|served_computed|served_cached --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = autoax_exec::thread_count().min(nproc);
    // Every pool in the process sizes itself from this variable; set it
    // before any of them starts so the load stays within `nproc`.
    std::env::set_var(autoax_exec::THREADS_ENV, threads.to_string());
    let work = std::env::current_dir()
        .expect("current directory is readable")
        .join(".perfbench-work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seeds: Seeds::derive(args.seed),
        seconds: args.seconds,
        trace: args.trace,
        threads,
        work: work.clone(),
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={} threads={} seeds={:?}",
        args.workload, args.seed, args.seconds, args.trace as u8, nproc, threads, ctx.seeds
    );
    let out = match args.workload.as_str() {
        "cold_start" => cold_start::run(&ctx),
        "explore" => explore::run(&ctx),
        "served_computed" => served::run(&ctx, served::Mode::Computed),
        "served_cached" => served::run(&ctx, served::Mode::Cached),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        // Removes the shared parent only when no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    report(&ctx, out);
}

fn report(ctx: &Ctx, mut out: Outcome) {
    for line in &out.notes {
        println!("  {line}");
    }
    println!(
        "setup reps (s): {:?}",
        out.setup_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    let e2e = end_to_end(&out);
    for (name, unit) in END_TO_END {
        println!("{name} = {} {unit}", fmt_opt(e2e[name]));
    }
    for line in extra_lines(&out) {
        println!("{line}");
    }
    if out.plain.samples.is_empty() {
        out.problem("no unit completed in the untraced phase".into());
    }
    let metrics: Vec<(&str, &str, f64)> = if ctx.trace {
        if out.traced.samples.is_empty() {
            out.problem("no unit completed in the traced phase".into());
        }
        let overhead = match (
            stats::median(&out.traced.ms(None)),
            stats::median(&out.plain.ms(None)),
        ) {
            (Some(t), Some(p)) if p > 0.0 => 100.0 * (t / p - 1.0),
            _ => 0.0,
        };
        out.set("bench.trace_overhead_pct", overhead);
        out.set("bench.traced_units", out.traced.samples.len() as f64);
        println!("per-layer ledger (traced phase; times are means per unit):");
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = out.layer.get(name).copied().unwrap_or(0.0);
                println!("  {name} = {v:.6} {unit}");
                (name, unit, v)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = e2e[name].unwrap_or_else(|| {
                    out.problems.push(format!("{name}: no samples"));
                    0.0
                });
                (name, unit, v)
            })
            .collect()
    };
    for p in &out.problems {
        println!("FAILED: {p}");
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct && finite,
        out.attempted.max(1),
        out.failed,
        json_metrics(&metrics)
    );
    if !(correct && finite) {
        std::process::exit(1);
    }
}

/// Runs `unit` back to back until `length` has passed (at least once).
/// Returns the phase wall time in seconds.
pub fn closed_loop(length: Duration, mut unit: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    loop {
        unit();
        if t0.elapsed() >= length {
            return t0.elapsed().as_secs_f64();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = autoax_serve::Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|a| a.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|s| s.as_str()).unwrap().to_string(),
                        m.get("unit").and_then(|s| s.as_str()).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn json_line_formats_every_metric() {
        let s = json_metrics(&[("a", "ms", 1.5), ("b", "s", 0.25)]);
        assert_eq!(
            s,
            r#"{"a": {"value": 1.5, "unit": "ms"}, "b": {"value": 0.25, "unit": "s"}}"#
        );
        assert!(autoax_serve::Json::parse(&s).is_ok());
    }
}
