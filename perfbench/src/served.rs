//! `served_computed` and `served_cached`: the DSE service under a closed
//! loop of two clients. An in-process server (`autoax_serve::spawn`)
//! listens on loopback; each client, on its own connection per job,
//! submits its next job once the NDJSON stream of the previous one has
//! been read. The jobs come from [`crate::jobmix`].
//!
//! `served_computed` is where real evaluation, the ML fit and
//! single-flight dominate, and every job writes to the sharded LRU
//! store. `served_cached` is where only the serve and store layers run:
//! every answer is a result-cache hit.

use crate::dse::write_counters;
use crate::jobmix::{cached_set, pair_job, warmup_jobs, CachedPlan, Job, Tally};
use crate::ledger::{field, pct, Counters, Fold, SpanTree};
use crate::{Ctx, Outcome, Phase, Sample, Served, SETUP_REPS};
use autoax_serve::client::{self, Response};
use autoax_serve::{spawn, EngineStats, ServerConfig, ServerHandle};
use autoax_telemetry as telemetry;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Client threads, one connection each.
const CLIENTS: u64 = 2;

/// `served_computed` reads `peak_rss_mb` once this many pairs are
/// answered: every computed job leaves blobs in the store's memory, so
/// a reading at exit would grow with throughput.
const RSS_AT_PAIRS: usize = 64;

/// Job → the front digest its first answer carried.
type Digests = Mutex<HashMap<Job, String>>;

/// Which of the two served workloads runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Both clients submit the same new job together.
    Computed,
    /// Both clients resubmit jobs the set-up computed.
    Cached,
}

/// Lets the two clients submit a pair's job together, and lets either
/// back out once the other has stopped.
struct Rendezvous {
    /// (a client is waiting, meetings so far, a client has stopped)
    state: Mutex<(bool, u64, bool)>,
    cv: Condvar,
}

impl Rendezvous {
    fn new() -> Rendezvous {
        Rendezvous {
            state: Mutex::new((false, 0, false)),
            cv: Condvar::new(),
        }
    }

    /// Waits for the other client; false once it has stopped.
    fn meet(&self) -> bool {
        let mut s = self.state.lock().expect("rendezvous lock poisoned");
        if s.2 {
            return false;
        }
        if s.0 {
            s.0 = false;
            s.1 += 1;
            self.cv.notify_all();
            return true;
        }
        s.0 = true;
        let meeting = s.1;
        while s.1 == meeting && !s.2 {
            s = self.cv.wait(s).expect("rendezvous lock poisoned");
        }
        s.0 = false;
        s.1 != meeting
    }

    /// Marks this client as stopped.
    fn stop(&self) {
        self.state.lock().expect("rendezvous lock poisoned").2 = true;
        self.cv.notify_all();
    }
}

fn spawn_server(ctx: &Ctx, dir: &Path) -> Result<ServerHandle, String> {
    let mut cfg = ServerConfig::on_loopback(dir);
    // One handler per client connection; a pair's second request must
    // reach the engine while the first still computes.
    cfg.workers = CLIENTS as usize;
    cfg.engine.base.search.threads = ctx.threads;
    spawn(cfg).map_err(|e| format!("spawn: {e}"))
}

/// Submits `job` and checks the answer: status, served kind and digest.
fn submit(addr: SocketAddr, tenant: &str, job: &Job, digests: &Digests) -> Result<Sample, String> {
    let t0 = Instant::now();
    let mut sp = telemetry::span("bench.job");
    let resp = client::submit_job(addr, tenant, &job.to_json());
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let resp: Response = resp.map_err(|e| format!("{job:?}: {e}"))?;
    if let Some(id) = resp.header("x-request-id") {
        sp.field("request_id", id);
    }
    if let Some(s) = resp.served() {
        sp.field("served", s);
    }
    drop(sp);
    if resp.status != 200 {
        return Err(format!(
            "{job:?}: status {} ({})",
            resp.status,
            resp.error().unwrap_or("-")
        ));
    }
    let served = resp
        .served()
        .and_then(Served::parse)
        .ok_or_else(|| format!("{job:?}: no `served` in the accepted event"))?;
    let digest = resp
        .front_digest()
        .ok_or_else(|| format!("{job:?}: stream ended without a `done` digest"))?;
    let mut seen = digests.lock().expect("digest map poisoned");
    let first = seen.entry(*job).or_insert_with(|| digest.to_string());
    if first != digest {
        return Err(format!(
            "{job:?}: {served:?} answer digest {digest} != earlier {first}"
        ));
    }
    Ok(Sample { ms, served })
}

/// One client's share of a phase.
#[derive(Default)]
struct ClientRun {
    samples: Vec<Sample>,
    tally: Tally,
    attempted: usize,
    failures: Vec<String>,
    /// `VmHWM` at the [`RSS_AT_PAIRS`]-th answer.
    rss_mb: Option<f64>,
}

/// Runs one client until `deadline`. In [`Mode::Computed`] the client
/// meets the other before each pair; a cached-mode answer must be a
/// result-cache hit.
fn client_loop(
    addr: SocketAddr,
    mode: Mode,
    (jobs_seed, phase, client): (u64, u64, u64),
    deadline: Instant,
    rv: &Rendezvous,
    digests: &Digests,
) -> ClientRun {
    let tenant = format!("client-{client}");
    let mut plan = CachedPlan::new(jobs_seed, phase, client);
    let mut run = ClientRun::default();
    let mut pairs = 0;
    while Instant::now() < deadline {
        let job = match mode {
            Mode::Computed => {
                if !rv.meet() {
                    break;
                }
                pairs += 1;
                pair_job(jobs_seed, phase, pairs - 1)
            }
            Mode::Cached => plan.next_job(),
        };
        run.attempted += 1;
        match submit(addr, &tenant, &job, digests) {
            Ok(s) => {
                run.tally.record(s.served);
                if mode == Mode::Cached && s.served != Served::Cached {
                    run.failures
                        .push(format!("{job:?} answered {:?}", s.served));
                } else {
                    run.samples.push(s);
                }
                if run.samples.len() == RSS_AT_PAIRS {
                    run.rss_mb = Some(crate::peak_rss_mb());
                }
            }
            Err(e) => run.failures.push(e),
        }
    }
    rv.stop();
    run
}

/// Runs one timed phase of both clients. Returns the phase, the merged
/// tally and the client runs.
fn phase(
    addr: SocketAddr,
    mode: Mode,
    jobs_seed: u64,
    index: u64,
    length: Duration,
    digests: &Digests,
) -> (Phase, Tally, Vec<ClientRun>) {
    let rv = Rendezvous::new();
    let t0 = Instant::now();
    let deadline = t0 + length;
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let rv = &rv;
                s.spawn(move || {
                    client_loop(addr, mode, (jobs_seed, index, c), deadline, rv, digests)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let mut samples = Vec::new();
    for r in &runs {
        tally.merge(&r.tally);
        samples.extend_from_slice(&r.samples);
    }
    (Phase { samples, wall_s }, tally, runs)
}

fn delta(a: EngineStats, b: EngineStats) -> (u64, u64, u64) {
    (
        a.executions - b.executions,
        a.dedup_waits - b.dedup_waits,
        a.result_cache_hits - b.result_cache_hits,
    )
}

/// Runs the workload.
pub fn run(ctx: &Ctx, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    let digests: Digests = Mutex::new(HashMap::new());
    let jobs_seed = ctx.seeds.jobs;
    let setup_jobs = match mode {
        Mode::Computed => warmup_jobs(jobs_seed),
        Mode::Cached => cached_set(jobs_seed),
    };
    let mut server: Option<ServerHandle> = None;
    // Set-up: a server over an empty store, then the set-up jobs. The
    // first set-up also pays the server's one-time catalogue build
    // (library and images, built once per process).
    for rep in 0..SETUP_REPS {
        if let Some(old) = server.take() {
            old.stop();
        }
        let t0 = Instant::now();
        let dir = ctx.fresh_dir(&format!("setup-{rep}"));
        let s = match spawn_server(ctx, &dir) {
            Ok(s) => s,
            Err(e) => {
                out.problem(e);
                return out;
            }
        };
        for job in &setup_jobs {
            match submit(s.addr(), "setup", job, &digests) {
                Ok(a) if a.served == Served::Computed => {}
                Ok(a) => out.problem(format!("set-up {rep}: {job:?} answered {:?}", a.served)),
                Err(e) => out.problem(format!("set-up {rep}: {e}")),
            }
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr();
    let engine = std::sync::Arc::clone(server.engine());
    let start = engine.stats();
    let mut total = Tally::default();
    let mut pairs = 0;

    for (index, (traced, length)) in ctx.phases().into_iter().enumerate() {
        telemetry::set_tracing(traced);
        let before = (engine.stats(), Counters::read());
        let (ph, tally, runs) = phase(addr, mode, jobs_seed, index as u64, length, &digests);
        telemetry::set_tracing(false);
        // A pair counts once both of its answers are in; a client that
        // stopped first leaves the other's last job unpaired.
        let answered: Vec<usize> = runs.iter().map(|r| r.samples.len()).collect();
        let phase_pairs = answered.iter().copied().min().unwrap_or(0);
        if mode == Mode::Computed && !traced {
            out.peak_rss_mb = runs.iter().filter_map(|r| r.rss_mb).reduce(f64::max);
            if out.peak_rss_mb.is_none() {
                out.notes.push(format!(
                    "peak_rss_mb read at exit: fewer than {RSS_AT_PAIRS} pairs answered"
                ));
            }
        }
        for r in runs {
            out.attempted += r.attempted;
            for f in r.failures {
                out.fail(f);
            }
        }
        if mode == Mode::Computed && answered.iter().any(|&n| n != phase_pairs) {
            out.problem(format!(
                "phase {index}: unequal answers per client {answered:?}"
            ));
        }
        pairs += phase_pairs;
        total.merge(&tally);
        if traced {
            let (executions, dedups, hits) = delta(engine.stats(), before.0);
            out.set("serve.executions", executions as f64);
            out.set("serve.dedup_waits", dedups as f64);
            out.set("serve.result_cache_hits", hits as f64);
            write_counters(&mut out, Counters::read().since(&before.1));
            traced_ledger(&mut out, &ph, &SpanTree::take());
            out.traced = ph;
        } else {
            out.plain = ph;
        }
    }
    out.set(
        "serve.request_p50_us",
        crate::ledger::hist_p50_us("autoax_serve_request_ns", &[("route", "/jobs")]),
    );
    let (executions, dedups, hits) = delta(engine.stats(), start);
    server.stop();

    out.notes.push(format!(
        "answers: computed {} / deduped {} / cached {}; engine: executions {executions}, dedup waits {dedups}, result-cache hits {hits}",
        total.computed, total.deduped, total.cached
    ));
    // The engine's counters must equal what the clients saw, and the
    // plan fixes how many computations that may be: exactly once.
    let seen = (total.computed, total.deduped, total.cached);
    if seen != (executions as usize, dedups as usize, hits as usize) {
        out.problem(format!(
            "engine counters ({executions}, {dedups}, {hits}) != answers {seen:?}"
        ));
    }
    match mode {
        Mode::Computed => {
            out.notes.push(format!(
                "{pairs} pairs of `{}` jobs; {} second answers arrived after the computation (cached)",
                crate::jobmix::COMPUTED_WORKLOAD,
                total.cached
            ));
            if !total.pairs_exactly_once(pairs) {
                out.problem(format!("{pairs} pairs: not one computation per pair"));
            }
        }
        Mode::Cached => {
            out.notes.push(format!(
                "cached set: {} jobs computed in set-up",
                setup_jobs.len()
            ));
            if !total.all_cached() {
                out.problem("a cached-set job was not a result-cache hit".into());
            }
        }
    }
    out
}

/// Layer shares of computed and cached jobs from the span tree, plus the
/// pipeline stage means over computed jobs.
fn traced_ledger(out: &mut Outcome, ph: &Phase, tree: &SpanTree) {
    let (mut computed, mut cached) = (Fold::default(), Fold::default());
    let (mut computed_wall, mut cached_wall) = (0.0, 0.0);
    let (mut n_computed, mut n_cached) = (0usize, 0usize);
    for root in tree.roots("bench.job") {
        let wall = tree.span(root).dur_ns as f64 * 1e-9;
        match field(tree.span(root), "served") {
            Some("computed") => {
                computed.add(&tree.fold(root));
                computed_wall += wall;
                n_computed += 1;
            }
            Some("cached") => {
                cached.add(&tree.fold(root));
                cached_wall += wall;
                n_cached += 1;
            }
            _ => {}
        }
    }
    let n = n_computed.max(1) as f64;
    let mean = |name: &str| computed.total(name) / n;
    out.set("core.step1_s", mean("pipeline.step1.preprocess"));
    out.set("core.step2_eval_s", mean("pipeline.step2.training_data"));
    out.set("ml.fit_s", mean("pipeline.step2.fit"));
    out.set("core.step3_search_s", mean("pipeline.step3.search"));
    out.set("core.step3b_eval_s", mean("pipeline.step3b.final_eval"));
    out.set("store.step12_load_s", mean("pipeline.cache.load_step12"));
    out.set(
        "core.unattributed_s",
        computed.self_s.get("other").copied().unwrap_or(0.0) / n,
    );
    computed.write_shares(computed_wall, out);
    // A cached job runs no pipeline: its wall splits into the server's
    // `serve.job` span (result-cache lookup and decode) and the
    // connection, HTTP and streaming around it.
    out.set(
        "share.cached_server_pct",
        pct(cached.total("serve.job"), cached_wall),
    );
    out.set("serve.computed_jobs", n_computed as f64);
    out.set("serve.cached_jobs", n_cached as f64);
    let deduped: Vec<f64> = ph
        .samples
        .iter()
        .filter(|s| s.served == Served::Deduped)
        .map(|s| s.ms)
        .collect();
    out.set(
        "serve.deduped_p50_ms",
        crate::stats::median(&deduped).unwrap_or(0.0),
    );
    out.notes.push(format!(
        "span tree: {n_computed} computed and {n_cached} cached job roots (shares: computed jobs; share.cached_server_pct: cached jobs)"
    ));
}
