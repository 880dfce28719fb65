//! The served workloads' jobs: seeded job sequences, and the accounting
//! that checks each answer was served the way its workload requires.
//!
//! Neither workload blends kinds of job, so no assumed traffic mix sets
//! a gated figure:
//! - `served_computed`: every job is new and both clients submit it
//!   together. One answer is computed; the other waits on it (deduped),
//!   or, if it arrives after the computation ended, is a result-cache
//!   hit. Either way the pipeline runs exactly once per pair.
//! - `served_cached`: every job is one of a fixed set the set-up already
//!   computed, so every answer is a result-cache hit.

use crate::seeds::splitmix64;
use crate::Served;
use autoax_serve::Json;

/// Catalogue workloads.
pub const WORKLOADS: [&str; 2] = ["sobel", "gaussian"];

/// Catalogue workload of the `served_computed` pairs.
pub const COMPUTED_WORKLOAD: &str = WORKLOADS[0];

/// Strategy and budget of every job (the server's quick defaults).
pub const SEARCH: (&str, usize) = ("hill", 3000);

/// Jobs in the `served_cached` set: [`WORKLOADS`] × this many seeds.
pub const CACHED_SEEDS: u64 = 2;

/// One job descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    /// Catalogue workload name.
    pub workload: &'static str,
    /// Pipeline seed (below 2^53, so it survives a JSON number).
    pub seed: u64,
}

impl Job {
    /// The `POST /jobs` body.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.into())),
            ("strategy".into(), Json::Str(SEARCH.0.into())),
            ("max_evals".into(), Json::Num(SEARCH.1 as f64)),
            ("seed".into(), Json::Num(self.seed as f64)),
        ])
    }
}

/// Job-seed tags: set-up warm-up jobs, the cached set, and the pairs of
/// timed phase `p` (`PAIR_TAG + p`).
const WARMUP_TAG: u64 = 0;
const CACHED_TAG: u64 = 1;
const PAIR_TAG: u64 = 2;

/// Job seeds are `base | tag << 24 | n`: unique by construction.
fn job_seed(jobs_seed: u64, tag: u64, n: u64) -> u64 {
    assert!(n < 1 << 24, "job counter overflow");
    ((jobs_seed & 0xF_FFFF) << 30) | (tag << 24) | n
}

/// The `served_computed` set-up's warm-up jobs: one per workload.
pub fn warmup_jobs(jobs_seed: u64) -> Vec<Job> {
    WORKLOADS
        .iter()
        .enumerate()
        .map(|(i, &workload)| Job {
            workload,
            seed: job_seed(jobs_seed, WARMUP_TAG, i as u64),
        })
        .collect()
}

/// The `served_cached` set, computed in set-up: each workload on
/// [`CACHED_SEEDS`] seeds.
pub fn cached_set(jobs_seed: u64) -> Vec<Job> {
    (0..CACHED_SEEDS)
        .flat_map(|n| {
            WORKLOADS.iter().map(move |&workload| Job {
                workload,
                seed: job_seed(jobs_seed, CACHED_TAG, n),
            })
        })
        .collect()
}

/// Pair `n` of timed phase `phase` in `served_computed`: a job no one
/// has submitted before, the same for both clients.
pub fn pair_job(jobs_seed: u64, phase: u64, n: u64) -> Job {
    Job {
        workload: COMPUTED_WORKLOAD,
        seed: job_seed(jobs_seed, PAIR_TAG + phase, n),
    }
}

/// A `served_cached` client's endless, deterministic choice of jobs
/// from the cached set.
pub struct CachedPlan {
    set: Vec<Job>,
    rng: u64,
}

impl CachedPlan {
    /// The sequence of client `client` in timed phase `phase`.
    pub fn new(jobs_seed: u64, phase: u64, client: u64) -> CachedPlan {
        CachedPlan {
            set: cached_set(jobs_seed),
            rng: splitmix64(jobs_seed ^ (0xC1 + 2 * phase + client)),
        }
    }

    /// The next job.
    pub fn next_job(&mut self) -> Job {
        self.rng = self.rng.wrapping_add(1);
        self.set[(splitmix64(self.rng) % self.set.len() as u64) as usize]
    }
}

/// Answers by how they were served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Answers the engine computed.
    pub computed: usize,
    /// Answers that waited on an identical running computation.
    pub deduped: usize,
    /// Answers from the result cache.
    pub cached: usize,
}

impl Tally {
    /// Counts one answer.
    pub fn record(&mut self, served: Served) {
        match served {
            Served::Computed => self.computed += 1,
            Served::Deduped => self.deduped += 1,
            Served::Cached => self.cached += 1,
        }
    }

    /// Adds another client's tally.
    pub fn merge(&mut self, o: &Tally) {
        self.computed += o.computed;
        self.deduped += o.deduped;
        self.cached += o.cached;
    }

    /// `served_computed`: `pairs` pairs were answered in full, each with
    /// one computation and one answer that did not compute.
    pub fn pairs_exactly_once(&self, pairs: usize) -> bool {
        self.computed == pairs && self.deduped + self.cached == pairs
    }

    /// `served_cached`: every answer came from the result cache.
    pub fn all_cached(&self) -> bool {
        self.computed == 0 && self.deduped == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn take(seed: u64, phase: u64, client: u64, n: usize) -> Vec<Job> {
        let mut p = CachedPlan::new(seed, phase, client);
        (0..n).map(|_| p.next_job()).collect()
    }

    #[test]
    fn sequences_are_a_function_of_the_seed() {
        assert_eq!(take(11, 0, 0, 200), take(11, 0, 0, 200));
        assert_ne!(take(11, 0, 0, 200), take(12, 0, 0, 200));
        assert_ne!(take(11, 0, 0, 200), take(11, 0, 1, 200));
        assert_ne!(take(11, 0, 0, 200), take(11, 1, 0, 200));
        assert_eq!(pair_job(11, 0, 3), pair_job(11, 0, 3));
        assert_ne!(pair_job(11, 0, 3), pair_job(12, 0, 3));
    }

    #[test]
    fn cached_plan_draws_only_from_the_cached_set() {
        let set: HashSet<Job> = cached_set(7).into_iter().collect();
        assert_eq!(set.len(), WORKLOADS.len() * CACHED_SEEDS as usize);
        let drawn: HashSet<Job> = take(7, 1, 0, 400).into_iter().collect();
        assert_eq!(drawn, set, "400 draws reach every job and no other");
    }

    #[test]
    fn pairs_are_new_jobs() {
        let mut seen: HashSet<Job> = warmup_jobs(5).into_iter().collect();
        seen.extend(cached_set(5));
        for phase in 0..2 {
            for n in 0..1000 {
                assert!(seen.insert(pair_job(5, phase, n)));
            }
        }
    }

    #[test]
    fn job_seeds_fit_a_json_number() {
        for job in (0..100)
            .map(|n| pair_job(u64::MAX, 1, n))
            .chain(cached_set(u64::MAX))
        {
            assert!(job.seed < 1 << 53);
            let json = job.to_json().to_string();
            let back = Json::parse(&json).unwrap();
            assert_eq!(
                back.get("seed").and_then(Json::as_usize),
                Some(job.seed as usize)
            );
        }
    }

    #[test]
    fn tally_accounts_each_kind() {
        // Two pairs: one deduped, one whose second answer came late.
        let mut a = Tally::default();
        a.record(Served::Computed);
        a.record(Served::Deduped);
        let mut b = Tally::default();
        b.record(Served::Cached);
        b.record(Served::Computed);
        a.merge(&b);
        assert!(a.pairs_exactly_once(2));
        assert!(!a.pairs_exactly_once(3));
        assert!(!a.all_cached());

        // Both answers of a pair computed: the job ran twice.
        let mut twice = Tally::default();
        twice.record(Served::Computed);
        twice.record(Served::Computed);
        assert!(!twice.pairs_exactly_once(1));

        let mut hits = Tally::default();
        hits.record(Served::Cached);
        hits.record(Served::Cached);
        assert!(hits.all_cached());
        hits.record(Served::Deduped);
        assert!(!hits.all_cached());
    }
}
