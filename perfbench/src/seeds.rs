//! Input seeds derived from the one workload seed.
//!
//! The program under test only ever sees generated inputs; every random
//! choice the benchmark makes (images, pipeline sampling, job sequence)
//! comes from [`Seeds::derive`]. The default seed maps to the pinned
//! quickstart inputs, so its `cold_start` front digest is checkable.
//!
//! The component library (`LibraryConfig::tiny()`, seed 42) is the one
//! input the seed does not vary: it
//! stands in for a published, fixed catalogue (the paper downloads
//! EvoApprox8b; the server's catalogue builds one fixed library too), and
//! holding it fixed keeps the amount of characterization work in a
//! `cold_start` unit the same on every seed.

/// The workload seed whose inputs are the quickstart's: image seed 7,
/// pipeline seed 42 (and the tiny library every seed uses).
pub const DEFAULT_SEED: u64 = 0;

/// The quickstart's final-front digest for the default seed.
pub const QUICKSTART_DIGEST: u64 = 0x252e_0c00_c843_33a4;

/// The per-stream seeds of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// `benchmark_suite` seed.
    pub images: u64,
    /// `PipelineOptions::seed`.
    pub pipeline: u64,
    /// Seed of the served job-sequence generator.
    pub jobs: u64,
}

impl Seeds {
    /// Derives every stream seed from the workload seed.
    pub fn derive(seed: u64) -> Seeds {
        let jobs = splitmix64(seed ^ 4);
        if seed == DEFAULT_SEED {
            return Seeds {
                images: 7,
                pipeline: 42,
                jobs,
            };
        }
        Seeds {
            images: splitmix64(seed ^ 2),
            pipeline: splitmix64(seed ^ 3),
            jobs,
        }
    }
}

/// SplitMix64 finalizer: a cheap bijective scrambler.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_reproduces_quickstart_inputs() {
        let s = Seeds::derive(DEFAULT_SEED);
        assert_eq!((s.images, s.pipeline), (7, 42));
    }

    #[test]
    fn other_seeds_give_other_inputs_deterministically() {
        assert_eq!(Seeds::derive(5), Seeds::derive(5));
        assert_ne!(Seeds::derive(5), Seeds::derive(6));
        assert_ne!(Seeds::derive(5).pipeline, 42);
    }
}
