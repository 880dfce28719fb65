//! The server-side catalogue of named workloads, component libraries and
//! benchmark sample sets — what a remote job descriptor's `workload` /
//! `library` strings resolve to.
//!
//! Tenants name things; the server owns the content. That keeps the wire
//! format tiny and makes job identity well-defined: within one server,
//! `(workload name, library name, sample-set name)` pins the exact
//! Step-1/2 inputs, so the engine can content-address whole jobs by
//! names + [`autoax::JobSpec`].
//!
//! Heavy artifacts (the characterized library, the benchmark images) are
//! built once per process on first use and shared across jobs. On top of
//! them each registry keeps one [`EvalContext`] per catalogue workload,
//! built on first use: the golden results and Step 1's reduced space,
//! which every job of that workload shares.

use autoax::evaluate::EvalContext;
use autoax::preprocess::PreprocessOptions;
use autoax_accel::gaussian_fixed::FixedGaussian;
use autoax_accel::sobel::SobelEd;
use autoax_accel::Workload;
use autoax_circuit::charlib::{build_library, ComponentLibrary, LibraryConfig};
use autoax_image::synthetic::benchmark_suite;
use autoax_image::GrayImage;
use std::sync::{Arc, OnceLock};

/// A catalogue workload's shared evaluation context.
pub type SharedContext<W> = Arc<EvalContext<'static, W>>;

/// The image workloads the service can run, each with its shared
/// [`EvalContext`] — everything a job needs to run. Both share the
/// [`GrayImage`] sample type, so one registry serves them through one
/// monomorphic pipeline call per variant.
pub enum NamedWorkload {
    /// Sobel edge detection (the paper's first case study).
    Sobel(SharedContext<SobelEd>),
    /// Fixed-coefficient 5×5 Gaussian blur (the paper's second case
    /// study).
    Gaussian(SharedContext<FixedGaussian>),
}

impl NamedWorkload {
    /// The catalogue names, as accepted in job descriptors.
    pub const NAMES: [&'static str; 2] = ["sobel", "gaussian"];
}

impl std::fmt::Debug for NamedWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            NamedWorkload::Sobel(_) => "Sobel",
            NamedWorkload::Gaussian(_) => "Gaussian",
        })
    }
}

/// What a name failed to resolve to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnknownName {
    /// No workload under this name.
    Workload(String),
    /// No library under this name.
    Library(String),
}

impl std::fmt::Display for UnknownName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnknownName::Workload(n) => write!(
                f,
                "unknown workload `{n}` (expected one of {})",
                NamedWorkload::NAMES.join("|")
            ),
            UnknownName::Library(n) => write!(f, "unknown library `{n}` (expected `tiny`)"),
        }
    }
}

impl std::error::Error for UnknownName {}

/// The catalogue. Cheap to construct; the library, images and workload
/// instances live in process-wide lazies, the per-workload contexts in
/// the registry.
///
/// The contexts are per registry rather than process-wide because they
/// depend on the server's preprocessing options. They depend on nothing
/// else a job could change: a [`autoax::JobSpec`] carries no
/// preprocessing field, so every job of a workload runs on the same
/// context, and its result is byte-identical to a standalone
/// `run_pipeline` of the same spec.
#[derive(Default)]
pub struct Registry {
    preprocess: PreprocessOptions,
    sobel: OnceLock<SharedContext<SobelEd>>,
    gaussian: OnceLock<SharedContext<FixedGaussian>>,
}

static TINY_LIB: OnceLock<ComponentLibrary> = OnceLock::new();
static IMAGES: OnceLock<Vec<GrayImage>> = OnceLock::new();
static SOBEL: OnceLock<SobelEd> = OnceLock::new();
static GAUSSIAN: OnceLock<FixedGaussian> = OnceLock::new();

fn tiny_lib() -> &'static ComponentLibrary {
    TINY_LIB.get_or_init(|| build_library(&LibraryConfig::tiny()))
}

fn images() -> &'static [GrayImage] {
    // Small service-tier default: enough texture diversity for
    // meaningful QoR, small enough that a cold job stays in seconds (the
    // quick-test suite size, not the paper's).
    IMAGES.get_or_init(|| benchmark_suite(2, 48, 32, 5))
}

impl Registry {
    /// A registry whose contexts run Step 1 with `preprocess` (the
    /// server's template options).
    pub fn new(preprocess: PreprocessOptions) -> Self {
        Registry {
            preprocess,
            ..Registry::default()
        }
    }

    /// Resolves a `(workload, library)` name pair to the workload with
    /// its shared context (which holds the library and samples).
    ///
    /// # Errors
    /// [`UnknownName`] for the first name that has no catalogue entry.
    pub fn resolve(&self, workload: &str, library: &str) -> Result<NamedWorkload, UnknownName> {
        if !NamedWorkload::NAMES.contains(&workload) {
            return Err(UnknownName::Workload(workload.to_string()));
        }
        if library != "tiny" {
            return Err(UnknownName::Library(library.to_string()));
        }
        Ok(if workload == "sobel" {
            NamedWorkload::Sobel(self.context(&self.sobel, || SOBEL.get_or_init(SobelEd::new)))
        } else {
            NamedWorkload::Gaussian(
                self.context(&self.gaussian, || GAUSSIAN.get_or_init(FixedGaussian::new)),
            )
        })
    }

    /// The context in `slot`, built over `work()` on first use.
    fn context<W: Workload<Sample = GrayImage>>(
        &self,
        slot: &OnceLock<SharedContext<W>>,
        work: impl FnOnce() -> &'static W,
    ) -> SharedContext<W> {
        Arc::clone(slot.get_or_init(|| {
            Arc::new(EvalContext::new(
                work(),
                tiny_lib(),
                images(),
                &self.preprocess,
            ))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_catalogue_names_and_shares_artifacts() {
        let reg = Registry::default();
        let (NamedWorkload::Sobel(a), NamedWorkload::Gaussian(b)) = (
            reg.resolve("sobel", "tiny").unwrap(),
            reg.resolve("gaussian", "tiny").unwrap(),
        ) else {
            panic!("catalogue names resolved to the wrong workloads");
        };
        // One build, shared: both contexts run over the same library and
        // images.
        assert!(std::ptr::eq(a.library(), b.library()));
        assert!(std::ptr::eq(a.samples(), b.samples()));
        // One context per workload: a second resolve aliases the first.
        match reg.resolve("sobel", "tiny").unwrap() {
            NamedWorkload::Sobel(again) => assert!(Arc::ptr_eq(&a, &again)),
            other => panic!("expected Sobel, got {other:?}"),
        }
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let reg = Registry::default();
        assert_eq!(
            reg.resolve("fft", "tiny").unwrap_err(),
            UnknownName::Workload("fft".into())
        );
        assert_eq!(
            reg.resolve("sobel", "huge").unwrap_err(),
            UnknownName::Library("huge".into())
        );
        let msg = reg.resolve("fft", "tiny").unwrap_err().to_string();
        assert!(msg.contains("sobel"), "{msg}");
    }
}
