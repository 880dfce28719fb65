//! Bringing your own accelerator to the methodology: implement the
//! [`Accelerator`] trait (a lane kernel that evaluates each slot over a
//! whole image row, plus a hardware netlist over named operation slots)
//! and the whole pipeline — profiling, WMED scoring, model training,
//! Algorithm 1 — works unchanged.
//!
//! The example builds a 4-pixel box smoother:
//! `out = (center + right + below + below-right) / 4`
//! with three replaceable adders (2× add8, 1× add9).
//!
//! ```sh
//! cargo run --release --example custom_accelerator
//! ```
//!
//! The same knobs as the other examples apply: `--strategy
//! hill|nsga2|random|uniform|exhaustive` selects the Step-3 search, and
//! `--cache-dir <path>` / `--cache off|read|rw` warm-start the library
//! characterization and the Steps-1/2 artifacts from the persistent
//! store:
//!
//! ```sh
//! cargo run --release --example custom_accelerator -- --strategy nsga2
//! cargo run --release --example custom_accelerator -- --cache-dir .axcache
//! ```

use autoax::pipeline::{run_pipeline, PipelineOptions};
use autoax::SearchAlgo;
use autoax_accel::accelerator::{
    apply_slot, Accelerator, LaneScratch, OpObserver, OpSet, OpSlot, Taps,
};
use autoax_circuit::charlib::LibraryConfig;
use autoax_circuit::netlist::{Bus, Netlist};
use autoax_circuit::OpSignature;
use autoax_image::synthetic::benchmark_suite;
use autoax_store::{load_or_build_library, parse_cache_flags};

/// A 2×2 box smoother with approximable adders.
struct BoxSmoother {
    slots: Vec<OpSlot>,
}

impl BoxSmoother {
    fn new() -> Self {
        BoxSmoother {
            slots: vec![
                OpSlot::new("row0", OpSignature::ADD8),
                OpSlot::new("row1", OpSignature::ADD8),
                OpSlot::new("total", OpSignature::ADD9),
            ],
        }
    }
}

impl Accelerator for BoxSmoother {
    fn name(&self) -> &str {
        "Box smoother"
    }

    fn slots(&self) -> &[OpSlot] {
        &self.slots
    }

    fn kernel(
        &self,
        _mode: usize,
        taps: &Taps<'_>,
        ops: &OpSet,
        obs: &mut dyn OpObserver,
        scratch: &mut LaneScratch,
        out: &mut [u8],
    ) {
        // one call per image row; lane x of taps[4] is the center pixel,
        // taps[5] the right, taps[7] the below and taps[8] the
        // below-right neighbour
        let [s0, s1, t] = scratch.split(out.len());
        apply_slot(ops, obs, 0, taps[4], taps[5], 0x1FF, s0);
        apply_slot(ops, obs, 1, taps[7], taps[8], 0x1FF, s1);
        apply_slot(ops, obs, 2, s0, s1, 0x3FF, t);
        for (o, &v) in out.iter_mut().zip(t.iter()) {
            *o = (v >> 2) as u8;
        }
    }

    fn build_netlist(&self, impls: &[Netlist]) -> Netlist {
        assert_eq!(impls.len(), 3);
        let mut top = Netlist::new("box_smoother");
        let pixels: Vec<Bus> = (0..9).map(|_| top.input_bus(8)).collect();
        let cat = |a: &Bus, b: &Bus| -> Vec<autoax_circuit::NetId> {
            a.iter().chain(b.iter()).copied().collect()
        };
        let s0 = Bus(top.instantiate(&impls[0], &cat(&pixels[4], &pixels[5])));
        let s1 = Bus(top.instantiate(&impls[1], &cat(&pixels[7], &pixels[8])));
        let t = Bus(top.instantiate(&impls[2], &cat(&s0, &s1)));
        // out = t >> 2, 8 bits
        top.push_output_bus(&t.slice(2..10));
        top
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let (cache_dir, cache_mode) = parse_cache_flags(&args);
    let strategy = SearchAlgo::from_args(&args).unwrap_or(SearchAlgo::Hill);

    let lib_out = load_or_build_library(&LibraryConfig::tiny(), cache_dir.as_deref(), cache_mode);
    println!(
        "library: {} characterized circuits ({})",
        lib_out.lib.total_size(),
        if lib_out.cache_hit {
            format!("loaded from cache in {:.1?}", lib_out.load_time)
        } else {
            format!("built in {:.1?}", lib_out.build_time)
        }
    );
    let lib = lib_out.lib;
    let images = benchmark_suite(3, 96, 64, 5);
    let accel = BoxSmoother::new();
    let mut opts = PipelineOptions::quick().with_strategy(strategy);
    opts.cache_dir = cache_dir;
    opts.cache_mode = cache_mode;
    let result = run_pipeline(&accel, &lib, &images, &opts)?;
    println!("strategy: {}", result.timings.search_strategy);
    let t = &result.timings;
    if t.cache_hits > 0 {
        println!(
            "cache: warm start - steps 1-2 skipped, loaded in {:.1?} (hits {}, misses {})",
            t.cache_load, t.cache_hits, t.cache_misses
        );
    } else if t.cache_misses > 0 {
        println!(
            "cache: cold - steps 1-2 computed in {:.1?} (hits {}, misses {})",
            t.step12_compute, t.cache_hits, t.cache_misses
        );
    }
    println!(
        "{}: {} final Pareto configurations",
        accel.name(),
        result.final_front.len()
    );
    println!("  SSIM    area(um2)  energy(fJ)");
    for m in &result.final_front {
        println!("  {:.4}  {:9.1}  {:9.1}", m.qor, m.area, m.energy);
    }
    Ok(())
}
