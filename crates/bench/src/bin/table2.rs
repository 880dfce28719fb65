//! Regenerates **Table 2**: the number of approximate circuits per
//! operation class in the generated library.
//!
//! At `--scale paper` the generator targets the paper's exact counts
//! (6979 / 332 / 884 / 365 / 460 / 29911); smaller scales keep the
//! relative proportions.
//!
//! Also times the build class by class and prints the library digest
//! (FNV-1a-64 of the `encode_library` bytes), which pins the library
//! byte for byte; both go to the `library_build` section of
//! `bench_out/BENCH_pipeline.json`, keyed by scale.
//!
//! ```sh
//! cargo run --release -p autoax-bench --bin table2 -- --scale default
//! ```

use autoax_bench::{write_bench_entry, write_csv, Json, Scale};
use autoax_circuit::charlib::build_library_timed;
use autoax_circuit::OpSignature;
use autoax_store::container::fnv1a64;
use autoax_store::library::encode_library;
use std::time::Instant;

fn main() {
    let scale = Scale::from_args();
    let cfg = scale.library_config();
    println!(
        "Table 2: Approximate circuits included in the library (scale: {})",
        scale.label()
    );
    let mut class_s = Vec::new();
    let t0 = Instant::now();
    let lib = build_library_timed(&cfg, |sig, dt| class_s.push((sig, dt.as_secs_f64())));
    let total_s = t0.elapsed().as_secs_f64();
    println!(
        "{:<10} {:>10} {:>10} {:>10}",
        "instance", "target", "generated", "build_s"
    );
    let mut rows = Vec::new();
    for &(sig, s) in &class_s {
        let target = cfg.counts.for_signature(sig);
        let got = lib.class_size(sig);
        let name = sig.to_string();
        println!("{name:<10} {target:>10} {got:>10} {s:>10.3}");
        assert!(
            got >= target * 95 / 100,
            "{sig}: generated {got} < 95% of target {target}"
        );
        rows.push(vec![
            name,
            target.to_string(),
            got.to_string(),
            format!("{s:.4}"),
        ]);
    }
    println!(
        "total: {} circuits, generated + characterized in {total_s:.3} s",
        lib.total_size()
    );
    // characterization sanity: every entry priced and error-profiled
    for sig in OpSignature::PAPER_CLASSES {
        for e in lib.class(sig) {
            assert!(e.hw.area > 0.0);
            assert!(e.err.samples > 0);
        }
        assert!(lib.class(sig)[0].is_exact());
    }
    let bytes = encode_library(&lib);
    let digest = format!("{:016x}", fnv1a64(&bytes));
    println!(
        "library digest: {digest} ({} bytes, FNV-1a-64 of encode_library)",
        bytes.len()
    );
    write_csv("table2.csv", "class,target,generated,build_s", &rows);
    let classes = class_s
        .iter()
        .map(|&(sig, s)| {
            let target = cfg.counts.for_signature(sig) as u64;
            let rec = Json::Obj(vec![
                ("target".into(), Json::int(target)),
                ("generated".into(), Json::int(lib.class_size(sig) as u64)),
                ("build_s".into(), Json::Num(s)),
            ]);
            (sig.to_string(), rec)
        })
        .collect();
    let threads = autoax_exec::thread_count() as u64;
    write_bench_entry(
        "library_build",
        scale.label(),
        &Json::Obj(vec![
            ("threads".into(), Json::int(threads)),
            ("classes".into(), Json::Obj(classes)),
            ("total_s".into(), Json::Num(total_s)),
            ("circuits".into(), Json::int(lib.total_size() as u64)),
            ("bytes".into(), Json::int(bytes.len() as u64)),
            ("digest".into(), Json::Str(digest)),
        ]),
    );
}
