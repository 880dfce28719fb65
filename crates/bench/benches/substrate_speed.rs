//! Criterion bench of the substrate layers: bit-parallel logic
//! simulation, synthesis-lite, exhaustive characterization, the
//! accelerators' software model and SSIM — the costs that determine every
//! "real analysis" second in the pipeline.

use autoax_accel::accelerator::{Accelerator, CompiledOp, OpSet};
use autoax_accel::sobel::SobelEd;
use autoax_circuit::approx::muls::MulKind;
use autoax_circuit::approx::Behavior;
use autoax_circuit::arith::{array_multiplier, ripple_carry_adder};
use autoax_circuit::charlib::{build_library, CircuitEntry, LibraryConfig};
use autoax_circuit::sim::{eval_binop_batch, exhaustive_outputs};
use autoax_circuit::synth::synthesize;
use autoax_circuit::OpSignature;
use autoax_image::ssim::{ssim, SsimReference};
use autoax_image::synthetic::benchmark_suite;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_simulation(c: &mut Criterion) {
    let add8 = ripple_carry_adder(8);
    let mul8 = array_multiplier(8, 8);
    let mut group = c.benchmark_group("bit_parallel_simulation");
    group.throughput(Throughput::Elements(65_536));
    group.bench_function("add8_exhaustive_65536", |b| {
        b.iter(|| black_box(exhaustive_outputs(black_box(&add8))))
    });
    group.bench_function("mul8_exhaustive_65536", |b| {
        b.iter(|| black_box(exhaustive_outputs(black_box(&mul8))))
    });
    let pairs = autoax_circuit::util::stimulus_pairs(8, 8, 4096, 1);
    group.throughput(Throughput::Elements(4096));
    group.bench_function("mul8_sampled_4096", |b| {
        b.iter(|| black_box(eval_binop_batch(black_box(&mul8), 8, 8, black_box(&pairs))))
    });
    group.finish();
}

fn bench_synthesis(c: &mut Criterion) {
    let mul8 = array_multiplier(8, 8);
    let bam = Behavior::Multiplier {
        wa: 8,
        wb: 8,
        kind: MulKind::Bam { vbl: 8, hbl: 2 },
    }
    .build_netlist();
    let mut group = c.benchmark_group("synthesis_lite");
    group.bench_function("mul8_exact", |b| {
        b.iter(|| black_box(synthesize(black_box(&mul8))))
    });
    group.bench_function("mul8_bam", |b| {
        b.iter(|| black_box(synthesize(black_box(&bam))))
    });
    group.finish();
}

fn bench_ssim(c: &mut Criterion) {
    let imgs = benchmark_suite(2, 384, 256, 9);
    let mut group = c.benchmark_group("qor_metrics");
    group.sample_size(20);
    group.bench_function("ssim_384x256", |b| {
        b.iter(|| black_box(ssim(black_box(&imgs[0]), black_box(&imgs[1]))))
    });
    // The QoR hot path: one compare against a prebuilt golden reference,
    // at the image sizes the quickstart (96×64) and the served jobs
    // (48×32) evaluate.
    for (w, h) in [(96, 64), (48, 32)] {
        let imgs = benchmark_suite(2, w, h, 9);
        let golden = SsimReference::new(&imgs[1]);
        group.bench_function(&format!("ssim_reference_{w}x{h}"), |b| {
            b.iter(|| black_box(golden.ssim(black_box(&imgs[0]))))
        });
    }
    group.finish();
}

/// The QoR side of a real evaluation before SSIM: one Sobel render of a
/// quickstart-sized image under a fixed approximate configuration (the
/// middle entry of every slot's tiny-library class), and the add8 lookup
/// tables an evaluator compiles for the functional-model entries of the
/// tiny library's add8 class.
fn bench_software_model(c: &mut Criterion) {
    let lib = build_library(&LibraryConfig::tiny());
    let sobel = SobelEd::new();
    let entries: Vec<&CircuitEntry> = sobel
        .slots()
        .iter()
        .map(|s| {
            let class = lib.class(s.signature);
            &class[class.len() / 2]
        })
        .collect();
    let ops = OpSet::from_entries(&sobel, &entries);
    let img = benchmark_suite(1, 96, 64, 7).remove(0);
    let mut group = c.benchmark_group("software_model");
    group.throughput(Throughput::Elements(96 * 64));
    group.bench_function("sobel_run_96x64", |b| {
        b.iter(|| black_box(sobel.run(black_box(&img), black_box(&ops), 0)))
    });
    let add8: Vec<&CircuitEntry> = lib
        .class(OpSignature::ADD8)
        .iter()
        .filter(|e| !e.is_exact() && !matches!(e.behavior, Behavior::Raw { .. }))
        .collect();
    group.throughput(Throughput::Elements(add8.len() as u64));
    group.bench_function("add8_lut_compile", |b| {
        b.iter(|| {
            for e in &add8 {
                black_box(CompiledOp::compile(black_box(e)));
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simulation,
    bench_synthesis,
    bench_software_model,
    bench_ssim
);
criterion_main!(benches);
