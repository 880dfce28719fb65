//! Generation and characterization of approximate-component libraries.
//!
//! This module replaces the paper's downloaded libraries (EvoApprox8b,
//! QuAd adders, BAM multipliers). [`build_library`] generates a
//! configurable number of circuits per operation class from the
//! parameterized families in [`crate::approx`], characterizes every
//! circuit exhaustively (operand spaces up to 2^20) or with a large
//! deterministic sample, deduplicates functionally identical candidates
//! and filters out garbage — producing exactly the artifact the autoAx
//! methodology consumes: a set of *fully characterized* black-box circuits
//! per operation.
//!
//! Building a class costs in proportion to the circuits it keeps. The
//! generators over-produce candidates, but [`build_class`] characterizes
//! them in ordered chunks and stops once the class is full; since the
//! keep-loop consumes results in candidate order either way, the library is
//! byte-identical to characterizing every candidate and independent of the
//! chunk length and the worker count.
//!
//! [`ClassCounts::paper`] reproduces the library sizes of Table 2.

use crate::approx::adders::{self, AdderKind};
use crate::approx::cells::FaCell;
use crate::approx::muls::MulKind;
use crate::approx::mutate::mutate_netlist;
use crate::approx::subs::SubKind;
use crate::approx::Behavior;
use crate::error::{ErrorMetrics, ErrorStats};
use crate::netlist::Netlist;
use crate::sim;
use crate::synth::{self, HwReport};
use crate::util::{mask, splitmix64, stimulus_pairs};
use crate::{OpKind, OpSignature};
use autoax_exec::{par_map_coarse, thread_count};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Index of a circuit inside its operation class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CircuitId(pub u32);

/// One fully characterized library circuit.
#[derive(Debug, Clone)]
pub struct CircuitEntry {
    /// Index within the class (0 is always the exact circuit).
    pub id: CircuitId,
    /// The functional/structural description.
    pub behavior: Behavior,
    /// Human-readable family label.
    pub label: String,
    /// Hardware cost after synthesis-lite (isolated circuit).
    pub hw: HwReport,
    /// Error metrics versus the exact function.
    pub err: ErrorMetrics,
}

impl CircuitEntry {
    /// Evaluates the circuit on one operand pair.
    pub fn eval(&self, a: u64, b: u64) -> u64 {
        self.behavior.eval(a, b)
    }

    /// The operation signature of this circuit.
    pub fn signature(&self) -> OpSignature {
        self.behavior.signature()
    }

    /// Rebuilds the circuit netlist (deterministic).
    pub fn build_netlist(&self) -> Netlist {
        self.behavior.build_netlist()
    }

    /// True when this is the accurate implementation.
    pub fn is_exact(&self) -> bool {
        self.err.is_exact()
    }
}

/// Target number of circuits per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassCounts {
    /// 8-bit adders.
    pub add8: usize,
    /// 9-bit adders.
    pub add9: usize,
    /// 16-bit adders.
    pub add16: usize,
    /// 10-bit subtractors.
    pub sub10: usize,
    /// 16-bit subtractors.
    pub sub16: usize,
    /// 8-bit multipliers.
    pub mul8: usize,
}

impl ClassCounts {
    /// The library sizes of the paper's Table 2.
    pub fn paper() -> Self {
        ClassCounts {
            add8: 6979,
            add9: 332,
            add16: 884,
            sub10: 365,
            sub16: 460,
            mul8: 29911,
        }
    }

    /// A laptop-friendly default (~10% of paper scale for the two huge
    /// classes); preserves the relative class sizes.
    pub fn default_scale() -> Self {
        ClassCounts {
            add8: 700,
            add9: 150,
            add16: 250,
            sub10: 150,
            sub16: 180,
            mul8: 1200,
        }
    }

    /// Tiny library for fast unit/integration tests.
    pub fn tiny() -> Self {
        ClassCounts {
            add8: 60,
            add9: 40,
            add16: 50,
            sub10: 40,
            sub16: 40,
            mul8: 70,
        }
    }

    /// Target count for a signature (0 for unknown classes).
    pub fn for_signature(&self, sig: OpSignature) -> usize {
        match sig {
            OpSignature::ADD8 => self.add8,
            OpSignature::ADD9 => self.add9,
            OpSignature::ADD16 => self.add16,
            OpSignature::SUB10 => self.sub10,
            OpSignature::SUB16 => self.sub16,
            OpSignature::MUL8 => self.mul8,
            _ => 0,
        }
    }
}

/// Configuration of the library generator.
#[derive(Debug, Clone)]
pub struct LibraryConfig {
    /// Target class sizes.
    pub counts: ClassCounts,
    /// Master RNG seed; the whole library is a deterministic function of
    /// the configuration.
    pub seed: u64,
    /// Number of sampled operand pairs for classes whose input space is
    /// too large for exhaustive characterization.
    pub char_samples: usize,
    /// Classes with at most this many input bits are characterized
    /// exhaustively.
    pub max_exhaustive_bits: u32,
    /// Candidates whose worst-case error exceeds this fraction of the
    /// class output range are discarded as garbage.
    pub max_wce_frac: f64,
    /// Fraction of the "fill" candidates generated as netlist mutants
    /// (the rest are cell-substitution and segmentation draws).
    pub mutant_frac: f64,
}

impl Default for LibraryConfig {
    fn default() -> Self {
        LibraryConfig {
            counts: ClassCounts::default_scale(),
            seed: 42,
            char_samples: 16384,
            max_exhaustive_bits: 18,
            max_wce_frac: 0.75,
            mutant_frac: 0.15,
        }
    }
}

impl LibraryConfig {
    /// Paper-scale configuration (Table 2 counts).
    pub fn paper() -> Self {
        LibraryConfig {
            counts: ClassCounts::paper(),
            ..Default::default()
        }
    }

    /// Tiny test configuration.
    pub fn tiny() -> Self {
        LibraryConfig {
            counts: ClassCounts::tiny(),
            char_samples: 2048,
            ..Default::default()
        }
    }
}

/// A library of characterized circuits grouped by operation class.
#[derive(Debug, Clone, Default)]
pub struct ComponentLibrary {
    classes: BTreeMap<OpSignature, Vec<CircuitEntry>>,
}

impl ComponentLibrary {
    /// The circuits of one class (empty slice if the class is absent).
    pub fn class(&self, sig: OpSignature) -> &[CircuitEntry] {
        self.classes.get(&sig).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Signatures present in the library.
    pub fn signatures(&self) -> impl Iterator<Item = OpSignature> + '_ {
        self.classes.keys().copied()
    }

    /// Number of circuits in a class.
    pub fn class_size(&self, sig: OpSignature) -> usize {
        self.class(sig).len()
    }

    /// Total number of circuits across all classes.
    pub fn total_size(&self) -> usize {
        self.classes.values().map(Vec::len).sum()
    }

    /// Inserts (replacing) a class.
    pub fn insert_class(&mut self, sig: OpSignature, entries: Vec<CircuitEntry>) {
        self.classes.insert(sig, entries);
    }
}

/// Builds the full six-class library of the paper.
pub fn build_library(cfg: &LibraryConfig) -> ComponentLibrary {
    build_library_timed(cfg, |_, _| {})
}

/// [`build_library`], reporting each class's build time to `on_class` as
/// soon as the class is done.
pub fn build_library_timed(
    cfg: &LibraryConfig,
    mut on_class: impl FnMut(OpSignature, Duration),
) -> ComponentLibrary {
    let mut lib = ComponentLibrary::default();
    for (i, sig) in OpSignature::PAPER_CLASSES.into_iter().enumerate() {
        let count = cfg.counts.for_signature(sig);
        if count == 0 {
            continue;
        }
        let t = Instant::now();
        let entries = build_class(sig, count, cfg, cfg.seed.wrapping_add(i as u64 * 0x9E37));
        on_class(sig, t.elapsed());
        lib.insert_class(sig, entries);
    }
    lib
}

/// Builds and characterizes one class to (up to) `target` circuits.
///
/// The exact circuit is always entry 0. If the family generators plus the
/// seeded fill cannot produce `target` distinct, non-garbage behaviours in
/// eight rounds, the class is returned smaller (never happens at the
/// paper's scales).
///
/// The cost is proportional to the circuits kept, not to the candidates
/// generated: each round is characterized in ordered chunks of the
/// remaining need (at least one per worker thread), and characterization
/// stops as soon as the class is full. Because characterization is pure
/// and the chunks are consumed in candidate order, the kept entries — and
/// the duplicate set, the round seeds and every later round's need — are
/// exactly those of characterizing whole rounds, whatever the chunk
/// length.
pub fn build_class(
    sig: OpSignature,
    target: usize,
    cfg: &LibraryConfig,
    seed: u64,
) -> Vec<CircuitEntry> {
    let workers = thread_count();
    build_class_chunked(sig, target, cfg, seed, |need| need.max(workers))
}

/// [`build_class`] with the chunk length as a function of the remaining
/// need.
fn build_class_chunked(
    sig: OpSignature,
    target: usize,
    cfg: &LibraryConfig,
    seed: u64,
    chunk_len: impl Fn(usize) -> usize,
) -> Vec<CircuitEntry> {
    let mut class = ClassFill {
        target,
        max_wce: cfg.max_wce_frac * sig.output_range(),
        seen: HashSet::new(),
        entries: Vec::with_capacity(target),
    };
    let mut round_seed = seed;

    // Round 0 uses the structured families; later rounds only random fill.
    for round in 0..8 {
        if class.is_full() {
            break;
        }
        let need = class.need();
        let candidates = if round == 0 {
            let mut c = structured_candidates(sig);
            let fill_n = need.saturating_sub(c.len()) + need / 4;
            c.extend(fill_candidates(sig, fill_n, cfg, round_seed));
            c
        } else {
            fill_candidates(sig, need + need / 3 + 8, cfg, round_seed)
        };
        round_seed = round_seed.wrapping_add(0xABCD_EF01);

        let mut rest = candidates.into_iter();
        while !class.is_full() {
            let chunk: Vec<Behavior> = rest.by_ref().take(chunk_len(class.need()).max(1)).collect();
            if chunk.is_empty() {
                break;
            }
            let characterized = par_map_coarse(&chunk, |b| characterize(sig, b, cfg));
            class.keep(chunk.into_iter().zip(characterized));
        }
    }
    debug_assert!(
        class.entries[0].is_exact(),
        "entry 0 must be the exact circuit"
    );
    class.entries
}

/// The growing class of [`build_class`]: its entries so far and the
/// fingerprints of every candidate it has consumed.
struct ClassFill {
    target: usize,
    max_wce: f64,
    seen: HashSet<u64>,
    entries: Vec<CircuitEntry>,
}

impl ClassFill {
    fn is_full(&self) -> bool {
        self.entries.len() >= self.target
    }

    fn need(&self) -> usize {
        self.target - self.entries.len()
    }

    /// Consumes characterized candidates in order, keeping each that is
    /// functionally new and not garbage, until the class is full.
    fn keep(&mut self, characterized: impl IntoIterator<Item = (Behavior, Characterized)>) {
        for (behavior, (err, hw, fingerprint)) in characterized {
            if self.is_full() {
                break;
            }
            if !self.seen.insert(fingerprint) {
                continue; // functional duplicate
            }
            let is_exact_slot = self.entries.is_empty();
            if !is_exact_slot && err.wce as f64 > self.max_wce {
                continue; // garbage
            }
            let label = behavior.label();
            self.entries.push(CircuitEntry {
                id: CircuitId(self.entries.len() as u32),
                behavior,
                label,
                hw,
                err,
            });
        }
    }
}

/// What [`characterize`] measures of one candidate.
type Characterized = (ErrorMetrics, HwReport, u64);

/// Characterizes one behaviour: error metrics, hardware report and a
/// fingerprint for deduplication. The fingerprint combines the functional
/// signature with the rounded area/delay so that functionally identical
/// circuits with different *architectures* (e.g. ripple vs lookahead
/// adders) both survive, as they do in real component libraries.
///
/// Everything goes through the circuit's netlist and the bit-parallel
/// simulator, so characterization also exercises the same structure that
/// hardware analysis sees.
fn characterize(sig: OpSignature, behavior: &Behavior, cfg: &LibraryConfig) -> Characterized {
    let netlist = behavior.build_netlist();
    let (_, hw) = synth::synthesize(&netlist);
    let wa = sig.width_a as u32;
    let mut stats = ErrorStats::new();
    let mut fp: u64 = 0xcbf2_9ce4_8422_2325; // FNV offset basis
    let mut push_fp = |v: u64| {
        fp ^= v;
        fp = fp.wrapping_mul(0x100_0000_01b3);
    };
    if sig.input_bits() <= cfg.max_exhaustive_bits {
        let outs = sim::exhaustive_outputs(&netlist);
        for (v, &raw) in outs.iter().enumerate() {
            let a = v as u64 & mask(wa);
            let b = v as u64 >> wa;
            stats.push(sig.error(a, b, raw), sig.exact(a, b));
            push_fp(raw);
        }
    } else {
        let pairs = stimulus_pairs(
            wa,
            sig.width_b as u32,
            cfg.char_samples,
            0x5EED ^ sig.input_bits() as u64,
        );
        let outs = sim::eval_binop_batch(&netlist, wa, sig.width_b as u32, &pairs);
        for (&(a, b), &raw) in pairs.iter().zip(outs.iter()) {
            stats.push(sig.error(a, b, raw), sig.exact(a, b));
            push_fp(raw);
        }
    }
    push_fp((hw.area * 16.0).round() as u64);
    push_fp((hw.delay * 1024.0).round() as u64);
    (stats.finish(), hw, fp)
}

/// All "named" structured variants of a class, exact first.
fn structured_candidates(sig: OpSignature) -> Vec<Behavior> {
    match sig.kind {
        OpKind::Add => structured_adders(sig.width_a as u32),
        OpKind::Sub => structured_subs(sig.width_a as u32),
        OpKind::Mul => structured_muls(sig.width_a as u32, sig.width_b as u32),
    }
}

fn structured_adders(w: u32) -> Vec<Behavior> {
    let mut out = vec![Behavior::Adder {
        w,
        kind: AdderKind::Exact,
    }];
    let mut push = |kind: AdderKind| {
        out.push(Behavior::Adder { w, kind });
    };
    push(AdderKind::ExactCla);
    for k in 1..w {
        push(AdderKind::TruncZero { k });
        push(AdderKind::TruncPass { k });
        push(AdderKind::Loa { k });
        push(AdderKind::XorLower { k });
    }
    for r in 1..w {
        push(AdderKind::Aca { r });
    }
    for r in 1..=w / 2 {
        for p in 1..=w / 2 {
            if r + p < w {
                push(AdderKind::Gear { r, p });
            }
        }
    }
    // QuAd-style segmentations: enumerate fully up to 9 bits, else defer to
    // the random fill.
    if w <= 9 {
        for segs in adders::segment_compositions(w) {
            for speculate in [false, true] {
                push(AdderKind::Seg {
                    segs: segs.clone(),
                    speculate,
                });
            }
        }
    }
    // Low-k catalog-cell substitutions.
    for k in 1..w {
        for cell in FaCell::approx_fa_catalog() {
            let cells: Arc<[FaCell]> = (0..w)
                .map(|i| if i < k { cell } else { FaCell::EXACT_FA })
                .collect::<Vec<_>>()
                .into();
            push(AdderKind::CellRipple { cells });
        }
    }
    out
}

fn structured_subs(w: u32) -> Vec<Behavior> {
    let mut out = vec![Behavior::Subtractor {
        w,
        kind: SubKind::Exact,
    }];
    let mut push = |kind: SubKind| {
        out.push(Behavior::Subtractor { w, kind });
    };
    for k in 1..w {
        push(SubKind::TruncZero { k });
        push(SubKind::TruncPass { k });
        push(SubKind::XorLower { k });
    }
    if w <= 9 {
        for segs in adders::segment_compositions(w) {
            push(SubKind::Seg { segs });
        }
    }
    for k in 1..w {
        for cell in FaCell::approx_fs_catalog() {
            let cells: Arc<[FaCell]> = (0..w)
                .map(|i| if i < k { cell } else { FaCell::EXACT_FS })
                .collect::<Vec<_>>()
                .into();
            push(SubKind::CellRipple { cells });
        }
    }
    out
}

fn structured_muls(wa: u32, wb: u32) -> Vec<Behavior> {
    let mut out = vec![Behavior::Multiplier {
        wa,
        wb,
        kind: MulKind::Exact,
    }];
    let mut push = |kind: MulKind| {
        out.push(Behavior::Multiplier { wa, wb, kind });
    };
    push(MulKind::ExactWallace);
    for vbl in 0..(wa + wb - 1) {
        for hbl in 0..wb {
            if vbl == 0 && hbl == 0 {
                continue;
            }
            push(MulKind::Bam { vbl, hbl });
        }
    }
    for k in 1..wa {
        push(MulKind::Trunc { k, comp: true });
        // comp: false duplicates Bam { vbl: k, hbl: 0 }; skipped.
    }
    for row_mask in 1..(1u16 << wb.min(8)) {
        if row_mask.count_ones() <= 3 {
            push(MulKind::PerfRows { row_mask });
        }
    }
    if wa == wb && wa.is_power_of_two() && wa >= 4 {
        let n_leaves = (wa / 2) * (wb / 2);
        for l in 0..n_leaves.min(16) {
            push(MulKind::Udm { leaf_mask: 1 << l });
        }
        for k in 2..=n_leaves.min(16) {
            push(MulKind::Udm {
                leaf_mask: (mask(k) & 0xFFFF) as u16,
            });
        }
    }
    // Column-wise catalog-cell substitution.
    for k_cols in 1..(wa + wb - 2) {
        for cell in FaCell::approx_fa_catalog() {
            let cells: Arc<[FaCell]> = (1..wb)
                .flat_map(|i| {
                    (0..wa).map(move |j| {
                        if i + j < k_cols {
                            cell
                        } else {
                            FaCell::EXACT_FA
                        }
                    })
                })
                .collect::<Vec<_>>()
                .into();
            push(MulKind::CellGrid { cells });
        }
    }
    out
}

/// Seeded random candidates used to fill a class up to its target size.
fn fill_candidates(sig: OpSignature, n: usize, cfg: &LibraryConfig, seed: u64) -> Vec<Behavior> {
    let mut st = seed ^ 0x0BAD_5EED;
    let w = sig.width_a as u32;
    // Netlist mutants are only generated for classes whose operand space
    // can be turned into a lookup table (≤ 20 input bits); wider classes
    // would force slow scalar netlist simulation into the software QoR
    // model, and their functional families provide ample diversity.
    let n_mutants = if sig.input_bits() <= 20 {
        (n as f64 * cfg.mutant_frac) as usize
    } else {
        0
    };
    let mut out = Vec::with_capacity(n);
    // Mutants of the exact netlist.
    let base = Behavior::exact_for(sig).build_netlist();
    for _ in 0..n_mutants {
        let n_muts = 1 + (splitmix64(&mut st) % 6) as u32;
        let mutated = mutate_netlist(&base, n_muts, splitmix64(&mut st));
        out.push(Behavior::Raw {
            sig,
            netlist: Arc::new(mutated),
        });
    }
    // Random structured draws for the rest.
    while out.len() < n {
        match sig.kind {
            OpKind::Add => {
                if splitmix64(&mut st) & 1 == 0 {
                    // random cell mix on the low bits
                    let k = 1 + (splitmix64(&mut st) % (w as u64 - 1)) as u32;
                    let catalog = FaCell::approx_fa_catalog();
                    let cells: Arc<[FaCell]> = (0..w)
                        .map(|i| {
                            if i < k {
                                match splitmix64(&mut st) % 3 {
                                    0 => FaCell::random(&mut st),
                                    _ => {
                                        catalog
                                            [(splitmix64(&mut st) % catalog.len() as u64) as usize]
                                    }
                                }
                            } else {
                                FaCell::EXACT_FA
                            }
                        })
                        .collect::<Vec<_>>()
                        .into();
                    out.push(Behavior::Adder {
                        w,
                        kind: AdderKind::CellRipple { cells },
                    });
                } else {
                    // random segmentation
                    let cuts = 1 + splitmix64(&mut st) % (mask(w - 1).max(1));
                    let mut segs = Vec::new();
                    let mut len = 1u8;
                    for pos in 0..w - 1 {
                        if (cuts >> pos) & 1 != 0 {
                            segs.push(len);
                            len = 1;
                        } else {
                            len += 1;
                        }
                    }
                    segs.push(len);
                    out.push(Behavior::Adder {
                        w,
                        kind: AdderKind::Seg {
                            segs,
                            speculate: splitmix64(&mut st) & 1 == 0,
                        },
                    });
                }
            }
            OpKind::Sub => {
                let k = 1 + (splitmix64(&mut st) % (w as u64 - 1)) as u32;
                let catalog = FaCell::approx_fs_catalog();
                let cells: Arc<[FaCell]> = (0..w)
                    .map(|i| {
                        if i < k {
                            match splitmix64(&mut st) % 3 {
                                0 => FaCell::random(&mut st),
                                _ => catalog[(splitmix64(&mut st) % catalog.len() as u64) as usize],
                            }
                        } else {
                            FaCell::EXACT_FS
                        }
                    })
                    .collect::<Vec<_>>()
                    .into();
                out.push(Behavior::Subtractor {
                    w,
                    kind: SubKind::CellRipple { cells },
                });
            }
            OpKind::Mul => {
                let wa = sig.width_a as u32;
                let wb = sig.width_b as u32;
                match splitmix64(&mut st) % 3 {
                    0 if wa == wb && wa.is_power_of_two() => {
                        out.push(Behavior::Multiplier {
                            wa,
                            wb,
                            kind: MulKind::Udm {
                                leaf_mask: (splitmix64(&mut st) & 0xFFFF) as u16,
                            },
                        });
                    }
                    1 => {
                        // random low-column cell substitutions
                        let k_cols = 1 + (splitmix64(&mut st) % (wa + wb - 3) as u64) as u32;
                        let catalog = FaCell::approx_fa_catalog();
                        let cells: Arc<[FaCell]> = (1..wb)
                            .flat_map(|i| {
                                (0..wa)
                                    .map(|j| {
                                        if i + j < k_cols {
                                            match splitmix64(&mut st) % 3 {
                                                0 => FaCell::random(&mut st),
                                                _ => {
                                                    catalog[(splitmix64(&mut st)
                                                        % catalog.len() as u64)
                                                        as usize]
                                                }
                                            }
                                        } else {
                                            FaCell::EXACT_FA
                                        }
                                    })
                                    .collect::<Vec<_>>()
                            })
                            .collect::<Vec<_>>()
                            .into();
                        out.push(Behavior::Multiplier {
                            wa,
                            wb,
                            kind: MulKind::CellGrid { cells },
                        });
                    }
                    _ => {
                        out.push(Behavior::Multiplier {
                            wa,
                            wb,
                            kind: MulKind::PerfRows {
                                row_mask: (1 + splitmix64(&mut st) % mask(wb)) as u16,
                            },
                        });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> LibraryConfig {
        LibraryConfig::tiny()
    }

    /// The characterize-everything build `build_class` replaced, kept as
    /// the oracle for its early stop: every candidate of a round is
    /// characterized before the keep-loop consumes any. Also returns the
    /// number of rounds that ran.
    fn build_class_oracle(
        sig: OpSignature,
        target: usize,
        cfg: &LibraryConfig,
        seed: u64,
    ) -> (Vec<CircuitEntry>, usize) {
        let mut entries: Vec<CircuitEntry> = Vec::with_capacity(target);
        let mut seen: HashSet<u64> = HashSet::new();
        let mut round_seed = seed;
        let mut rounds = 0;

        for round in 0..8 {
            if entries.len() >= target {
                break;
            }
            rounds += 1;
            let need = target - entries.len();
            let candidates = if round == 0 {
                let mut c = structured_candidates(sig);
                let fill_n = need.saturating_sub(c.len()) + need / 4;
                c.extend(fill_candidates(sig, fill_n, cfg, round_seed));
                c
            } else {
                fill_candidates(sig, need + need / 3 + 8, cfg, round_seed)
            };
            round_seed = round_seed.wrapping_add(0xABCD_EF01);

            let characterized = autoax_exec::par_map(&candidates, |b| characterize(sig, b, cfg));
            for (behavior, (err, hw, fingerprint)) in candidates.into_iter().zip(characterized) {
                if entries.len() >= target {
                    break;
                }
                if !seen.insert(fingerprint) {
                    continue;
                }
                let is_exact_slot = entries.is_empty();
                if !is_exact_slot && err.wce as f64 > cfg.max_wce_frac * sig.output_range() {
                    continue;
                }
                let label = behavior.label();
                entries.push(CircuitEntry {
                    id: CircuitId(entries.len() as u32),
                    behavior,
                    label,
                    hw,
                    err,
                });
            }
        }
        (entries, rounds)
    }

    /// Asserts two builds of a class agree entry by entry, floats bitwise.
    fn assert_bitwise_equal(got: &[CircuitEntry], want: &[CircuitEntry], what: &str) {
        let hw_bits = |e: &CircuitEntry| {
            let h = &e.hw;
            let floats = [h.area, h.delay, h.power, h.energy].map(f64::to_bits);
            (floats, h.cells)
        };
        let err_bits = |e: &CircuitEntry| {
            let m = &e.err;
            let floats = [m.mae, m.er, m.mse, m.var_ed, m.mre].map(f64::to_bits);
            (floats, m.wce, m.samples)
        };
        assert_eq!(got.len(), want.len(), "{what}: class size");
        for (g, w) in got.iter().zip(want) {
            let at = format!("{what}, entry {}", w.id.0);
            assert_eq!(g.id, w.id, "{at}: id");
            assert_eq!(g.behavior, w.behavior, "{at}: behavior");
            assert_eq!(g.label, w.label, "{at}: label");
            assert_eq!(hw_bits(g), hw_bits(w), "{at}: hw");
            assert_eq!(err_bits(g), err_bits(w), "{at}: err");
        }
    }

    /// Builds `sig` with the early stop at chunk lengths 1, 7, a whole
    /// round and the runtime rule, and checks each against the oracle.
    /// Returns the number of rounds the oracle ran.
    fn assert_early_stop_matches_oracle(
        sig: OpSignature,
        target: usize,
        cfg: &LibraryConfig,
        seed: u64,
    ) -> usize {
        let (want, rounds) = build_class_oracle(sig, target, cfg, seed);
        for chunk in [1, 7, usize::MAX] {
            let got = build_class_chunked(sig, target, cfg, seed, |_| chunk);
            assert_bitwise_equal(&got, &want, &format!("{sig} seed {seed} chunk {chunk}"));
        }
        let got = build_class(sig, target, cfg, seed);
        assert_bitwise_equal(&got, &want, &format!("{sig} seed {seed} build_class"));
        rounds
    }

    #[test]
    fn early_stop_matches_characterize_everything_at_tiny_sizes() {
        let cfg = tiny_cfg();
        for master in [cfg.seed, 7, 0xDEC0DE] {
            for (i, sig) in OpSignature::PAPER_CLASSES.into_iter().enumerate() {
                let seed = master.wrapping_add(i as u64 * 0x9E37);
                assert_early_stop_matches_oracle(sig, cfg.counts.for_signature(sig), &cfg, seed);
            }
        }
    }

    #[test]
    fn early_stop_matches_characterize_everything_across_fill_rounds() {
        let cfg = LibraryConfig::default();
        let rounds = assert_early_stop_matches_oracle(OpSignature::ADD8, 600, &cfg, cfg.seed);
        assert!(
            rounds >= 2,
            "the case must need a second fill round, ran {rounds}"
        );
    }

    #[test]
    fn build_class_add8_tiny() {
        let cfg = tiny_cfg();
        let entries = build_class(OpSignature::ADD8, 60, &cfg, 1);
        assert_eq!(entries.len(), 60);
        assert!(entries[0].is_exact());
        assert_eq!(entries[0].id, CircuitId(0));
        // ids are consecutive
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.id.0 as usize, i);
            assert_eq!(e.signature(), OpSignature::ADD8);
            assert!(e.hw.area > 0.0);
        }
    }

    #[test]
    fn entries_are_distinct_in_function_or_cost() {
        let cfg = tiny_cfg();
        let entries = build_class(OpSignature::ADD8, 40, &cfg, 2);
        // The dedup fingerprint covers the exhaustive functional signature
        // plus the hardware cost, so no two entries may agree on both
        // (functionally identical architecture variants like ripple vs
        // lookahead are legitimately distinct entries).
        let a: Vec<u32> = (0..65536u32).map(|v| v & 0xFF).collect();
        let b: Vec<u32> = (0..65536u32).map(|v| v >> 8).collect();
        let mut sigs = HashSet::new();
        for e in &entries {
            let mut v = vec![0u32; a.len()];
            e.behavior.eval_into(&a, &b, &mut v);
            v.push((e.hw.area * 16.0).round() as u32);
            v.push((e.hw.delay * 1024.0).round() as u32);
            assert!(sigs.insert(v), "duplicate entry in class: {}", e.label);
        }
    }

    #[test]
    fn architecture_variants_survive_dedup() {
        let cfg = tiny_cfg();
        let entries = build_class(OpSignature::ADD8, 40, &cfg, 2);
        let rca = entries.iter().find(|e| e.label == "add_exact").unwrap();
        let cla = entries.iter().find(|e| e.label == "add_exact_cla").unwrap();
        assert!(cla.is_exact());
        assert!(cla.hw.delay < rca.hw.delay, "CLA must be faster");
        assert!(cla.hw.area > rca.hw.area, "CLA must pay area");
    }

    #[test]
    fn exact_entry_has_highest_area_tendency() {
        // Not strictly maximal, but the exact adder must cost more than the
        // heavily truncated variants.
        let cfg = tiny_cfg();
        let entries = build_class(OpSignature::ADD8, 40, &cfg, 3);
        let exact_area = entries[0].hw.area;
        let trunc = entries
            .iter()
            .find(|e| e.label.contains("trunc0_k7"))
            .expect("trunc k=7 present");
        assert!(trunc.hw.area < exact_area);
        assert!(trunc.err.mae > 0.0);
    }

    #[test]
    fn garbage_filter_respects_wce_bound() {
        let cfg = tiny_cfg();
        for sig in [OpSignature::ADD8, OpSignature::SUB10] {
            let entries = build_class(sig, 40, &cfg, 4);
            for e in &entries[1..] {
                assert!(
                    (e.err.wce as f64) <= cfg.max_wce_frac * sig.output_range(),
                    "{}: wce {} beyond bound",
                    e.label,
                    e.err.wce
                );
            }
        }
    }

    #[test]
    fn build_library_tiny_has_all_classes() {
        let cfg = tiny_cfg();
        let lib = build_library(&cfg);
        for sig in OpSignature::PAPER_CLASSES {
            assert_eq!(
                lib.class_size(sig),
                cfg.counts.for_signature(sig),
                "class {sig}"
            );
            assert!(lib.class(sig)[0].is_exact());
        }
        assert_eq!(lib.total_size(), 60 + 40 + 50 + 40 + 40 + 70);
    }

    #[test]
    fn library_is_deterministic() {
        let cfg = tiny_cfg();
        let l1 = build_class(OpSignature::SUB10, 30, &cfg, 9);
        let l2 = build_class(OpSignature::SUB10, 30, &cfg, 9);
        for (a, b) in l1.iter().zip(l2.iter()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.err.mae, b.err.mae);
            assert_eq!(a.hw.area, b.hw.area);
        }
    }

    #[test]
    fn mul_class_contains_multiple_families() {
        let cfg = tiny_cfg();
        let entries = build_class(OpSignature::MUL8, 70, &cfg, 5);
        let has = |p: &str| entries.iter().any(|e| e.label.contains(p));
        assert!(has("bam"), "expected BAM variants");
        assert!(has("trunc"), "expected truncated variants");
        assert!(entries.len() == 70);
    }

    #[test]
    fn paper_counts_match_table2() {
        let c = ClassCounts::paper();
        assert_eq!(c.add8, 6979);
        assert_eq!(c.add9, 332);
        assert_eq!(c.add16, 884);
        assert_eq!(c.sub10, 365);
        assert_eq!(c.sub16, 460);
        assert_eq!(c.mul8, 29911);
    }

    #[test]
    fn sixteen_bit_classes_use_sampled_characterization() {
        let cfg = tiny_cfg();
        let entries = build_class(OpSignature::ADD16, 20, &cfg, 6);
        for e in &entries {
            assert_eq!(e.err.samples as usize, cfg.char_samples);
        }
    }

    #[test]
    fn eight_bit_class_characterized_exhaustively() {
        let cfg = tiny_cfg();
        let entries = build_class(OpSignature::ADD8, 10, &cfg, 7);
        for e in &entries {
            assert_eq!(e.err.samples, 65536);
        }
    }
}
