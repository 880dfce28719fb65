//! The [`Accelerator`] abstraction: a hierarchical design whose arithmetic
//! operations ("slots") can be replaced by approximate circuits — the
//! "hierarchical hardware as well as software models" the methodology
//! requires from the user (paper Section 2.1).

use autoax_circuit::approx::Behavior;
use autoax_circuit::sim::exhaustive_outputs;
use autoax_circuit::{CircuitEntry, Netlist, OpSignature};
use autoax_image::ssim::SsimReference;
use autoax_image::GrayImage;
use std::sync::Arc;

/// One replaceable operation of an accelerator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSlot {
    /// Slot name as used in the paper (e.g. `add1`, `sub`).
    pub name: String,
    /// The operation class the slot draws implementations from.
    pub signature: OpSignature,
}

impl OpSlot {
    /// Creates a slot.
    pub fn new(name: impl Into<String>, signature: OpSignature) -> Self {
        OpSlot {
            name: name.into(),
            signature,
        }
    }
}

/// A compiled, fast-callable implementation of one slot.
///
/// Lookup tables are built for every non-exact circuit whose operand space
/// fits in 2^16 assignments (and for netlist mutants up to 2^20, where
/// simulation would otherwise dominate the software model); everything
/// else evaluates through the circuit's functional model. Every variant
/// masks operand bits above the slot's widths.
#[derive(Debug, Clone)]
pub enum CompiledOp {
    /// The accurate operation (native integer arithmetic).
    Exact(OpSignature),
    /// Tabulated circuit: `table[b << wa | a]`.
    Lut {
        /// Width of operand a (table index stride).
        wa: u32,
        /// Output table, one entry per operand assignment; its length is
        /// `2^(wa + wb)`, so `len - 1` masks an index to the operand widths.
        table: Arc<Vec<u16>>,
    },
    /// Direct functional evaluation.
    Func(Behavior),
}

/// Lanes per batch when tabulating a functional model.
const LUT_CHUNK: usize = 1024;

impl CompiledOp {
    /// Compiles a library circuit into its fastest evaluable form.
    pub fn compile(entry: &CircuitEntry) -> CompiledOp {
        let sig = entry.signature();
        if entry.is_exact() {
            return CompiledOp::Exact(sig);
        }
        let bits = sig.input_bits();
        let lut_worthwhile = match &entry.behavior {
            Behavior::Raw { .. } => bits <= 20,
            _ => bits <= 16,
        };
        if !lut_worthwhile {
            return CompiledOp::Func(entry.behavior.clone());
        }
        debug_assert!(sig.output_width() <= 16, "LUT output must fit u16");
        let wa = sig.width_a as u32;
        let table = match &entry.behavior {
            Behavior::Raw { netlist, .. } => exhaustive_outputs(netlist)
                .into_iter()
                .map(|v| v as u16)
                .collect(),
            other => {
                // index v = b << wa | a, evaluated LUT_CHUNK lanes at a time
                let ma = autoax_circuit::util::mask(wa) as u32;
                let total = 1u32 << bits;
                let mut table = Vec::with_capacity(total as usize);
                let (mut a, mut b, mut out) =
                    ([0u32; LUT_CHUNK], [0u32; LUT_CHUNK], [0u32; LUT_CHUNK]);
                for start in (0..total).step_by(LUT_CHUNK) {
                    let n = LUT_CHUNK.min((total - start) as usize);
                    for ((a, b), v) in a[..n].iter_mut().zip(&mut b[..n]).zip(start..) {
                        (*a, *b) = (v & ma, v >> wa);
                    }
                    other.eval_into(&a[..n], &b[..n], &mut out[..n]);
                    table.extend(out[..n].iter().map(|&v| v as u16));
                }
                table
            }
        };
        CompiledOp::Lut {
            wa,
            table: Arc::new(table),
        }
    }

    /// Evaluates the operation on one operand pair.
    #[inline]
    pub fn eval(&self, a: u64, b: u64) -> u64 {
        match self {
            CompiledOp::Exact(sig) => sig.exact(a, b),
            CompiledOp::Lut { wa, table } => {
                let a = a & autoax_circuit::util::mask(*wa);
                table[((b << wa) | a) as usize & (table.len() - 1)] as u64
            }
            CompiledOp::Func(b_) => b_.eval(a, b),
        }
    }

    /// Evaluates the operation over lanes: `out[i] = eval(a[i], b[i])`,
    /// with one dispatch per batch.
    ///
    /// # Panics
    /// Panics if the three slices differ in length.
    pub(crate) fn eval_into(&self, a: &[u32], b: &[u32], out: &mut [u32]) {
        assert!(
            a.len() == out.len() && b.len() == out.len(),
            "lane count mismatch"
        );
        match self {
            CompiledOp::Exact(sig) => sig.exact_into(a, b, out),
            CompiledOp::Lut { wa, table } => {
                let ma = autoax_circuit::util::mask(*wa) as usize;
                let index_mask = table.len() - 1;
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    let i = (((y as usize) << wa) | (x as usize & ma)) & index_mask;
                    *o = table[i] as u32;
                }
            }
            CompiledOp::Func(behavior) => behavior.eval_into(a, b, out),
        }
    }
}

/// The per-slot implementations for one configuration.
#[derive(Debug, Clone)]
pub struct OpSet {
    ops: Vec<CompiledOp>,
}

impl OpSet {
    /// Builds from pre-compiled ops (must match the accelerator's slots).
    pub fn new(ops: Vec<CompiledOp>) -> Self {
        OpSet { ops }
    }

    /// The all-exact configuration for an accelerator.
    pub fn exact(accel: &dyn Accelerator) -> Self {
        Self::exact_slots(accel.slots())
    }

    /// The all-exact op set for a slot list.
    pub fn exact_slots(slots: &[OpSlot]) -> Self {
        OpSet {
            ops: slots
                .iter()
                .map(|s| CompiledOp::Exact(s.signature))
                .collect(),
        }
    }

    /// Compiles a configuration given one library entry per slot.
    ///
    /// # Panics
    /// Panics if an entry's signature does not match its slot.
    pub fn from_entries(accel: &dyn Accelerator, entries: &[&CircuitEntry]) -> Self {
        assert_eq!(entries.len(), accel.slots().len(), "one entry per slot");
        for (slot, e) in accel.slots().iter().zip(entries.iter()) {
            assert_eq!(
                slot.signature,
                e.signature(),
                "slot {} expects {}, got {}",
                slot.name,
                slot.signature,
                e.signature()
            );
        }
        OpSet {
            ops: entries.iter().map(|e| CompiledOp::compile(e)).collect(),
        }
    }

    /// Number of slots covered.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no ops are present.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Evaluates slot `i` on one operand pair.
    #[inline]
    pub fn apply(&self, slot: usize, a: u64, b: u64) -> u64 {
        self.ops[slot].eval(a, b)
    }

    /// Evaluates slot `i` over lanes (see [`CompiledOp::eval_into`]).
    #[inline]
    pub(crate) fn apply_into(&self, slot: usize, a: &[u32], b: &[u32], out: &mut [u32]) {
        self.ops[slot].eval_into(a, b, out)
    }
}

/// Observer invoked by the software model on every operation execution.
///
/// The profiler uses this to collect operand PMFs; QoR evaluation passes
/// [`NoRecord`].
pub trait OpObserver {
    /// Called with the slot index and its operand lanes before
    /// evaluation: lane `i` is the pair `(a[i], b[i])`.
    fn record(&mut self, slot: usize, a: &[u32], b: &[u32]);
}

/// An [`OpObserver`] that does nothing (zero-cost in the hot path).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoRecord;

impl OpObserver for NoRecord {
    #[inline]
    fn record(&mut self, _slot: usize, _a: &[u32], _b: &[u32]) {}
}

/// One slot of a lane kernel: reports the operand lanes to `obs`,
/// evaluates slot `slot` of `ops` into `out`, and keeps the low bits
/// `keep` of every lane — the exact glue that routes a result into the
/// next operation's width.
#[inline]
pub fn apply_slot(
    ops: &OpSet,
    obs: &mut dyn OpObserver,
    slot: usize,
    a: &[u32],
    b: &[u32],
    keep: u32,
    out: &mut [u32],
) {
    obs.record(slot, a, b);
    ops.apply_into(slot, a, b, out);
    out.iter_mut().for_each(|v| *v &= keep);
}

/// Wired-shift glue over lanes: `out[i] = (src[i] << shift) & keep`.
#[inline]
pub(crate) fn shift_lanes(src: &[u32], shift: u32, keep: u32, out: &mut [u32]) {
    for (o, &v) in out.iter_mut().zip(src) {
        *o = (v << shift) & keep;
    }
}

/// The nine neighbourhood tap vectors of one image row, row-major:
/// `taps[3 * dy + dx][x]` is the pixel at `(x + dx - 1, y + dy - 1)`,
/// with replicated-edge borders.
pub type Taps<'a> = [&'a [u32]; 9];

/// An image widened to `u32` lanes with a replicated border column on
/// each side: the row walker's input, built once per image and shared by
/// every mode rendered from it.
#[derive(Debug)]
pub(crate) struct TapPlane {
    width: usize,
    height: usize,
    /// `height` rows of `width + 2` lanes.
    data: Vec<u32>,
}

impl TapPlane {
    /// Widens an image.
    pub fn new(img: &GrayImage) -> Self {
        let (width, height) = (img.width(), img.height());
        let mut data = Vec::with_capacity(height * (width + 2));
        for row in img.data().chunks_exact(width) {
            data.push(row[0] as u32);
            data.extend(row.iter().map(|&p| p as u32));
            data.push(row[width - 1] as u32);
        }
        TapPlane {
            width,
            height,
            data,
        }
    }

    /// Image width (lanes per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The nine tap vectors of output row `y` (rows clamped at the top
    /// and bottom edges).
    pub fn taps(&self, y: usize) -> Taps<'_> {
        let stride = self.width + 2;
        let rows = [y.saturating_sub(1), y, (y + 1).min(self.height - 1)];
        std::array::from_fn(|i| {
            let start = rows[i / 3] * stride + i % 3;
            &self.data[start..start + self.width]
        })
    }
}

/// Reusable lane buffers for a kernel's intermediate values, grown on
/// demand and kept across rows, modes and images.
#[derive(Debug, Default, Clone)]
pub struct LaneScratch(Vec<u32>);

impl LaneScratch {
    /// `N` disjoint buffers of `lanes` lanes each. Their contents are
    /// whatever the previous row left; kernels write before they read.
    pub fn split<const N: usize>(&mut self, lanes: usize) -> [&mut [u32]; N] {
        if self.0.len() < N * lanes {
            self.0.resize(N * lanes, 0);
        }
        let mut rest = &mut self.0[..N * lanes];
        std::array::from_fn(|_| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(lanes);
            rest = tail;
            head
        })
    }
}

/// The row walker behind [`Accelerator::run`], [`Accelerator::qor`] and
/// the operand profiler: renders mode `mode` of `accel` over `plane` into
/// `out`, one lane-kernel call per row, reporting operands to `obs`.
///
/// # Panics
/// Panics if `out` and `plane` differ in size.
pub(crate) fn render<A: Accelerator + ?Sized>(
    accel: &A,
    plane: &TapPlane,
    mode: usize,
    ops: &OpSet,
    obs: &mut dyn OpObserver,
    scratch: &mut LaneScratch,
    out: &mut GrayImage,
) {
    assert_eq!(
        (out.width(), out.height()),
        (plane.width(), plane.height()),
        "output size mismatch"
    );
    let width = plane.width();
    for (y, row) in out.data_mut().chunks_exact_mut(width).enumerate() {
        accel.kernel(mode, &plane.taps(y), ops, obs, scratch, row);
    }
}

/// A hierarchical accelerator: software model + hardware netlist over a
/// set of replaceable operation slots.
///
/// All three paper accelerators consume a 3×3 pixel neighbourhood per
/// output pixel. `mode` selects among behavioural variants of the same
/// hardware — the generic Gaussian filter evaluates one mode per kernel
/// coefficient set; the other accelerators have a single mode.
pub trait Accelerator: Send + Sync {
    /// Accelerator name as used in the paper.
    fn name(&self) -> &str;

    /// The replaceable operation slots, in evaluation order.
    fn slots(&self) -> &[OpSlot];

    /// Number of behavioural modes (kernel sets); defaults to 1.
    fn mode_count(&self) -> usize {
        1
    }

    /// The software model over one image row: computes `out[x]` from the
    /// neighbourhood taps (lane `x` of each `taps[k]`), evaluating every
    /// slot once over the whole row through `ops` (see [`apply_slot`])
    /// and reporting each slot's operand lanes to `obs`.
    ///
    /// `scratch` provides intermediate lane buffers
    /// ([`LaneScratch::split`] with `out.len()` lanes).
    fn kernel(
        &self,
        mode: usize,
        taps: &Taps<'_>,
        ops: &OpSet,
        obs: &mut dyn OpObserver,
        scratch: &mut LaneScratch,
        out: &mut [u8],
    );

    /// Builds the flat hardware netlist with the given component netlists
    /// (one per slot, in slot order).
    fn build_netlist(&self, impls: &[Netlist]) -> Netlist;

    /// Runs the software model over a whole image.
    fn run(&self, img: &GrayImage, ops: &OpSet, mode: usize) -> GrayImage {
        let mut out = GrayImage::new(img.width(), img.height());
        let plane = TapPlane::new(img);
        render(
            self,
            &plane,
            mode,
            ops,
            &mut NoRecord,
            &mut LaneScratch::default(),
            &mut out,
        );
        out
    }

    /// Golden outputs: the software model with all-exact operations, for
    /// every mode.
    fn run_exact(&self, img: &GrayImage) -> Vec<GrayImage> {
        let exact = OpSet::exact_slots(self.slots());
        let plane = TapPlane::new(img);
        let mut scratch = LaneScratch::default();
        (0..self.mode_count())
            .map(|m| {
                let mut out = GrayImage::new(img.width(), img.height());
                render(
                    self,
                    &plane,
                    m,
                    &exact,
                    &mut NoRecord,
                    &mut scratch,
                    &mut out,
                );
                out
            })
            .collect()
    }

    /// Quality of result: mean SSIM of the approximate outputs against the
    /// exact outputs over all images and modes (the paper's QoR measure;
    /// for the generic GF this is the "average SSIM" over 50 kernels).
    ///
    /// Deliberately sequential: on the hot path this runs *under* the
    /// parallel `evaluate_batch` (one task per configuration), so nesting
    /// another fan-out here would oversubscribe the workers.
    fn qor(&self, images: &[GrayImage], golden: &[Vec<SsimReference>], ops: &OpSet) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        let mut scratch = LaneScratch::default();
        for (img, gold) in images.iter().zip(golden.iter()) {
            let plane = TapPlane::new(img);
            let mut out = GrayImage::new(img.width(), img.height());
            for (mode, g) in gold.iter().enumerate() {
                render(
                    self,
                    &plane,
                    mode,
                    ops,
                    &mut NoRecord,
                    &mut scratch,
                    &mut out,
                );
                sum += g.ssim(&out);
                n += 1;
            }
        }
        assert!(n > 0, "qor needs at least one image and mode");
        sum / n as f64
    }

    /// Precomputes the golden side of [`Accelerator::qor`]: every mode's
    /// exact output with its SSIM statistics, one parallel task per image
    /// (coarse-grained: a task renders every mode of a whole image).
    fn golden(&self, images: &[GrayImage]) -> Vec<Vec<SsimReference>> {
        autoax_exec::par_map_coarse(images, |img| {
            self.run_exact(img).iter().map(SsimReference::new).collect()
        })
    }
}

/// The per-pixel software model that preceded the lane kernels, kept as
/// the oracle the lane model is tested against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// One neighbourhood's output through the old scalar model; `record`
    /// sees every `(slot, a, b)` before its evaluation.
    pub(crate) type PixelModel<'a> =
        dyn Fn(usize, &[u8; 9], &OpSet, &mut dyn FnMut(usize, u64, u64)) -> u8 + 'a;

    /// The clamped 3×3 neighbourhood of `(x, y)`, row-major.
    pub(crate) fn neighbourhood(img: &GrayImage, x: usize, y: usize) -> [u8; 9] {
        let mut n = [0u8; 9];
        for dy in -1..=1isize {
            for dx in -1..=1isize {
                n[(3 * (dy + 1) + dx + 1) as usize] =
                    img.get_clamped(x as isize + dx, y as isize + dy);
            }
        }
        n
    }

    /// The old `Accelerator::run`: one model call per pixel.
    pub(crate) fn run(
        img: &GrayImage,
        mode: usize,
        ops: &OpSet,
        model: &PixelModel<'_>,
    ) -> GrayImage {
        GrayImage::from_fn(img.width(), img.height(), |x, y| {
            model(mode, &neighbourhood(img, x, y), ops, &mut |_, _, _| {})
        })
    }

    /// `n` uniformly random neighbourhoods from a fixed seed.
    pub(crate) fn random_hoods(n: usize, seed: u64) -> Vec<[u8; 9]> {
        let mut st = seed;
        (0..n)
            .map(|_| {
                std::array::from_fn(|_| (autoax_circuit::util::splitmix64(&mut st) & 0xFF) as u8)
            })
            .collect()
    }

    /// Simulates a composed accelerator netlist on one input assignment
    /// given as bytes (input bit `i` is bit `i % 8` of byte `i / 8`),
    /// returning its outputs LSB first.
    pub(crate) fn sim_bytes(top: &Netlist, bytes: &[u8]) -> u64 {
        let words: Vec<u64> = (0..8 * bytes.len())
            .map(|bit| {
                if (bytes[bit / 8] >> (bit % 8)) & 1 != 0 {
                    u64::MAX
                } else {
                    0
                }
            })
            .collect();
        autoax_circuit::sim::sim_lanes(top, &words)
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, w)| acc | ((w & 1) << i))
    }

    /// The lane kernel on a batch of independent neighbourhoods (lane `i`
    /// is `hoods[i]`), for checks against per-neighbourhood references.
    pub(crate) fn kernel_on(
        accel: &dyn Accelerator,
        mode: usize,
        hoods: &[[u8; 9]],
        ops: &OpSet,
    ) -> Vec<u8> {
        let taps: Vec<Vec<u32>> = (0..9)
            .map(|k| hoods.iter().map(|n| n[k] as u32).collect())
            .collect();
        let taps: Taps<'_> = std::array::from_fn(|k| taps[k].as_slice());
        let mut out = vec![0u8; hoods.len()];
        accel.kernel(
            mode,
            &taps,
            ops,
            &mut NoRecord,
            &mut LaneScratch::default(),
            &mut out,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian_fixed::{self, FixedGaussian};
    use crate::gaussian_generic::{self, GenericGaussian};
    use crate::profile::{profile, Pmf, PmfRecorder};
    use crate::sobel::{self, SobelEd};
    use autoax_circuit::charlib::{build_class, build_library, ComponentLibrary, LibraryConfig};
    use autoax_circuit::util::splitmix64;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn tiny_library() -> &'static ComponentLibrary {
        static LIB: OnceLock<ComponentLibrary> = OnceLock::new();
        LIB.get_or_init(|| build_library(&LibraryConfig::tiny()))
    }

    /// Accelerator `which` (Sobel, Fixed GF, Generic GF with three modes)
    /// with its per-pixel oracle.
    fn accel_with_oracle(which: usize) -> (Box<dyn Accelerator>, Box<oracle::PixelModel<'static>>) {
        match which {
            0 => (Box::new(SobelEd::new()), Box::new(sobel::pixel_oracle)),
            1 => (
                Box::new(FixedGaussian::new()),
                Box::new(gaussian_fixed::pixel_oracle),
            ),
            _ => {
                let g = GenericGaussian::with_sweep(3);
                let model = {
                    let g = g.clone();
                    move |m: usize,
                          n: &[u8; 9],
                          ops: &OpSet,
                          rec: &mut dyn FnMut(usize, u64, u64)| {
                        gaussian_generic::pixel_oracle(&g, m, n, ops, rec)
                    }
                };
                (Box::new(g), Box::new(model))
            }
        }
    }

    /// A random configuration: one tiny-library entry per slot.
    fn random_opset(accel: &dyn Accelerator, st: &mut u64) -> OpSet {
        let lib = tiny_library();
        let entries: Vec<&CircuitEntry> = accel
            .slots()
            .iter()
            .map(|s| {
                let class = lib.class(s.signature);
                &class[(splitmix64(st) % class.len() as u64) as usize]
            })
            .collect();
        OpSet::from_entries(accel, &entries)
    }

    fn random_image(w: usize, h: usize, st: &mut u64) -> GrayImage {
        // every fourth image is flat at an extreme, to hit saturation
        match splitmix64(st) % 4 {
            0 => GrayImage::from_fn(w, h, |_, _| 255),
            _ => GrayImage::from_fn(w, h, |_, _| splitmix64(st) as u8),
        }
    }

    /// The old per-pixel profiler: one `Pmf` per slot from the oracle's
    /// records over every mode and pixel.
    fn oracle_profile(
        accel: &dyn Accelerator,
        model: &oracle::PixelModel<'_>,
        img: &GrayImage,
        ops: &OpSet,
    ) -> Vec<Pmf> {
        let mut pmfs: Vec<Pmf> = accel.slots().iter().map(|_| Pmf::new()).collect();
        for mode in 0..accel.mode_count() {
            for y in 0..img.height() {
                for x in 0..img.width() {
                    let n = oracle::neighbourhood(img, x, y);
                    model(mode, &n, ops, &mut |slot, a, b| {
                        pmfs[slot].add(a as u32, b as u32)
                    });
                }
            }
        }
        pmfs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The lane model renders every mode byte for byte like the
        /// per-pixel model it replaced, on random tiny-library
        /// configurations and image sizes from 1×1 to 40×40; and it
        /// reports the same operand multiset per slot, through both the
        /// exact profiler and an approximate configuration.
        #[test]
        fn lane_model_matches_the_per_pixel_model(
            which in 0usize..3,
            w in 1usize..=40,
            h in 1usize..=40,
            seed in any::<u64>(),
        ) {
            let mut st = seed;
            let (accel, model) = accel_with_oracle(which);
            let img = random_image(w, h, &mut st);
            let ops = random_opset(accel.as_ref(), &mut st);
            for mode in 0..accel.mode_count() {
                let want = oracle::run(&img, mode, &ops, model.as_ref());
                prop_assert_eq!(accel.run(&img, &ops, mode), want, "{} mode {}", accel.name(), mode);
            }
            let counts = |pmfs: &[Pmf]| -> Vec<Vec<((u32, u32), u64)>> {
                pmfs.iter().map(Pmf::sorted_counts).collect()
            };
            let exact = OpSet::exact(accel.as_ref());
            prop_assert_eq!(
                counts(&profile(accel.as_ref(), std::slice::from_ref(&img))),
                counts(&oracle_profile(accel.as_ref(), model.as_ref(), &img, &exact))
            );
            let mut rec = PmfRecorder::new(accel.slots().len());
            let plane = TapPlane::new(&img);
            let mut out = GrayImage::new(w, h);
            let mut scratch = LaneScratch::default();
            for mode in 0..accel.mode_count() {
                render(accel.as_ref(), &plane, mode, &ops, &mut rec, &mut scratch, &mut out);
            }
            prop_assert_eq!(
                counts(&rec.into_pmfs()),
                counts(&oracle_profile(accel.as_ref(), model.as_ref(), &img, &ops))
            );
        }
    }

    /// Every compiled form masks operand bits above the slot widths, in
    /// the scalar and the lane path alike — a 9-bit `b` on an add8 LUT
    /// used to index past the table and panic.
    #[test]
    fn every_variant_masks_out_of_range_operands() {
        let lib = tiny_library();
        let mut st = 11u64;
        for sig in OpSignature::PAPER_CLASSES {
            let class = lib.class(sig);
            let mut seen = [false; 3];
            for e in class {
                let op = CompiledOp::compile(e);
                let v = match op {
                    CompiledOp::Exact(_) => 0,
                    CompiledOp::Lut { .. } => 1,
                    CompiledOp::Func(_) => 2,
                };
                seen[v] = true;
                let a: Vec<u32> = (0..100).map(|_| splitmix64(&mut st) as u32).collect();
                let b: Vec<u32> = (0..100).map(|_| splitmix64(&mut st) as u32).collect();
                let mut lanes = vec![0u32; 100];
                op.eval_into(&a, &b, &mut lanes);
                let (ma, mb) = (
                    autoax_circuit::util::mask(sig.width_a as u32),
                    autoax_circuit::util::mask(sig.width_b as u32),
                );
                for i in 0..100 {
                    let (x, y) = (a[i] as u64 | (1 << 40), b[i] as u64);
                    let want = e.eval(x & ma, y & mb);
                    assert_eq!(op.eval(x, y), want, "{} scalar a={x:#x} b={y:#x}", e.label);
                    assert_eq!(lanes[i] as u64, want, "{} lanes a={x:#x} b={y:#x}", e.label);
                }
            }
            // 16-bit operand spaces are always tabulated; wider classes
            // keep functional models (only their mutants get tables)
            let approx = if sig.input_bits() <= 16 { 1 } else { 2 };
            assert!(seen[0] && seen[approx], "{sig}: variants seen {seen:?}");
        }
    }

    #[test]
    fn compile_exact_entry_is_native() {
        let cfg = LibraryConfig::tiny();
        let entries = build_class(OpSignature::ADD8, 5, &cfg, 1);
        let op = CompiledOp::compile(&entries[0]);
        assert!(matches!(op, CompiledOp::Exact(_)));
        assert_eq!(op.eval(200, 100), 300);
    }

    #[test]
    fn compiled_lut_matches_behavior() {
        let cfg = LibraryConfig::tiny();
        let entries = build_class(OpSignature::ADD8, 20, &cfg, 2);
        for e in &entries[1..] {
            let op = CompiledOp::compile(e);
            for (a, b) in autoax_circuit::util::stimulus_pairs(8, 8, 200, 3) {
                assert_eq!(op.eval(a, b), e.eval(a, b), "{}", e.label);
            }
        }
    }

    #[test]
    fn sixteen_bit_entries_stay_functional() {
        let cfg = LibraryConfig::tiny();
        let entries = build_class(OpSignature::ADD16, 10, &cfg, 3);
        for e in entries.iter().filter(|e| !e.is_exact()) {
            let op = CompiledOp::compile(e);
            assert!(
                matches!(op, CompiledOp::Func(_)),
                "{} should not be tabulated",
                e.label
            );
        }
    }
}
