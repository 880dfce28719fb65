//! A hand-rolled quantized MLP over the approximate MAC datapath.
//!
//! Quantization scheme (the standard asymmetric u8 layout):
//!
//! * activations are `u8`;
//! * weights are `u8` with zero point 128, so the represented weight is
//!   `w - 128 ∈ [-128, 127]`;
//! * every multiply-accumulate runs through two replaceable circuit
//!   slots — an 8×8 multiplier forming the 16-bit product and a 16-bit
//!   adder updating the low lanes of the accumulator ([`mac_step`]);
//! * the zero-point correction `128 · Σx`, the bias add and the
//!   requantize shift are exact glue, exactly as the paper's accelerators
//!   keep their shifts and clamps exact.
//!
//! The carry out of the 16-bit adder propagates into the high accumulator
//! bits through exact glue, so with exact circuits the MAC is *bit-exact*
//! integer arithmetic (property-tested against native `Σ w·x` at every
//! paper bitwidth in `tests/cross_crate_props.rs`).

use autoax_accel::accelerator::{OpObserver, OpSet};
use autoax_ml::linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::NnSample;

/// Weight zero point: stored `u8` weight `w` represents `w - ZERO_POINT`.
pub const ZERO_POINT: i64 = 128;

/// One accumulate step of the MAC datapath.
///
/// The multiplier slot forms the 16-bit product `x·w`; the adder slot
/// adds it to the low 16 bits of `acc`; the 17-bit sum (carry included)
/// re-enters the accumulator through exact glue. With exact circuits this
/// is exactly `acc + x·w`.
#[inline]
pub fn mac_step(
    ops: &OpSet,
    mul_slot: usize,
    acc_slot: usize,
    acc: u64,
    x: u8,
    w: u8,
    obs: &mut dyn OpObserver,
) -> u64 {
    obs.record(mul_slot, &[x as u32], &[w as u32]);
    let p = ops.apply(mul_slot, x as u64, w as u64) & 0xFFFF;
    let lo = acc & 0xFFFF;
    obs.record(acc_slot, &[lo as u32], &[p as u32]);
    let s = ops.apply(acc_slot, lo, p) & 0x1_FFFF;
    (acc & !0xFFFF).wrapping_add(s)
}

/// One fully connected quantized layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantLayer {
    /// Input width.
    pub in_dim: usize,
    /// Output width (neuron count).
    pub out_dim: usize,
    /// Row-major `[out_dim × in_dim]` weights, zero point 128.
    pub weights: Vec<u8>,
    /// Per-neuron bias, applied after the zero-point correction.
    pub bias: Vec<i64>,
    /// Requantize right-shift for the (clamped) u8 activation.
    pub shift: u32,
}

impl QuantLayer {
    /// The signed pre-activations of the layer for input `x`, running
    /// every multiply-accumulate through `ops` (slots `mul_slot` /
    /// `acc_slot`) and reporting the operands to `obs`.
    ///
    /// The zero-point correction `128 · Σx` is computed once per input
    /// and shared by all neurons — exact glue, like the paper's wired
    /// shifts.
    pub fn forward_signed(
        &self,
        x: &[u8],
        ops: &OpSet,
        mul_slot: usize,
        acc_slot: usize,
        obs: &mut dyn OpObserver,
    ) -> Vec<i64> {
        assert_eq!(x.len(), self.in_dim, "input width mismatch");
        let sum_x: i64 = x.iter().map(|&v| v as i64).sum();
        (0..self.out_dim)
            .map(|j| {
                let row = &self.weights[j * self.in_dim..(j + 1) * self.in_dim];
                let mut acc = 0u64;
                for (&xi, &w) in x.iter().zip(row.iter()) {
                    acc = mac_step(ops, mul_slot, acc_slot, acc, xi, w, obs);
                }
                acc as i64 - ZERO_POINT * sum_x + self.bias[j]
            })
            .collect()
    }

    /// Requantizes a signed pre-activation to the u8 activation range.
    #[inline]
    pub fn requantize(&self, v: i64) -> u8 {
        (v >> self.shift).clamp(0, 255) as u8
    }
}

/// A quantized multi-layer perceptron; the last layer's signed outputs
/// are the class logits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantMlp {
    /// The layers, first to last. Layer `l` owns slots `2l` (multiplier)
    /// and `2l + 1` (accumulator adder).
    pub layers: Vec<QuantLayer>,
}

impl QuantMlp {
    /// Class logits of input `x` through `ops`.
    pub fn logits(&self, x: &[u8], ops: &OpSet, obs: &mut dyn OpObserver) -> Vec<i64> {
        assert!(!self.layers.is_empty(), "QuantMlp needs at least one layer");
        let last = self.layers.len() - 1;
        let mut act: Vec<u8> = x.to_vec();
        for (l, layer) in self.layers.iter().enumerate() {
            let signed = layer.forward_signed(&act, ops, 2 * l, 2 * l + 1, obs);
            if l == last {
                return signed;
            }
            act = signed.iter().map(|&v| layer.requantize(v)).collect();
        }
        unreachable!("loop returns on the last layer")
    }

    /// Predicted class: argmax of the logits (ties resolve to the lowest
    /// index, deterministically).
    pub fn predict(&self, x: &[u8], ops: &OpSet, obs: &mut dyn OpObserver) -> u8 {
        let logits = self.logits(x, ops, obs);
        let mut best = 0usize;
        for (i, &v) in logits.iter().enumerate() {
            if v > logits[best] {
                best = i;
            }
        }
        best as u8
    }

    /// Input feature count.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Class count.
    pub fn class_count(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim
    }
}

/// Builds a two-layer classifier on a labelled dataset, deterministically:
///
/// 1. the hidden layer is a seeded random projection (weights uniform
///    around the zero point), calibrated on the data so each neuron's
///    activation span maps onto `[0, 255]` (per-neuron bias = −min,
///    shared requantize shift covering the largest span);
/// 2. the output layer is a nearest-centroid readout in hidden-activation
///    space: weights are the quantized class-centroid deviations from the
///    global mean, biases the matching `−½‖w‖·centroid` terms, so the
///    argmax picks the class whose centroid the activation correlates
///    with best.
///
/// No floating-point training loop, no external data — but a genuinely
/// discriminative network whose exact run separates the synthetic blobs,
/// so approximating its multipliers and adders trades real accuracy.
pub fn fit_classifier(data: &[NnSample], classes: usize, hidden: usize, seed: u64) -> QuantMlp {
    assert!(!data.is_empty(), "fit needs data");
    assert!(classes >= 2, "fit needs at least two classes");
    let in_dim = data[0].features.len();
    let mut rng = StdRng::seed_from_u64(seed);

    // 1. random-projection hidden layer
    let weights: Vec<u8> = (0..hidden * in_dim)
        .map(|_| rng.gen_range(88u32..=168) as u8)
        .collect();
    let mut l1 = QuantLayer {
        in_dim,
        out_dim: hidden,
        weights,
        bias: vec![0; hidden],
        shift: 0,
    };
    // calibrate: one pass computing every exact (native-integer) raw
    // pre-activation — reused below for the activation matrix, so the
    // O(samples × hidden × in_dim) dot products run exactly once
    let mut raws: Vec<i64> = Vec::with_capacity(data.len() * hidden);
    let mut lo = vec![i64::MAX; hidden];
    let mut hi = vec![i64::MIN; hidden];
    for s in data {
        for j in 0..hidden {
            let row = &l1.weights[j * in_dim..(j + 1) * in_dim];
            let raw: i64 = s
                .features
                .iter()
                .zip(row)
                .map(|(&x, &w)| (w as i64 - ZERO_POINT) * x as i64)
                .sum();
            lo[j] = lo[j].min(raw);
            hi[j] = hi[j].max(raw);
            raws.push(raw);
        }
    }
    let span = lo
        .iter()
        .zip(&hi)
        .map(|(&l, &h)| h - l)
        .max()
        .unwrap_or(0)
        .max(1);
    let mut shift = 0u32;
    while (span >> shift) > 255 {
        shift += 1;
    }
    l1.bias = lo.iter().map(|&l| -l).collect();
    l1.shift = shift;

    // 2. nearest-centroid readout on the exact hidden activations
    // (requantized from the cached raw pre-activations)
    let mut acts = Matrix::zeros(data.len(), hidden);
    for (r, chunk) in raws.chunks(hidden).enumerate() {
        for (j, &raw) in chunk.iter().enumerate() {
            acts.set(r, j, l1.requantize(raw + l1.bias[j]) as f64);
        }
    }
    let mut centroid = vec![vec![0f64; hidden]; classes];
    let mut count = vec![0usize; classes];
    for (r, s) in data.iter().enumerate() {
        count[s.label as usize] += 1;
        for (j, c) in centroid[s.label as usize].iter_mut().enumerate() {
            *c += acts.get(r, j);
        }
    }
    for (c, n) in centroid.iter_mut().zip(&count) {
        assert!(*n > 0, "every class needs at least one sample");
        for v in c.iter_mut() {
            *v /= *n as f64;
        }
    }
    let mean: Vec<f64> = (0..hidden)
        .map(|j| centroid.iter().map(|c| c[j]).sum::<f64>() / classes as f64)
        .collect();
    let max_dev = centroid
        .iter()
        .flat_map(|c| c.iter().zip(&mean).map(|(v, m)| (v - m).abs()))
        .fold(0f64, f64::max)
        .max(1e-9);
    let scale = 100.0 / max_dev;
    let mut w2 = Vec::with_capacity(classes * hidden);
    let mut b2 = Vec::with_capacity(classes);
    for c in &centroid {
        let row: Vec<i64> = c
            .iter()
            .zip(&mean)
            .map(|(v, m)| (scale * (v - m)).round() as i64)
            .collect();
        // −½ Σ w·centroid makes the argmax a nearest-centroid rule
        let bias: f64 = -row.iter().zip(c).map(|(&w, &v)| w as f64 * v).sum::<f64>() / 2.0;
        for &w in &row {
            w2.push((w + ZERO_POINT).clamp(0, 255) as u8);
        }
        b2.push(bias.round() as i64);
    }
    let l2 = QuantLayer {
        in_dim: hidden,
        out_dim: classes,
        weights: w2,
        bias: b2,
        shift: 0,
    };
    QuantMlp {
        layers: vec![l1, l2],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{synthetic_blobs, DatasetConfig};
    use autoax_accel::accelerator::{CompiledOp, NoRecord, OpSlot};
    use autoax_circuit::OpSignature;

    fn exact_ops(layers: usize) -> OpSet {
        let slots: Vec<OpSlot> = (0..layers)
            .flat_map(|l| {
                [
                    OpSlot::new(format!("l{l}_mul"), OpSignature::MUL8),
                    OpSlot::new(format!("l{l}_acc"), OpSignature::ADD16),
                ]
            })
            .collect();
        OpSet::exact_slots(&slots)
    }

    #[test]
    fn exact_mac_equals_native_dot_product() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let ops = exact_ops(1);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let n = rng.gen_range(1usize..40);
            let xs: Vec<u8> = (0..n).map(|_| rng.gen_range(0u32..=255) as u8).collect();
            let ws: Vec<u8> = (0..n).map(|_| rng.gen_range(0u32..=255) as u8).collect();
            let mut acc = 0u64;
            for (&x, &w) in xs.iter().zip(&ws) {
                acc = mac_step(&ops, 0, 1, acc, x, w, &mut NoRecord);
            }
            let native: u64 = xs.iter().zip(&ws).map(|(&x, &w)| x as u64 * w as u64).sum();
            assert_eq!(acc, native);
        }
    }

    #[test]
    fn fit_is_deterministic_and_classifies_the_blobs() {
        let cfg = DatasetConfig::tiny();
        let data = synthetic_blobs(&cfg);
        let a = fit_classifier(&data, cfg.classes, 12, 7);
        let b = fit_classifier(&data, cfg.classes, 12, 7);
        assert_eq!(a, b, "fit must be deterministic");
        let ops = exact_ops(a.layers.len());
        let correct = data
            .iter()
            .filter(|s| a.predict(&s.features, &ops, &mut NoRecord) == s.label)
            .count();
        let acc = correct as f64 / data.len() as f64;
        assert!(acc > 0.9, "exact net should separate the blobs: {acc}");
    }

    #[test]
    fn zeroed_multiplier_collapses_the_logits() {
        // an all-zero multiplier LUT must change predictions/logits: the
        // MAC path really flows through the slot circuits
        use std::sync::Arc;
        let cfg = DatasetConfig::tiny();
        let data = synthetic_blobs(&cfg);
        let mlp = fit_classifier(&data, cfg.classes, 8, 3);
        let exact = exact_ops(mlp.layers.len());
        let zero_mul = CompiledOp::Lut {
            wa: 8,
            table: Arc::new(vec![0u16; 1 << 16]),
        };
        let broken = OpSet::new(vec![
            zero_mul.clone(),
            CompiledOp::Exact(OpSignature::ADD16),
            zero_mul,
            CompiledOp::Exact(OpSignature::ADD16),
        ]);
        let x = &data[0].features;
        let le = mlp.logits(x, &exact, &mut NoRecord);
        let lb = mlp.logits(x, &broken, &mut NoRecord);
        assert_ne!(le, lb, "zeroed multipliers must perturb the logits");
    }

    #[test]
    fn requantize_clamps_to_u8() {
        let l = QuantLayer {
            in_dim: 1,
            out_dim: 1,
            weights: vec![128],
            bias: vec![0],
            shift: 2,
        };
        assert_eq!(l.requantize(-5), 0);
        assert_eq!(l.requantize(40), 10);
        assert_eq!(l.requantize(100_000), 255);
    }

    #[test]
    fn predict_breaks_ties_to_the_lowest_index() {
        // a single-layer net with two identical rows produces equal
        // logits; argmax must deterministically pick class 0
        let mlp = QuantMlp {
            layers: vec![QuantLayer {
                in_dim: 2,
                out_dim: 2,
                weights: vec![130, 140, 130, 140],
                bias: vec![0, 0],
                shift: 0,
            }],
        };
        let ops = exact_ops(1);
        assert_eq!(mlp.predict(&[10, 20], &ops, &mut NoRecord), 0);
    }
}
