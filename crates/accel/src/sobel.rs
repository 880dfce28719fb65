//! The Sobel edge detector (vertical edges) — paper Fig. 2a.
//!
//! Five replaceable operations (Table 1): two 8-bit adders, two 9-bit
//! adders and one 10-bit subtractor; the two ×2 factors are wired shifts
//! and the final `|·|`/clamp glue is exact logic, exactly as in the paper
//! where only the listed arithmetic operations are approximated.
//!
//! ```text
//! add1 = add8(p00, p20)            add3 = add8(p02, p22)
//! add2 = add9(add1, p10 << 1)      add4 = add9(add3, p12 << 1)
//! sub  = sub10(add4, add2)         out  = clamp255(|sub|)
//! ```

use crate::accelerator::{
    apply_slot, shift_lanes, Accelerator, LaneScratch, OpObserver, OpSet, OpSlot, Taps,
};
use autoax_circuit::netlist::{Bus, Netlist};
use autoax_circuit::OpSignature;

/// The Sobel edge detector accelerator.
#[derive(Debug, Clone)]
pub struct SobelEd {
    slots: Vec<OpSlot>,
}

impl SobelEd {
    /// Creates the accelerator with the paper's slot inventory.
    pub fn new() -> Self {
        SobelEd {
            slots: vec![
                OpSlot::new("add1", OpSignature::ADD8),
                OpSlot::new("add2", OpSignature::ADD9),
                OpSlot::new("add3", OpSignature::ADD8),
                OpSlot::new("add4", OpSignature::ADD9),
                OpSlot::new("sub", OpSignature::SUB10),
            ],
        }
    }
}

impl Default for SobelEd {
    fn default() -> Self {
        Self::new()
    }
}

impl Accelerator for SobelEd {
    fn name(&self) -> &str {
        "Sobel ED"
    }

    fn slots(&self) -> &[OpSlot] {
        &self.slots
    }

    fn kernel(
        &self,
        _mode: usize,
        t: &Taps<'_>,
        ops: &OpSet,
        obs: &mut dyn OpObserver,
        scratch: &mut LaneScratch,
        out: &mut [u8],
    ) {
        let [a1, sh1, a2, a3, sh2, a4, d] = scratch.split(out.len());
        // pixel taps: p00 = t[0], p10 = t[3], p20 = t[6] (left column),
        // p02 = t[2], p12 = t[5], p22 = t[8] (right column)
        apply_slot(ops, obs, 0, t[0], t[6], 0x1FF, a1);
        shift_lanes(t[3], 1, u32::MAX, sh1);
        apply_slot(ops, obs, 1, a1, sh1, 0x3FF, a2);
        apply_slot(ops, obs, 2, t[2], t[8], 0x1FF, a3);
        shift_lanes(t[5], 1, u32::MAX, sh2);
        apply_slot(ops, obs, 3, a3, sh2, 0x3FF, a4);
        apply_slot(ops, obs, 4, a4, a2, 0x7FF, d);
        // exact glue: sign-extend the 11-bit result, abs, clamp
        for (o, &d) in out.iter_mut().zip(d.iter()) {
            let signed = ((d << 21) as i32) >> 21;
            *o = signed.unsigned_abs().min(255) as u8;
        }
    }

    fn build_netlist(&self, impls: &[Netlist]) -> Netlist {
        assert_eq!(impls.len(), 5, "Sobel ED has five operation slots");
        let mut top = Netlist::new("sobel_ed");
        // nine 8-bit pixel buses in row-major neighbourhood order
        let pixels: Vec<Bus> = (0..9).map(|_| top.input_bus(8)).collect();
        let zero = top.const0();
        let concat = |a: &Bus, b: &Bus| -> Vec<autoax_circuit::NetId> {
            a.iter().chain(b.iter()).copied().collect()
        };
        // add1 = p00 + p20
        let a1 = Bus(top.instantiate(&impls[0], &concat(&pixels[0], &pixels[6])));
        // add2 = a1 + (p10 << 1): both operands 9 bits
        let sh1 = pixels[3].shifted_left(1, zero);
        let a2 = Bus(top.instantiate(&impls[1], &concat(&a1, &sh1)));
        // add3 = p02 + p22
        let a3 = Bus(top.instantiate(&impls[2], &concat(&pixels[2], &pixels[8])));
        let sh2 = pixels[5].shifted_left(1, zero);
        let a4 = Bus(top.instantiate(&impls[3], &concat(&a3, &sh2)));
        // sub = a4 - a2 over 10 bits -> 11-bit two's complement
        let d = Bus(top.instantiate(&impls[4], &concat(&a4, &a2)));
        let out = abs_clamp_to_u8(&mut top, &d);
        top.push_output_bus(&out);
        top
    }
}

/// Exact glue: `|d|` of an 11-bit two's-complement bus, saturated to 8
/// bits. Shared by the netlist builder and (in spirit) the software model.
fn abs_clamp_to_u8(n: &mut Netlist, d: &Bus) -> Bus {
    assert_eq!(d.width(), 11);
    let sign = d.bit(10);
    // negate the low 10 bits: ~d + 1 (truncated two's-complement negation)
    let mut carry = n.const1();
    let mut neg = Vec::with_capacity(10);
    for i in 0..10 {
        let inv = n.inv(d.bit(i));
        let s = n.xor2(inv, carry);
        let c = n.and2(inv, carry);
        neg.push(s);
        carry = c;
    }
    // mag = sign ? neg : d
    let mag: Vec<_> = (0..10).map(|i| n.mux2(sign, d.bit(i), neg[i])).collect();
    // saturate: if mag[8] | mag[9], output 255
    let sat = n.or2(mag[8], mag[9]);
    Bus((0..8).map(|i| n.or2(mag[i], sat)).collect())
}

/// The per-pixel Sobel model that preceded the lane kernel (test oracle).
#[cfg(test)]
pub(crate) fn pixel_oracle(
    _mode: usize,
    n: &[u8; 9],
    ops: &OpSet,
    record: &mut dyn FnMut(usize, u64, u64),
) -> u8 {
    let (p00, p10, p20) = (n[0] as u64, n[3] as u64, n[6] as u64);
    let (p02, p12, p22) = (n[2] as u64, n[5] as u64, n[8] as u64);
    record(0, p00, p20);
    let a1 = ops.apply(0, p00, p20) & 0x1FF;
    let sh1 = p10 << 1;
    record(1, a1, sh1);
    let a2 = ops.apply(1, a1, sh1) & 0x3FF;
    record(2, p02, p22);
    let a3 = ops.apply(2, p02, p22) & 0x1FF;
    let sh2 = p12 << 1;
    record(3, a3, sh2);
    let a4 = ops.apply(3, a3, sh2) & 0x3FF;
    record(4, a4, a2);
    let d = ops.apply(4, a4, a2) & 0x7FF;
    let signed = if d & 0x400 != 0 {
        d as i64 - 0x800
    } else {
        d as i64
    };
    signed.unsigned_abs().min(255) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoax_circuit::approx::Behavior;
    use autoax_image::convolve::convolve3x3_abs;
    use autoax_image::synthetic::benchmark_suite;

    #[test]
    fn slot_inventory_matches_table1() {
        let s = SobelEd::new();
        let count = |sig: OpSignature| s.slots().iter().filter(|x| x.signature == sig).count();
        assert_eq!(s.slots().len(), 5);
        assert_eq!(count(OpSignature::ADD8), 2);
        assert_eq!(count(OpSignature::ADD9), 2);
        assert_eq!(count(OpSignature::SUB10), 1);
    }

    #[test]
    fn exact_model_matches_reference_convolution() {
        let s = SobelEd::new();
        let img = benchmark_suite(1, 64, 48, 5).remove(0);
        let got = s.run_exact(&img).remove(0);
        let sobel_x = [[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]];
        let want = convolve3x3_abs(&img, &sobel_x, 1.0);
        assert_eq!(got, want);
    }

    #[test]
    fn netlist_matches_software_model_exact() {
        let s = SobelEd::new();
        let impls: Vec<Netlist> = s
            .slots()
            .iter()
            .map(|sl| Behavior::exact_for(sl.signature).build_netlist())
            .collect();
        let top = s.build_netlist(&impls);
        assert_eq!(top.input_count(), 72);
        assert_eq!(top.outputs().len(), 8);
        check_netlist_vs_sw(&s, &top);
    }

    #[test]
    fn netlist_matches_software_model_approximate() {
        use autoax_circuit::charlib::{build_class, LibraryConfig};
        let s = SobelEd::new();
        let cfg = LibraryConfig::tiny();
        // pick a non-exact entry per class
        let pick = |sig: OpSignature, seed: u64| {
            let lib = build_class(sig, 8, &cfg, seed);
            lib.into_iter().nth(3).unwrap()
        };
        let entries = [
            pick(OpSignature::ADD8, 1),
            pick(OpSignature::ADD9, 2),
            pick(OpSignature::ADD8, 3),
            pick(OpSignature::ADD9, 4),
            pick(OpSignature::SUB10, 5),
        ];
        let impls: Vec<Netlist> = entries.iter().map(|e| e.build_netlist()).collect();
        let top = s.build_netlist(&impls);
        let refs: Vec<&autoax_circuit::CircuitEntry> = entries.iter().collect();
        let ops = OpSet::from_entries(&s, &refs);
        check_netlist_vs_sw_ops(&s, &top, &ops);
    }

    fn check_netlist_vs_sw(s: &SobelEd, top: &Netlist) {
        let ops = OpSet::exact_slots(s.slots());
        check_netlist_vs_sw_ops(s, top, &ops);
    }

    fn check_netlist_vs_sw_ops(s: &SobelEd, top: &Netlist, ops: &OpSet) {
        let hoods = crate::accelerator::oracle::random_hoods(200, 7);
        let outs: Vec<u64> = hoods
            .iter()
            .map(|n| crate::accelerator::oracle::sim_bytes(top, n))
            .collect();
        let sw = crate::accelerator::oracle::kernel_on(s, 0, &hoods, ops);
        for ((n, &hw), &sw) in hoods.iter().zip(outs.iter()).zip(sw.iter()) {
            assert_eq!(hw, sw as u64, "neighbourhood {n:?}");
        }
    }

    #[test]
    fn flat_image_has_no_edges() {
        let s = SobelEd::new();
        let img = autoax_image::GrayImage::from_fn(16, 16, |_, _| 77);
        let out = s.run_exact(&img).remove(0);
        assert!(out.data().iter().all(|&p| p == 0));
    }

    #[test]
    fn vertical_step_detected_horizontal_ignored() {
        let s = SobelEd::new();
        let vstep = autoax_image::GrayImage::from_fn(16, 16, |x, _| if x < 8 { 0 } else { 200 });
        let hstep = autoax_image::GrayImage::from_fn(16, 16, |_, y| if y < 8 { 0 } else { 200 });
        let vout = s.run_exact(&vstep).remove(0);
        let hout = s.run_exact(&hstep).remove(0);
        assert!(vout.get(7, 8) > 100, "vertical edge missed");
        assert!(
            hout.data().iter().all(|&p| p == 0),
            "horizontal edge should be invisible to a vertical detector"
        );
    }
}
