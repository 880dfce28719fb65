//! The fixed-coefficient Gaussian filter (paper Fig. 2b).
//!
//! The σ = 2 kernel is quantized to `{corner: 26, edge: 30, center: 32}`
//! with coefficient sum 256 ([`crate::kernels::fixed_gf_kernel`]); the
//! constant multiplications are realized as shift-add networks
//! ([`crate::mcm::fixed_gf_plans`]). Eleven replaceable operations
//! (Table 1): four 8-bit adders (symmetric pixel pairs), two 9-bit adders
//! (corner/edge sums), four 16-bit adders and one 16-bit subtractor (MCM +
//! product summing).
//!
//! ```text
//! s1 = add8(p00, p02)   s2 = add8(p20, p22)   c = add9(s1, s2)   // corners
//! s3 = add8(p01, p21)   s4 = add8(p10, p12)   e = add9(s3, s4)   // edges
//! t1 = add16(c<<4, c<<3)        // 24c
//! t2 = add16(t1, c<<1)          // 26c
//! t3 = sub16(e<<5, e<<1)        // 30e
//! t4 = add16(t2, t3)            // 26c + 30e
//! t5 = add16(t4, m<<5)          // + 32m
//! out = t5 >> 8
//! ```

use crate::accelerator::{
    apply_slot, shift_lanes, Accelerator, LaneScratch, OpObserver, OpSet, OpSlot, Taps,
};
use autoax_circuit::netlist::{Bus, NetId, Netlist};
use autoax_circuit::OpSignature;

/// The fixed Gaussian filter accelerator.
#[derive(Debug, Clone)]
pub struct FixedGaussian {
    slots: Vec<OpSlot>,
}

impl FixedGaussian {
    /// Creates the accelerator with the paper's slot inventory.
    pub fn new() -> Self {
        FixedGaussian {
            slots: vec![
                OpSlot::new("s1", OpSignature::ADD8),
                OpSlot::new("s2", OpSignature::ADD8),
                OpSlot::new("corners", OpSignature::ADD9),
                OpSlot::new("s3", OpSignature::ADD8),
                OpSlot::new("s4", OpSignature::ADD8),
                OpSlot::new("edges", OpSignature::ADD9),
                OpSlot::new("t1", OpSignature::ADD16),
                OpSlot::new("t2", OpSignature::ADD16),
                OpSlot::new("t3", OpSignature::SUB16),
                OpSlot::new("t4", OpSignature::ADD16),
                OpSlot::new("t5", OpSignature::ADD16),
            ],
        }
    }

    /// Golden integer reference: `(26·corners + 30·edges + 32·center) >> 8`.
    pub fn reference_pixel(n: &[u8; 9]) -> u8 {
        let corners = n[0] as u32 + n[2] as u32 + n[6] as u32 + n[8] as u32;
        let edges = n[1] as u32 + n[3] as u32 + n[5] as u32 + n[7] as u32;
        let center = n[4] as u32;
        ((26 * corners + 30 * edges + 32 * center) >> 8) as u8
    }
}

impl Default for FixedGaussian {
    fn default() -> Self {
        Self::new()
    }
}

impl Accelerator for FixedGaussian {
    fn name(&self) -> &str {
        "Fixed GF"
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
        const M16: u32 = 0xFFFF;
        let [s1, s2, c, s3, s4, e, c4, c3, t1, c1, t2, e5, e1, t3, t4, m5, t5] =
            scratch.split(out.len());
        apply_slot(ops, obs, 0, t[0], t[2], 0x1FF, s1);
        apply_slot(ops, obs, 1, t[6], t[8], 0x1FF, s2);
        apply_slot(ops, obs, 2, s1, s2, 0x3FF, c);
        apply_slot(ops, obs, 3, t[1], t[7], 0x1FF, s3);
        apply_slot(ops, obs, 4, t[3], t[5], 0x1FF, s4);
        apply_slot(ops, obs, 5, s3, s4, 0x3FF, e);
        shift_lanes(c, 4, M16, c4);
        shift_lanes(c, 3, M16, c3);
        shift_lanes(c, 1, M16, c1);
        apply_slot(ops, obs, 6, c4, c3, M16, t1);
        apply_slot(ops, obs, 7, t1, c1, M16, t2);
        shift_lanes(e, 5, M16, e5);
        shift_lanes(e, 1, M16, e1);
        apply_slot(ops, obs, 8, e5, e1, M16, t3);
        apply_slot(ops, obs, 9, t2, t3, M16, t4);
        shift_lanes(t[4], 5, M16, m5);
        apply_slot(ops, obs, 10, t4, m5, M16, t5);
        for (o, &v) in out.iter_mut().zip(t5.iter()) {
            *o = (v >> 8) as u8;
        }
    }

    fn build_netlist(&self, impls: &[Netlist]) -> Netlist {
        assert_eq!(impls.len(), 11, "Fixed GF has eleven operation slots");
        let mut top = Netlist::new("fixed_gf");
        let pixels: Vec<Bus> = (0..9).map(|_| top.input_bus(8)).collect();
        let zero = top.const0();
        let concat =
            |a: &Bus, b: &Bus| -> Vec<NetId> { a.iter().chain(b.iter()).copied().collect() };
        let pad16 = |bus: &Bus, zero: NetId| -> Bus {
            let mut v = bus.0.clone();
            v.truncate(16);
            while v.len() < 16 {
                v.push(zero);
            }
            Bus(v)
        };
        let s1 = Bus(top.instantiate(&impls[0], &concat(&pixels[0], &pixels[2])));
        let s2 = Bus(top.instantiate(&impls[1], &concat(&pixels[6], &pixels[8])));
        let c = Bus(top.instantiate(&impls[2], &concat(&s1, &s2)));
        let s3 = Bus(top.instantiate(&impls[3], &concat(&pixels[1], &pixels[7])));
        let s4 = Bus(top.instantiate(&impls[4], &concat(&pixels[3], &pixels[5])));
        let e = Bus(top.instantiate(&impls[5], &concat(&s3, &s4)));
        // MCM for 26·c: t1 = (c<<4) + (c<<3); t2 = t1 + (c<<1)
        let c4 = pad16(&c.shifted_left(4, zero), zero);
        let c3 = pad16(&c.shifted_left(3, zero), zero);
        let t1 = Bus(top.instantiate(&impls[6], &concat(&c4, &c3)));
        let c1 = pad16(&c.shifted_left(1, zero), zero);
        let t2 = Bus(top.instantiate(&impls[7], &concat(&pad16(&t1, zero), &c1)));
        // 30·e = (e<<5) - (e<<1)
        let e5 = pad16(&e.shifted_left(5, zero), zero);
        let e1 = pad16(&e.shifted_left(1, zero), zero);
        let t3 = Bus(top.instantiate(&impls[8], &concat(&e5, &e1)));
        let t4 = Bus(top.instantiate(&impls[9], &concat(&pad16(&t2, zero), &pad16(&t3, zero))));
        let m5 = pad16(&pixels[4].shifted_left(5, zero), zero);
        let t5 = Bus(top.instantiate(&impls[10], &concat(&pad16(&t4, zero), &m5)));
        // out = t5[15:8]
        top.push_output_bus(&t5.slice(8..16));
        top
    }
}

/// The per-pixel Fixed GF model that preceded the lane kernel (test
/// oracle).
#[cfg(test)]
pub(crate) fn pixel_oracle(
    _mode: usize,
    n: &[u8; 9],
    ops: &OpSet,
    record: &mut dyn FnMut(usize, u64, u64),
) -> u8 {
    let m16 = 0xFFFFu64;
    let (p00, p01, p02) = (n[0] as u64, n[1] as u64, n[2] as u64);
    let (p10, m, p12) = (n[3] as u64, n[4] as u64, n[5] as u64);
    let (p20, p21, p22) = (n[6] as u64, n[7] as u64, n[8] as u64);
    let mut apply = |slot: usize, a: u64, b: u64, keep: u64| {
        record(slot, a, b);
        ops.apply(slot, a, b) & keep
    };
    let s1 = apply(0, p00, p02, 0x1FF);
    let s2 = apply(1, p20, p22, 0x1FF);
    let c = apply(2, s1, s2, 0x3FF);
    let s3 = apply(3, p01, p21, 0x1FF);
    let s4 = apply(4, p10, p12, 0x1FF);
    let e = apply(5, s3, s4, 0x3FF);
    let (c4, c3, c1) = ((c << 4) & m16, (c << 3) & m16, (c << 1) & m16);
    let t1 = apply(6, c4, c3, m16);
    let t2 = apply(7, t1, c1, m16);
    let (e5, e1) = ((e << 5) & m16, (e << 1) & m16);
    let t3 = apply(8, e5, e1, m16);
    let t4 = apply(9, t2, t3, m16);
    let m5 = (m << 5) & m16;
    let t5 = apply(10, t4, m5, m16);
    (t5 >> 8) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::oracle::{kernel_on, random_hoods, sim_bytes};
    use autoax_circuit::approx::Behavior;
    use autoax_image::synthetic::benchmark_suite;

    #[test]
    fn slot_inventory_matches_table1() {
        let g = FixedGaussian::new();
        let count = |sig: OpSignature| g.slots().iter().filter(|s| s.signature == sig).count();
        assert_eq!(g.slots().len(), 11);
        assert_eq!(count(OpSignature::ADD8), 4);
        assert_eq!(count(OpSignature::ADD9), 2);
        assert_eq!(count(OpSignature::ADD16), 4);
        assert_eq!(count(OpSignature::SUB16), 1);
    }

    #[test]
    fn exact_model_matches_integer_reference() {
        let g = FixedGaussian::new();
        let exact = OpSet::exact(&g);
        let hoods = random_hoods(500, 3);
        let got = kernel_on(&g, 0, &hoods, &exact);
        for (n, &v) in hoods.iter().zip(got.iter()) {
            assert_eq!(v, FixedGaussian::reference_pixel(n), "{n:?}");
        }
    }

    #[test]
    fn output_is_gaussian_blur() {
        // Against the float reference with the same quantized kernel the
        // exact model can only differ by the floor-vs-round of the >> 8.
        let g = FixedGaussian::new();
        let img = benchmark_suite(1, 48, 32, 11).remove(0);
        let out = g.run_exact(&img).remove(0);
        let k = 1.0 / 256.0;
        let kernel = [
            [26.0 * k, 30.0 * k, 26.0 * k],
            [30.0 * k, 32.0 * k, 30.0 * k],
            [26.0 * k, 30.0 * k, 26.0 * k],
        ];
        let reference = autoax_image::convolve::convolve3x3(&img, &kernel, 1.0);
        for (a, b) in out.data().iter().zip(reference.data().iter()) {
            assert!((*a as i32 - *b as i32).abs() <= 1, "{a} vs {b}");
        }
    }

    #[test]
    fn flat_image_is_preserved() {
        let g = FixedGaussian::new();
        let img = autoax_image::GrayImage::from_fn(16, 16, |_, _| 200);
        let out = g.run_exact(&img).remove(0);
        // sum = 200 * 256 >> 8 = 200 exactly
        assert!(out.data().iter().all(|&p| p == 200));
    }

    #[test]
    fn netlist_matches_software_model_exact() {
        let g = FixedGaussian::new();
        let impls: Vec<Netlist> = g
            .slots()
            .iter()
            .map(|sl| Behavior::exact_for(sl.signature).build_netlist())
            .collect();
        let top = g.build_netlist(&impls);
        assert_eq!(top.input_count(), 72);
        assert_eq!(top.outputs().len(), 8);
        let exact = OpSet::exact(&g);
        let hoods = random_hoods(150, 17);
        let sw = kernel_on(&g, 0, &hoods, &exact);
        for (n, &sw) in hoods.iter().zip(sw.iter()) {
            assert_eq!(sim_bytes(&top, n), sw as u64, "{n:?}");
        }
    }

    #[test]
    fn netlist_matches_software_model_approximate() {
        use autoax_circuit::charlib::{build_class, LibraryConfig};
        let g = FixedGaussian::new();
        let cfg = LibraryConfig::tiny();
        let mut libs = std::collections::HashMap::new();
        for sig in [
            OpSignature::ADD8,
            OpSignature::ADD9,
            OpSignature::ADD16,
            OpSignature::SUB16,
        ] {
            libs.insert(sig, build_class(sig, 8, &cfg, sig.input_bits() as u64));
        }
        let entries: Vec<&autoax_circuit::CircuitEntry> = g
            .slots()
            .iter()
            .enumerate()
            .map(|(i, s)| &libs[&s.signature][2 + i % 3])
            .collect();
        let impls: Vec<Netlist> = entries.iter().map(|e| e.build_netlist()).collect();
        let top = g.build_netlist(&impls);
        let ops = OpSet::from_entries(&g, &entries);
        let hoods = random_hoods(100, 23);
        let sw = kernel_on(&g, 0, &hoods, &ops);
        for (n, &sw) in hoods.iter().zip(sw.iter()) {
            assert_eq!(sim_bytes(&top, n), sw as u64, "{n:?}");
        }
    }
}
