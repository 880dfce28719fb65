//! The generic Gaussian filter: a 3×3 convolution with *runtime* kernel
//! coefficients — nine 8-bit multipliers whose products are summed by
//! eight 16-bit adders (17 operations, the paper's hardest case study).
//!
//! QoR is the average SSIM over a sweep of Gaussian kernels (paper: 50
//! kernels, σ ∈ [0.3, 0.8], × 4 images = 200 simulations); each kernel is
//! one behavioural *mode* of the same hardware.

use crate::accelerator::{apply_slot, Accelerator, LaneScratch, OpObserver, OpSet, OpSlot, Taps};
use crate::kernels::{sigma_sweep_kernels, SymKernel};
use autoax_circuit::netlist::{Bus, NetId, Netlist};
use autoax_circuit::OpSignature;

/// The generic Gaussian filter accelerator.
#[derive(Debug, Clone)]
pub struct GenericGaussian {
    slots: Vec<OpSlot>,
    kernels: Vec<[u8; 9]>,
}

impl GenericGaussian {
    /// Creates the accelerator with an explicit kernel sweep.
    ///
    /// # Panics
    /// Panics if `kernels` is empty.
    pub fn new(kernels: Vec<SymKernel>) -> Self {
        assert!(!kernels.is_empty(), "at least one kernel required");
        let mut slots = Vec::with_capacity(17);
        for i in 0..9 {
            slots.push(OpSlot::new(format!("mul{i}"), OpSignature::MUL8));
        }
        for i in 0..8 {
            slots.push(OpSlot::new(format!("sum{i}"), OpSignature::ADD16));
        }
        GenericGaussian {
            slots,
            kernels: kernels.into_iter().map(SymKernel::to_array).collect(),
        }
    }

    /// The paper's configuration: 50 kernels, σ ∈ [0.3, 0.8].
    pub fn paper() -> Self {
        Self::new(sigma_sweep_kernels(50))
    }

    /// A reduced sweep for fast runs (`n` kernels over the same σ range).
    pub fn with_sweep(n: usize) -> Self {
        Self::new(sigma_sweep_kernels(n))
    }

    /// The active kernel coefficient arrays.
    pub fn kernels(&self) -> &[[u8; 9]] {
        &self.kernels
    }
}

impl Accelerator for GenericGaussian {
    fn name(&self) -> &str {
        "Generic GF"
    }

    fn slots(&self) -> &[OpSlot] {
        &self.slots
    }

    fn mode_count(&self) -> usize {
        self.kernels.len()
    }

    fn kernel(
        &self,
        mode: usize,
        t: &Taps<'_>,
        ops: &OpSet,
        obs: &mut dyn OpObserver,
        scratch: &mut LaneScratch,
        out: &mut [u8],
    ) {
        const M16: u32 = 0xFFFF;
        let [k, p0, p1, p2, p3, p4, p5, p6, p7, p8, s1, s2, s3, s4, s5, s6, s7, s8] =
            scratch.split(out.len());
        {
            // the runtime coefficients enter the multipliers as broadcast lanes
            let prods = [
                &mut *p0, &mut *p1, &mut *p2, &mut *p3, &mut *p4, &mut *p5, &mut *p6, &mut *p7,
                &mut *p8,
            ];
            for (i, (p, &coeff)) in prods.into_iter().zip(&self.kernels[mode]).enumerate() {
                k.fill(coeff as u32);
                apply_slot(ops, obs, i, t[i], k, M16, p);
            }
        }
        apply_slot(ops, obs, 9, p0, p1, M16, s1);
        apply_slot(ops, obs, 10, p2, p3, M16, s2);
        apply_slot(ops, obs, 11, p4, p5, M16, s3);
        apply_slot(ops, obs, 12, p6, p7, M16, s4);
        apply_slot(ops, obs, 13, s1, s2, M16, s5);
        apply_slot(ops, obs, 14, s3, s4, M16, s6);
        apply_slot(ops, obs, 15, s5, s6, M16, s7);
        apply_slot(ops, obs, 16, s7, p8, M16, s8);
        for (o, &v) in out.iter_mut().zip(s8.iter()) {
            *o = (v >> 8) as u8;
        }
    }

    fn build_netlist(&self, impls: &[Netlist]) -> Netlist {
        assert_eq!(impls.len(), 17, "Generic GF has seventeen operation slots");
        let mut top = Netlist::new("generic_gf");
        let pixels: Vec<Bus> = (0..9).map(|_| top.input_bus(8)).collect();
        let coeffs: Vec<Bus> = (0..9).map(|_| top.input_bus(8)).collect();
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
        let prods: Vec<Bus> = (0..9)
            .map(|i| Bus(top.instantiate(&impls[i], &concat(&pixels[i], &coeffs[i]))))
            .collect();
        let add = |slot: usize, a: &Bus, b: &Bus, top: &mut Netlist| -> Bus {
            let args = concat(&pad16(a, zero), &pad16(b, zero));
            Bus(top.instantiate(&impls[slot], &args))
        };
        let s1 = add(9, &prods[0], &prods[1], &mut top);
        let s2 = add(10, &prods[2], &prods[3], &mut top);
        let s3 = add(11, &prods[4], &prods[5], &mut top);
        let s4 = add(12, &prods[6], &prods[7], &mut top);
        let s5 = add(13, &s1, &s2, &mut top);
        let s6 = add(14, &s3, &s4, &mut top);
        let s7 = add(15, &s5, &s6, &mut top);
        let s8 = add(16, &s7, &prods[8], &mut top);
        top.push_output_bus(&s8.slice(8..16));
        top
    }
}

/// The per-pixel Generic GF model that preceded the lane kernel (test
/// oracle).
#[cfg(test)]
pub(crate) fn pixel_oracle(
    g: &GenericGaussian,
    mode: usize,
    n: &[u8; 9],
    ops: &OpSet,
    record: &mut dyn FnMut(usize, u64, u64),
) -> u8 {
    let m16 = 0xFFFFu64;
    let coeffs = &g.kernels[mode];
    let mut apply = |slot: usize, a: u64, b: u64| {
        record(slot, a, b);
        ops.apply(slot, a, b) & m16
    };
    let mut prod = [0u64; 9];
    for i in 0..9 {
        prod[i] = apply(i, n[i] as u64, coeffs[i] as u64);
    }
    let s1 = apply(9, prod[0], prod[1]);
    let s2 = apply(10, prod[2], prod[3]);
    let s3 = apply(11, prod[4], prod[5]);
    let s4 = apply(12, prod[6], prod[7]);
    let s5 = apply(13, s1, s2);
    let s6 = apply(14, s3, s4);
    let s7 = apply(15, s5, s6);
    let s8 = apply(16, s7, prod[8]);
    (s8 >> 8) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::oracle::{kernel_on, random_hoods, sim_bytes};
    use autoax_circuit::approx::Behavior;
    use autoax_image::synthetic::benchmark_suite;

    #[test]
    fn slot_inventory_matches_table1() {
        let g = GenericGaussian::with_sweep(3);
        let count = |sig: OpSignature| g.slots().iter().filter(|s| s.signature == sig).count();
        assert_eq!(g.slots().len(), 17);
        assert_eq!(count(OpSignature::MUL8), 9);
        assert_eq!(count(OpSignature::ADD16), 8);
    }

    #[test]
    fn paper_config_has_50_modes() {
        assert_eq!(GenericGaussian::paper().mode_count(), 50);
    }

    #[test]
    fn exact_model_matches_integer_reference() {
        let g = GenericGaussian::with_sweep(4);
        let exact = OpSet::exact(&g);
        for mode in 0..g.mode_count() {
            let hoods = random_hoods(100, 5 + mode as u64);
            let got = kernel_on(&g, mode, &hoods, &exact);
            for (n, &v) in hoods.iter().zip(got.iter()) {
                let want: u32 = n
                    .iter()
                    .zip(g.kernels()[mode].iter())
                    .map(|(&p, &c)| p as u32 * c as u32)
                    .sum::<u32>()
                    >> 8;
                assert_eq!(v as u32, want);
            }
        }
    }

    #[test]
    fn sigma_small_mode_is_nearly_identity() {
        let g = GenericGaussian::with_sweep(10);
        let img = benchmark_suite(1, 32, 24, 7).remove(0);
        // mode 0 has sigma=0.3: output ~ input (center coefficient ~252)
        let out = g.run(&img, &OpSet::exact(&g), 0);
        let ssim = autoax_image::ssim::ssim(&out, &img);
        assert!(ssim > 0.95, "sigma=0.3 should barely blur: {ssim}");
        // last mode (sigma=0.8) blurs much more
        let out8 = g.run(&img, &OpSet::exact(&g), 9);
        let ssim8 = autoax_image::ssim::ssim(&out8, &img);
        assert!(ssim8 < ssim, "sigma=0.8 must blur more");
    }

    #[test]
    fn netlist_matches_software_model() {
        let g = GenericGaussian::with_sweep(2);
        let impls: Vec<Netlist> = g
            .slots()
            .iter()
            .map(|sl| Behavior::exact_for(sl.signature).build_netlist())
            .collect();
        let top = g.build_netlist(&impls);
        assert_eq!(top.input_count(), 144);
        assert_eq!(top.outputs().len(), 8);
        let exact = OpSet::exact(&g);
        for mode in 0..2 {
            let hoods = random_hoods(60, 29 + mode as u64);
            let sw = kernel_on(&g, mode, &hoods, &exact);
            for (n, &sw) in hoods.iter().zip(sw.iter()) {
                let inputs: Vec<u8> = n.iter().chain(&g.kernels()[mode]).copied().collect();
                assert_eq!(sim_bytes(&top, &inputs), sw as u64, "mode {mode} {n:?}");
            }
        }
    }

    #[test]
    fn qor_of_exact_configuration_is_one() {
        let g = GenericGaussian::with_sweep(2);
        let imgs = benchmark_suite(2, 32, 24, 9);
        let golden = g.golden(&imgs);
        let q = g.qor(&imgs, &golden, &OpSet::exact(&g));
        assert!((q - 1.0).abs() < 1e-12);
    }
}
