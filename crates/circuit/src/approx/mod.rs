//! Approximate circuit families.
//!
//! Each family is defined twice: as a fast *functional model* (plain
//! integer arithmetic, used for software simulation and characterization)
//! and as a *netlist builder* (used for hardware cost analysis). The two
//! are kept equivalent by construction and verified by tests — the same
//! contract the EvoApprox library gives its users (C model + Verilog
//! netlist per circuit).
//!
//! Families implemented (paper Section 1 cites the originating lines of
//! work):
//!
//! | Family | Inspired by | Parameters |
//! |--------|-------------|------------|
//! | truncation (zero / operand-pass) | classic truncation | cut width `k` |
//! | [`adders::AdderKind::Loa`] | Lower-part OR Adder (Mahdiani et al.) | `k` |
//! | [`adders::AdderKind::XorLower`] | ETA-I | `k` |
//! | [`adders::AdderKind::Aca`] | Almost Correct Adder | window `r` |
//! | [`adders::AdderKind::Gear`] | GeAr (Shafique et al., DAC'15) | `(r, p)` |
//! | [`adders::AdderKind::Seg`] | QuAd (Hanif et al., DAC'17) | segmentation |
//! | [`adders::AdderKind::CellRipple`] | approximate mirror adders (AMA/AXA) | per-bit cells |
//! | [`muls::MulKind::Bam`] | Broken-Array Multiplier | `(vbl, hbl)` |
//! | [`muls::MulKind::PerfRows`] | partial-product perforation | row mask |
//! | [`muls::MulKind::Udm`] | Kulkarni 2×2 underdesigned multiplier | leaf mask |
//! | [`muls::MulKind::CellGrid`] | array multiplier with approximate cells | cell grid |
//! | [`mutate`] | CGP-evolved circuits (EvoApprox itself) | seed, #mutations |

pub mod adders;
pub mod cells;
pub mod muls;
pub mod mutate;
pub mod subs;

use crate::netlist::Netlist;
use crate::{OpKind, OpSignature};
use std::sync::Arc;

pub use cells::FaCell;

/// The complete description of one library circuit's behaviour: enough to
/// evaluate it functionally *and* to rebuild its netlist deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Behavior {
    /// An adder variant over `w`-bit operands.
    Adder { w: u32, kind: adders::AdderKind },
    /// A subtractor variant over `w`-bit operands (two's-complement
    /// `w+1`-bit result).
    Subtractor { w: u32, kind: subs::SubKind },
    /// A multiplier variant over `wa × wb`-bit operands.
    Multiplier {
        wa: u32,
        wb: u32,
        kind: muls::MulKind,
    },
    /// An arbitrary netlist (produced by structural mutation); the netlist
    /// *is* the behaviour.
    Raw {
        sig: OpSignature,
        netlist: Arc<Netlist>,
    },
}

impl Behavior {
    /// The operation signature this behaviour implements.
    pub fn signature(&self) -> OpSignature {
        match self {
            Behavior::Adder { w, .. } => OpSignature::new(OpKind::Add, *w as u8, *w as u8),
            Behavior::Subtractor { w, .. } => OpSignature::new(OpKind::Sub, *w as u8, *w as u8),
            Behavior::Multiplier { wa, wb, .. } => {
                OpSignature::new(OpKind::Mul, *wa as u8, *wb as u8)
            }
            Behavior::Raw { sig, .. } => *sig,
        }
    }

    /// Evaluates the circuit on one operand pair. Out-of-range operand bits
    /// are masked off.
    pub fn eval(&self, a: u64, b: u64) -> u64 {
        let sig = self.signature();
        let a = a & crate::util::mask(sig.width_a as u32);
        let b = b & crate::util::mask(sig.width_b as u32);
        match self {
            Behavior::Adder { w, kind } => adders::eval(*w, kind, a, b),
            Behavior::Subtractor { w, kind } => subs::eval(*w, kind, a, b),
            Behavior::Multiplier { wa, wb, kind } => muls::eval(*wa, *wb, kind, a, b),
            Behavior::Raw { sig, netlist } => {
                crate::sim::eval_binop(netlist, sig.width_a as u32, sig.width_b as u32, a, b)
            }
        }
    }

    /// Evaluates the circuit over lanes: `out[i] = eval(a[i], b[i])`, bit
    /// for bit, out-of-range operand bits masked off as in
    /// [`Behavior::eval`].
    ///
    /// The family is dispatched once per batch; each family then runs a
    /// loop over the lanes whose shape depends only on its parameters
    /// (truncation, LOA and XOR lower parts are plain bit operations that
    /// vectorize). [`Behavior::Raw`] simulates 64 lanes per pass.
    ///
    /// # Panics
    /// Panics if the three slices differ in length or the result is wider
    /// than 32 bits.
    pub fn eval_into(&self, a: &[u32], b: &[u32], out: &mut [u32]) {
        assert!(
            a.len() == out.len() && b.len() == out.len(),
            "lane count mismatch: a {}, b {}, out {}",
            a.len(),
            b.len(),
            out.len()
        );
        let sig = self.signature();
        assert!(
            sig.output_width() <= 32,
            "{sig} results do not fit u32 lanes"
        );
        match self {
            Behavior::Adder { w, kind } => adders::eval_into(*w, kind, a, b, out),
            Behavior::Subtractor { w, kind } => subs::eval_into(*w, kind, a, b, out),
            Behavior::Multiplier { wa, wb, kind } => muls::eval_into(*wa, *wb, kind, a, b, out),
            Behavior::Raw { sig, netlist } => crate::sim::eval_binop_into(
                netlist,
                sig.width_a as u32,
                sig.width_b as u32,
                a,
                b,
                out,
            ),
        }
    }

    /// Builds (or clones) the gate-level netlist realizing this behaviour.
    pub fn build_netlist(&self) -> Netlist {
        match self {
            Behavior::Adder { w, kind } => adders::build_netlist(*w, kind),
            Behavior::Subtractor { w, kind } => subs::build_netlist(*w, kind),
            Behavior::Multiplier { wa, wb, kind } => muls::build_netlist(*wa, *wb, kind),
            Behavior::Raw { netlist, .. } => (**netlist).clone(),
        }
    }

    /// A short human-readable family/parameter label (used in reports).
    pub fn label(&self) -> String {
        match self {
            Behavior::Adder { kind, .. } => kind.label(),
            Behavior::Subtractor { kind, .. } => kind.label(),
            Behavior::Multiplier { kind, .. } => kind.label(),
            Behavior::Raw { .. } => "mutant".to_string(),
        }
    }

    /// The exact behaviour for a signature (entry 0 of every library class).
    pub fn exact_for(sig: OpSignature) -> Behavior {
        match sig.kind {
            OpKind::Add => Behavior::Adder {
                w: sig.width_a as u32,
                kind: adders::AdderKind::Exact,
            },
            OpKind::Sub => Behavior::Subtractor {
                w: sig.width_a as u32,
                kind: subs::SubKind::Exact,
            },
            OpKind::Mul => Behavior::Multiplier {
                wa: sig.width_a as u32,
                wb: sig.width_b as u32,
                kind: muls::MulKind::Exact,
            },
        }
    }
}

/// The lane loop shared by the families' `eval_into`:
/// `out[i] = f(a[i] & ma, b[i] & mb)`. With a branch-free `f` LLVM
/// vectorizes it.
#[inline(always)]
pub(crate) fn map_lanes(
    a: &[u32],
    b: &[u32],
    out: &mut [u32],
    ma: u32,
    mb: u32,
    f: impl Fn(u32, u32) -> u32,
) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x & ma, y & mb);
    }
}

/// `out[i] |= f(a[i] & ma, b[i] & ma)` — one pass of a multi-pass family
/// (both operands share the width `ma`).
#[inline(always)]
pub(crate) fn or_lanes(
    a: &[u32],
    b: &[u32],
    out: &mut [u32],
    ma: u32,
    f: impl Fn(u32, u32) -> u32,
) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o |= f(x & ma, y & ma);
    }
}

/// A `w`-bit lane mask (`w <= 32`).
#[inline]
pub(crate) const fn mask32(w: u32) -> u32 {
    crate::util::mask(w) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::splitmix64;
    use proptest::prelude::*;

    #[test]
    fn exact_behaviors_match_signature_exact() {
        for sig in OpSignature::PAPER_CLASSES {
            let b = Behavior::exact_for(sig);
            assert_eq!(b.signature(), sig);
            for (x, y) in
                crate::util::stimulus_pairs(sig.width_a as u32, sig.width_b as u32, 300, 42)
            {
                assert_eq!(b.eval(x, y), sig.exact(x, y), "{sig} a={x} b={y}");
            }
        }
    }

    #[test]
    fn exact_netlists_match_functional() {
        for sig in OpSignature::PAPER_CLASSES {
            let b = Behavior::exact_for(sig);
            let n = b.build_netlist();
            for (x, y) in
                crate::util::stimulus_pairs(sig.width_a as u32, sig.width_b as u32, 100, 7)
            {
                let f = b.eval(x, y);
                let g = crate::sim::eval_binop(&n, sig.width_a as u32, sig.width_b as u32, x, y);
                assert_eq!(f, g, "{sig} a={x} b={y}");
            }
        }
    }

    /// Every family of every operation kind, at the paper's widths plus
    /// odd ones, and two netlist behaviours (a rebuilt adder and a
    /// mutant): the population `eval_into` must match `eval` on.
    fn every_family(seed: u64) -> Vec<Behavior> {
        use adders::AdderKind as A;
        use muls::MulKind as M;
        use subs::SubKind as S;
        let mut st = seed;
        let mut cells =
            |n: u32| -> Arc<[FaCell]> { (0..n).map(|_| FaCell::random(&mut st)).collect() };
        let mut out = Vec::new();
        for w in [3u32, 8, 9, 10, 16] {
            let k = (w / 3).max(1);
            let adds = [
                A::Exact,
                A::ExactCla,
                A::TruncZero { k },
                A::TruncPass { k },
                A::Loa { k },
                A::Loa { k: 1 },
                A::XorLower { k },
                A::Aca { r: 1 },
                A::Aca { r: k + 1 },
                A::Gear { r: 2, p: 1 },
                A::Gear { r: 3, p: 2 },
                A::Gear { r: w, p: 1 },
                A::Seg {
                    segs: vec![(w / 2) as u8, (w - w / 2) as u8],
                    speculate: false,
                },
                A::Seg {
                    segs: vec![1, (w - 2) as u8, 1],
                    speculate: true,
                },
                A::CellRipple { cells: cells(w) },
            ];
            out.extend(adds.into_iter().map(|kind| Behavior::Adder { w, kind }));
            let subs = [
                S::Exact,
                S::TruncZero { k },
                S::TruncPass { k },
                S::XorLower { k },
                S::Seg {
                    segs: vec![(w - w / 3) as u8, (w / 3) as u8],
                },
                S::CellRipple { cells: cells(w) },
            ];
            out.extend(
                subs.into_iter()
                    .map(|kind| Behavior::Subtractor { w, kind }),
            );
        }
        for (wa, wb) in [(8u32, 8u32), (4, 4), (6, 3)] {
            let muls = [
                M::Exact,
                M::ExactWallace,
                M::Bam { vbl: wa, hbl: 2 },
                M::Bam { vbl: 0, hbl: 0 },
                M::Trunc { k: 3, comp: false },
                M::Trunc { k: 3, comp: true },
                M::PerfRows { row_mask: 0b101 },
                M::CellGrid {
                    cells: cells((wb - 1) * wa),
                },
            ];
            out.extend(
                muls.into_iter()
                    .map(|kind| Behavior::Multiplier { wa, wb, kind }),
            );
        }
        for leaf_mask in [0u16, 0x0F0F, 0xFFFF] {
            out.push(Behavior::Multiplier {
                wa: 8,
                wb: 8,
                kind: M::Udm { leaf_mask },
            });
        }
        for sig in [OpSignature::ADD9, OpSignature::SUB10, OpSignature::MUL8] {
            let base = Behavior::exact_for(sig).build_netlist();
            let mutant = crate::approx::mutate::mutate_netlist(&base, 6, seed);
            for netlist in [base, mutant] {
                out.push(Behavior::Raw {
                    sig,
                    netlist: Arc::new(netlist),
                });
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `eval_into` is `eval` bit for bit on every family, at lane
        /// counts around the 64-lane simulator block (0, 1, 63, 64, 65,
        /// and one random count), with operands whose bits above the
        /// class width are set (which every path must mask off).
        #[test]
        fn eval_into_is_eval_per_lane(seed in any::<u64>(), extra in 2usize..200) {
            let mut st = seed ^ 0x1A4E;
            for behavior in every_family(seed) {
                for n in [0usize, 1, 63, 64, 65, extra] {
                    let a: Vec<u32> = (0..n).map(|_| splitmix64(&mut st) as u32).collect();
                    let b: Vec<u32> = (0..n).map(|_| splitmix64(&mut st) as u32).collect();
                    let mut out = vec![0xDEAD_BEEF; n];
                    behavior.eval_into(&a, &b, &mut out);
                    for i in 0..n {
                        let want = behavior.eval(a[i] as u64, b[i] as u64);
                        prop_assert_eq!(
                            out[i] as u64,
                            want,
                            "{} {} lane {}/{}: a={:#x} b={:#x}",
                            behavior.signature(),
                            behavior.label(),
                            i,
                            n,
                            a[i],
                            b[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn eval_masks_out_of_range_operands() {
        let b = Behavior::exact_for(OpSignature::ADD8);
        assert_eq!(b.eval(0x1FF, 0), 0xFF); // high bit masked
    }
}
