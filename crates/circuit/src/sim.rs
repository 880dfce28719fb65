//! 64-way bit-parallel logic simulation.
//!
//! Each net carries one `u64` word per simulation call; bit lane `i` of every
//! word belongs to the `i`-th of 64 independent input assignments. This is
//! the classic EDA trick that makes exhaustive characterization of 16-bit
//! operand spaces (65 536 assignments = 1024 words) cheap.

use crate::netlist::Netlist;
use crate::util::mask;

/// Simulates all 64 lanes at once. `inputs[i]` is the word driving primary
/// input net `i`; the result contains one word per primary output.
///
/// # Panics
/// Panics if `inputs.len()` differs from the netlist's input count.
pub fn sim_lanes(netlist: &Netlist, inputs: &[u64]) -> Vec<u64> {
    let mut values = sim_all_nets(netlist, inputs);
    let outs: Vec<u64> = netlist
        .outputs()
        .iter()
        .map(|o| values[o.index()])
        .collect();
    values.clear();
    outs
}

/// Like [`sim_lanes`] but returns the word of *every* net (used by power
/// estimation, which needs internal toggle counts).
pub fn sim_all_nets(netlist: &Netlist, inputs: &[u64]) -> Vec<u64> {
    assert_eq!(
        inputs.len(),
        netlist.input_count(),
        "input word count mismatch for `{}`",
        netlist.name()
    );
    let mut values: Vec<u64> = Vec::with_capacity(netlist.net_count());
    values.extend_from_slice(inputs);
    eval_gates(netlist, &mut values);
    values
}

/// Appends the word of every gate output to `values`, which must hold
/// exactly the primary-input words. Callers simulating many blocks clear
/// and refill one buffer, so the hot loops never allocate.
fn eval_gates(netlist: &Netlist, values: &mut Vec<u64>) {
    debug_assert_eq!(values.len(), netlist.input_count());
    for gate in netlist.gates() {
        let a = values[gate.ins[0].index()];
        let b = values[gate.ins[1].index()];
        let c = values[gate.ins[2].index()];
        values.push(gate.kind.eval(a, b, c));
    }
}

/// Transposes a 64×64 bit matrix in place: afterwards bit `c` of row `r`
/// holds what was bit `r` of row `c`. Turns 64 per-net lane words into 64
/// per-lane integers (and back) in six passes of 32 word swaps instead of
/// 4096 bit moves.
fn transpose64(rows: &mut [u64; 64]) {
    swap_blocks::<32>(rows, 0x0000_0000_FFFF_FFFF);
    swap_blocks::<16>(rows, 0x0000_FFFF_0000_FFFF);
    swap_blocks::<8>(rows, 0x00FF_00FF_00FF_00FF);
    swap_blocks::<4>(rows, 0x0F0F_0F0F_0F0F_0F0F);
    swap_blocks::<2>(rows, 0x3333_3333_3333_3333);
    swap_blocks::<1>(rows, 0x5555_5555_5555_5555);
}

/// One transpose pass: within every band of `2·W` rows, swaps the high
/// `W` columns of each `2·W`-column block of the upper rows with the low
/// ones (`low` selects them) of the rows `W` further down.
#[inline(always)]
fn swap_blocks<const W: usize>(rows: &mut [u64; 64], low: u64) {
    for band in rows.chunks_exact_mut(2 * W) {
        let (upper, lower) = band.split_at_mut(W);
        for (u, l) in upper.iter_mut().zip(lower) {
            let t = ((*u >> W) ^ *l) & low;
            *u ^= t << W;
            *l ^= t;
        }
    }
}

/// Loads the words of the primary outputs into the rows of a bit matrix
/// and transposes it, so row `lane` is the LSB-first output integer of
/// simulation lane `lane`.
fn output_lanes(netlist: &Netlist, values: &[u64]) -> [u64; 64] {
    let mut rows = [0u64; 64];
    for (row, o) in rows.iter_mut().zip(netlist.outputs()) {
        *row = values[o.index()];
    }
    transpose64(&mut rows);
    rows
}

/// Panics unless every output integer fits the `u64` lanes of
/// [`output_lanes`].
fn assert_fits_u64(netlist: &Netlist) {
    let n_out = netlist.outputs().len();
    assert!(
        n_out <= 64,
        "`{}` has {n_out} outputs; a u64 result holds at most 64",
        netlist.name()
    );
}

/// Evaluates a netlist as a two-operand arithmetic circuit on a single
/// operand pair.
///
/// The first `wa` primary inputs receive the bits of `a` (LSB first), the
/// next `wb` inputs the bits of `b`. The outputs are assembled LSB-first
/// into the returned integer.
///
/// # Panics
/// Panics if the netlist does not have exactly `wa + wb` inputs.
pub fn eval_binop(netlist: &Netlist, wa: u32, wb: u32, a: u64, b: u64) -> u64 {
    assert_eq!(netlist.input_count() as u32, wa + wb);
    let mut words = Vec::with_capacity((wa + wb) as usize);
    for i in 0..wa {
        words.push(if (a >> i) & 1 != 0 { u64::MAX } else { 0 });
    }
    for i in 0..wb {
        words.push(if (b >> i) & 1 != 0 { u64::MAX } else { 0 });
    }
    let outs = sim_lanes(netlist, &words);
    let mut r = 0u64;
    for (i, w) in outs.iter().enumerate() {
        r |= (w & 1) << i;
    }
    r
}

/// Evaluates a netlist as a two-operand arithmetic circuit on a batch of
/// operand pairs, 64 pairs per simulation pass.
///
/// # Panics
/// Panics if the netlist does not have exactly `wa + wb` inputs or has
/// more than 64 outputs.
pub fn eval_binop_batch(netlist: &Netlist, wa: u32, wb: u32, pairs: &[(u64, u64)]) -> Vec<u64> {
    assert_eq!(netlist.input_count() as u32, wa + wb);
    assert_fits_u64(netlist);
    let mut results = Vec::with_capacity(pairs.len());
    let mut values = Vec::with_capacity(netlist.net_count());
    for chunk in pairs.chunks(64) {
        let mut a_bits = [0u64; 64];
        let mut b_bits = [0u64; 64];
        for (lane, &(a, b)) in chunk.iter().enumerate() {
            a_bits[lane] = a;
            b_bits[lane] = b;
        }
        let lanes = eval_binop_block(netlist, wa, wb, a_bits, b_bits, &mut values);
        results.extend_from_slice(&lanes[..chunk.len()]);
    }
    results
}

/// Lane form of [`eval_binop_batch`]: `out[i]` is the circuit's result on
/// `(a[i], b[i])`, 64 lanes per simulation pass, truncated to `u32`.
///
/// # Panics
/// Panics if the netlist does not have exactly `wa + wb` inputs, has more
/// than 64 outputs, or the slices differ in length.
pub(crate) fn eval_binop_into(
    netlist: &Netlist,
    wa: u32,
    wb: u32,
    a: &[u32],
    b: &[u32],
    out: &mut [u32],
) {
    assert_eq!(netlist.input_count() as u32, wa + wb);
    assert_fits_u64(netlist);
    assert!(
        a.len() == out.len() && b.len() == out.len(),
        "lane count mismatch"
    );
    let mut values = Vec::with_capacity(netlist.net_count());
    for ((o, a), b) in out.chunks_mut(64).zip(a.chunks(64)).zip(b.chunks(64)) {
        let mut a_bits = [0u64; 64];
        let mut b_bits = [0u64; 64];
        for (lane, (&x, &y)) in a.iter().zip(b).enumerate() {
            a_bits[lane] = x as u64;
            b_bits[lane] = y as u64;
        }
        let lanes = eval_binop_block(netlist, wa, wb, a_bits, b_bits, &mut values);
        for (o, &r) in o.iter_mut().zip(&lanes) {
            *o = r as u32;
        }
    }
}

/// One 64-lane pass of a two-operand circuit: `a_bits`/`b_bits` hold one
/// operand per lane; transposing them yields one word per operand bit
/// (bits above `wa`/`wb` are never read). Returns one result per lane.
fn eval_binop_block(
    netlist: &Netlist,
    wa: u32,
    wb: u32,
    mut a_bits: [u64; 64],
    mut b_bits: [u64; 64],
    values: &mut Vec<u64>,
) -> [u64; 64] {
    transpose64(&mut a_bits);
    transpose64(&mut b_bits);
    values.clear();
    values.extend_from_slice(&a_bits[..wa as usize]);
    values.extend_from_slice(&b_bits[..wb as usize]);
    eval_gates(netlist, values);
    output_lanes(netlist, values)
}

/// The canonical word patterns that enumerate all assignments of the lowest
/// six input variables within one 64-lane word.
const LOW_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Exhaustively evaluates a netlist with `k = input_count() ≤ 26` inputs,
/// returning one integer result per input assignment, ordered by the
/// assignment value (input 0 = LSB of the assignment index).
///
/// For a 16-input circuit this performs only 1024 bit-parallel passes,
/// all into one reused net-value buffer; each pass's output words are
/// turned into 64 result integers by one 64×64 bit transpose.
///
/// # Panics
/// Panics if the netlist has more than 26 inputs (the result vector would
/// exceed 64 M entries) or more than 64 outputs (a result would not fit a
/// `u64`).
pub fn exhaustive_outputs(netlist: &Netlist) -> Vec<u64> {
    let k = netlist.input_count();
    assert!(k <= 26, "exhaustive evaluation limited to 26 inputs");
    assert_fits_u64(netlist);
    let mut results = vec![0u64; 1usize << k];
    let mut values = Vec::with_capacity(netlist.net_count());
    for (block, lanes) in results.chunks_mut(64).enumerate() {
        values.clear();
        values.extend((0..k).map(|i| {
            if i < 6 {
                LOW_PATTERNS[i]
            } else if (block >> (i - 6)) & 1 != 0 {
                u64::MAX
            } else {
                0
            }
        }));
        eval_gates(netlist, &mut values);
        lanes.copy_from_slice(&output_lanes(netlist, &values)[..lanes.len()]);
    }
    results
}

/// Checks functional equivalence of two netlists with identical interfaces
/// on `n_samples` deterministic stimuli (exhaustively when the input space
/// is at most 2^20).
///
/// Returns the first differing assignment as a counterexample, or `None`
/// when equivalent on all tested stimuli.
pub fn check_equivalence(a: &Netlist, b: &Netlist, n_samples: usize, seed: u64) -> Option<u64> {
    assert_eq!(a.input_count(), b.input_count());
    assert_eq!(a.outputs().len(), b.outputs().len());
    let k = a.input_count() as u32;
    if k <= 20 {
        let oa = exhaustive_outputs(a);
        let ob = exhaustive_outputs(b);
        return oa
            .iter()
            .zip(ob.iter())
            .position(|(x, y)| x != y)
            .map(|p| p as u64);
    }
    let mut st = seed;
    for _ in 0..n_samples {
        let v = crate::util::splitmix64(&mut st) & mask(k);
        let words: Vec<u64> = (0..k)
            .map(|i| if (v >> i) & 1 != 0 { u64::MAX } else { 0 })
            .collect();
        if sim_lanes(a, &words)
            .iter()
            .zip(sim_lanes(b, &words).iter())
            .any(|(x, y)| (x & 1) != (y & 1))
        {
            return Some(v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::netlist::{NetId, Netlist};
    use crate::util::splitmix64;
    use proptest::prelude::*;

    /// A random netlist over `n_in` inputs: `n_gates` gates of random
    /// kinds reading random earlier nets, and `n_out` outputs drawn from
    /// all nets (repeats allowed).
    fn random_netlist(n_in: usize, n_gates: usize, n_out: usize, seed: u64) -> Netlist {
        let mut st = seed;
        let mut n = Netlist::new("random");
        for _ in 0..n_in {
            n.input();
        }
        for _ in 0..n_gates {
            let kind = CellKind::ALL[(splitmix64(&mut st) % CellKind::ALL.len() as u64) as usize];
            let nets = n.net_count() as u64;
            let mut pick = || NetId((splitmix64(&mut st) % nets) as u32);
            n.push(kind, [pick(), pick(), pick()]);
        }
        let nets = n.net_count() as u64;
        for _ in 0..n_out {
            n.push_output(NetId((splitmix64(&mut st) % nets) as u32));
        }
        n
    }

    /// The per-lane reference: one [`sim_lanes`] call per 64-lane block
    /// and a bit-by-bit gather of each lane's outputs.
    fn exhaustive_reference(n: &Netlist) -> Vec<u64> {
        let k = n.input_count();
        let total = 1usize << k;
        let mut results = Vec::with_capacity(total);
        for block in 0..total.div_ceil(64) {
            let words: Vec<u64> = (0..k)
                .map(|i| {
                    let v = |lane: usize| (((block * 64 + lane) >> i) & 1) as u64;
                    (0..64).fold(0, |w, lane| w | v(lane) << lane)
                })
                .collect();
            let outs = sim_lanes(n, &words);
            for lane in 0..(total - block * 64).min(64) {
                let bits = outs.iter().enumerate();
                results.push(bits.fold(0, |r, (oi, w)| r | ((w >> lane) & 1) << oi));
            }
        }
        results
    }

    #[test]
    fn transpose_matches_bitwise_definition() {
        let mut st = 7;
        let rows: [u64; 64] = std::array::from_fn(|_| splitmix64(&mut st));
        let mut t = rows;
        transpose64(&mut t);
        for (r, &row) in t.iter().enumerate() {
            for (c, &col) in rows.iter().enumerate() {
                assert_eq!((row >> c) & 1, (col >> r) & 1, "row {r} col {c}");
            }
        }
        transpose64(&mut t);
        assert_eq!(t, rows, "transpose is an involution");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The transposed exhaustive simulator equals the per-lane gather
        /// on random netlists: 1..=20 inputs (below 6 inputs the only
        /// block is partial) and 1..=64 outputs.
        #[test]
        fn exhaustive_matches_per_lane_reference(
            n_in in 1usize..=20,
            n_gates in 0usize..60,
            n_out in 1usize..=64,
            seed in any::<u64>(),
        ) {
            let n = random_netlist(n_in, n_gates, n_out, seed);
            prop_assert_eq!(exhaustive_outputs(&n), exhaustive_reference(&n));
        }

        /// The batched operand evaluator equals one [`eval_binop`] per
        /// pair, across partial last chunks and operands with bits above
        /// their width (which the circuit must ignore).
        #[test]
        fn batch_matches_per_pair_eval(
            wa in 1u32..=12,
            wb in 1u32..=12,
            n_gates in 0usize..60,
            n_out in 1usize..=64,
            seed in any::<u64>(),
            n_pairs in 0usize..200,
        ) {
            let n = random_netlist((wa + wb) as usize, n_gates, n_out, seed);
            let mut st = seed ^ 0x5EED;
            let pairs: Vec<(u64, u64)> = (0..n_pairs)
                .map(|_| (splitmix64(&mut st), splitmix64(&mut st)))
                .collect();
            let batch = eval_binop_batch(&n, wa, wb, &pairs);
            let single: Vec<u64> = pairs.iter().map(|&(a, b)| eval_binop(&n, wa, wb, a, b)).collect();
            prop_assert_eq!(batch, single);
        }
    }

    #[test]
    #[should_panic(expected = "65 outputs; a u64 result holds at most 64")]
    fn exhaustive_rejects_more_than_64_outputs() {
        exhaustive_outputs(&random_netlist(3, 4, 65, 1));
    }

    #[test]
    #[should_panic(expected = "65 outputs; a u64 result holds at most 64")]
    fn batch_rejects_more_than_64_outputs() {
        eval_binop_batch(&random_netlist(2, 4, 65, 1), 1, 1, &[(0, 1)]);
    }

    fn xor_netlist() -> Netlist {
        let mut n = Netlist::new("xor");
        let a = n.input();
        let b = n.input();
        let y = n.xor2(a, b);
        n.push_output(y);
        n
    }

    #[test]
    fn lanes_are_independent() {
        let n = xor_netlist();
        // lane 0: 0^0, lane 1: 1^0, lane 2: 0^1, lane 3: 1^1
        let outs = sim_lanes(&n, &[0b1010, 0b1100]);
        assert_eq!(outs[0] & 0xF, 0b0110);
    }

    #[test]
    fn eval_binop_single() {
        let n = xor_netlist();
        assert_eq!(eval_binop(&n, 1, 1, 1, 1), 0);
        assert_eq!(eval_binop(&n, 1, 1, 0, 1), 1);
    }

    #[test]
    fn batch_matches_single() {
        let n = xor_netlist();
        let pairs: Vec<(u64, u64)> = (0..200).map(|i| (i & 1, (i >> 1) & 1)).collect();
        let batch = eval_binop_batch(&n, 1, 1, &pairs);
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(batch[i], eval_binop(&n, 1, 1, a, b));
        }
    }

    #[test]
    fn exhaustive_matches_eval() {
        // 3-input majority gate netlist
        let mut n = Netlist::new("maj");
        let a = n.input();
        let b = n.input();
        let c = n.input();
        let y = n.maj3(a, b, c);
        n.push_output(y);
        let all = exhaustive_outputs(&n);
        assert_eq!(all.len(), 8);
        for v in 0u64..8 {
            let bits = (v & 1) + ((v >> 1) & 1) + ((v >> 2) & 1);
            assert_eq!(all[v as usize], u64::from(bits >= 2), "v={v}");
        }
    }

    #[test]
    fn exhaustive_large_block_boundary() {
        // 7 inputs exercises the block loop (two 64-lane blocks).
        let mut n = Netlist::new("parity7");
        let ins: Vec<_> = (0..7).map(|_| n.input()).collect();
        let mut acc = ins[0];
        for &i in &ins[1..] {
            acc = n.xor2(acc, i);
        }
        n.push_output(acc);
        let all = exhaustive_outputs(&n);
        assert_eq!(all.len(), 128);
        for v in 0u64..128 {
            assert_eq!(all[v as usize], (v.count_ones() as u64) & 1);
        }
    }

    #[test]
    fn equivalence_check_finds_difference() {
        let a = xor_netlist();
        let mut b = Netlist::new("xnor");
        let x = b.input();
        let y = b.input();
        let o = b.xnor2(x, y);
        b.push_output(o);
        assert!(check_equivalence(&a, &a.clone(), 100, 1).is_none());
        assert!(check_equivalence(&a, &b, 100, 1).is_some());
    }
}
