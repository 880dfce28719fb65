//! Compiled forest inference: the estimation kernel behind the Step-3
//! hot path.
//!
//! A fitted [`RandomForest`]/[`DecisionTree`] walks pointer-chasing
//! [`crate::tree::NodeRepr`]-shaped enum nodes one row at a time — fine
//! for fitting, hostile to a search loop that performs 10⁵–10⁶ model
//! estimates per run. [`CompiledForest`] flattens **all** trees into one
//! structure-of-arrays arena (contiguous `feature`/`threshold`/`left`/
//! `right`/`leaf` lanes, trees concatenated with root offsets) and
//! predicts whole batches with a *branchless* batch-major traversal:
//!
//! * leaves are encoded as self-loops (`left == right == self`, threshold
//!   `NaN` so `x <= t` is always false), which makes every node a split
//!   and the step `idx = if x <= t { left } else { right }` a pure
//!   arithmetic select (mask/cmov — no data-dependent branch);
//! * trees run in the outer loop over a block of rows, so one tree's
//!   lanes stay cache-hot across the whole block;
//! * per-row accumulation happens in tree order with a single final
//!   division, exactly like [`crate::engine::Regressor::predict_row`] — results are
//!   **bitwise identical** to the pointer walk.
//!
//! [`GatherForest`] goes one step further for the DSE: the per-slot
//! feature tables of the estimator are pre-baked *into* the node records
//! (each node stores the genome slot that selects the row plus a
//! precomputed comparison), so prediction runs straight off a `u16`
//! genome slab — the feature matrix is never materialized. Two node
//! encodings cover every layout: `mask32` (8-byte records holding the
//! comparison as a bitmask, for slots of ≤ 32 members) and `quant`
//! (16-byte records comparing u16 sorted ranks, for everything else).
//! Each has an AVX2 kernel, runtime-dispatched on `x86_64`, and a
//! bit-identical portable kernel.

use crate::engine::TrainError;
use crate::forest::RandomForest;
use crate::linalg::Matrix;
use crate::tree::{DecisionTree, NodeRepr};

/// Rows per traversal block: one tree's lanes are reused across this many
/// rows before the next tree streams in. Matches the cache-blocking of
/// [`RandomForest::predict`] and comfortably covers the search layer's
/// 32-candidate estimation rounds.
const BLOCK: usize = 64;

/// All trees of a fitted ensemble flattened into one structure-of-arrays
/// arena. See the module docs for the layout and identity guarantees.
#[derive(Debug, Clone)]
pub struct CompiledForest {
    /// Feature column tested at each node (0 for leaves).
    feature: Vec<u32>,
    /// Split threshold (`NaN` for leaves, so `x <= t` never holds).
    threshold: Vec<f64>,
    /// Left child (self for leaves).
    left: Vec<u32>,
    /// Right child (self for leaves).
    right: Vec<u32>,
    /// Leaf value (0 for splits — never read there).
    leaf: Vec<f64>,
    /// Root node index per tree.
    roots: Vec<u32>,
    /// Deepest leaf per tree: the fixed trip count of its traversal.
    depths: Vec<u32>,
    /// Feature-vector width the arena was compiled for.
    n_features: usize,
    /// Final per-row division (tree count for forests, 1 for a tree) —
    /// dividing (not multiplying by a reciprocal) keeps the result
    /// bitwise equal to `sum / n`.
    divisor: f64,
}

impl CompiledForest {
    /// Compiles a fitted forest. Fails on an unfitted (empty) forest.
    ///
    /// # Errors
    /// [`TrainError`] when the forest has no trees or a tree is malformed.
    pub fn from_forest(f: &RandomForest) -> Result<Self, TrainError> {
        let trees = f.fitted_trees();
        if trees.is_empty() {
            return Err(TrainError::new("cannot compile an unfitted forest"));
        }
        let lists: Vec<Vec<NodeRepr>> = trees.iter().map(|t| t.export_nodes()).collect();
        Self::from_node_lists(&lists, trees.len() as f64)
    }

    /// Compiles a fitted single tree (divisor 1 — `x / 1.0` is exact, so
    /// results still match [`crate::engine::Regressor::predict_row`] bit for bit).
    ///
    /// # Errors
    /// [`TrainError`] when the tree is unfitted or malformed.
    pub fn from_tree(t: &DecisionTree) -> Result<Self, TrainError> {
        Self::from_node_lists(&[t.export_nodes()], 1.0)
    }

    /// Compiles exported node lists (node 0 of each list is its root).
    ///
    /// # Errors
    /// [`TrainError`] on empty input, an empty tree, a child index out of
    /// range, or a node graph that is not a tree (shared or cyclic nodes
    /// would make the fixed-trip traversal diverge from the pointer walk).
    pub fn from_node_lists(lists: &[Vec<NodeRepr>], divisor: f64) -> Result<Self, TrainError> {
        if lists.is_empty() {
            return Err(TrainError::new("cannot compile zero trees"));
        }
        let total: usize = lists.iter().map(Vec::len).sum();
        if total > u32::MAX as usize {
            return Err(TrainError::new("arena exceeds u32 node indices"));
        }
        let mut arena = CompiledForest {
            feature: Vec::with_capacity(total),
            threshold: Vec::with_capacity(total),
            left: Vec::with_capacity(total),
            right: Vec::with_capacity(total),
            leaf: Vec::with_capacity(total),
            roots: Vec::with_capacity(lists.len()),
            depths: Vec::with_capacity(lists.len()),
            n_features: 0,
            divisor,
        };
        for nodes in lists {
            if nodes.is_empty() {
                return Err(TrainError::new("cannot compile an empty tree"));
            }
            let base = arena.feature.len() as u32;
            arena.roots.push(base);
            for (i, n) in nodes.iter().enumerate() {
                let me = base + i as u32;
                match *n {
                    NodeRepr::Leaf { value } => {
                        arena.feature.push(0);
                        arena.threshold.push(f64::NAN);
                        arena.left.push(me);
                        arena.right.push(me);
                        arena.leaf.push(value);
                    }
                    NodeRepr::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        if left as usize >= nodes.len() || right as usize >= nodes.len() {
                            return Err(TrainError::new("tree node child out of range"));
                        }
                        arena.n_features = arena.n_features.max(feature as usize + 1);
                        arena.feature.push(feature);
                        arena.threshold.push(threshold);
                        arena.left.push(base + left);
                        arena.right.push(base + right);
                        arena.leaf.push(0.0);
                    }
                }
            }
            arena.depths.push(tree_depth(nodes)?);
        }
        Ok(arena)
    }

    /// Number of trees in the arena.
    pub fn tree_count(&self) -> usize {
        self.roots.len()
    }

    /// Total nodes across all trees.
    pub fn node_count(&self) -> usize {
        self.feature.len()
    }

    /// Feature-vector width the arena expects (highest feature index + 1).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// FNV-1a 64 digest over every lane of the arena — two compilations
    /// are interchangeable iff their digests match, which is how the
    /// store round-trip (compile → export → reload → recompile) is pinned.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for &f in &self.feature {
            h.u32(f);
        }
        for &t in &self.threshold {
            h.u64(t.to_bits());
        }
        for &l in &self.left {
            h.u32(l);
        }
        for &r in &self.right {
            h.u32(r);
        }
        for &v in &self.leaf {
            h.u64(v.to_bits());
        }
        for &r in &self.roots {
            h.u32(r);
        }
        for &d in &self.depths {
            h.u32(d);
        }
        h.u64(self.n_features as u64);
        h.u64(self.divisor.to_bits());
        h.0
    }

    /// Predicts every row of `x`, overwriting `out` (cleared first; the
    /// caller's allocation is reused across rounds).
    ///
    /// Bitwise identical to mapping [`crate::engine::Regressor::predict_row`] of the
    /// source model over the rows.
    ///
    /// # Panics
    /// Panics when `x` has fewer columns than the arena's feature width.
    pub fn predict_matrix_into(&self, x: &Matrix, out: &mut Vec<f64>) {
        assert!(
            x.ncols() >= self.n_features,
            "matrix has {} columns, arena needs {}",
            x.ncols(),
            self.n_features
        );
        let n = x.nrows();
        out.clear();
        out.resize(n, 0.0);
        let mut idx = [0u32; BLOCK];
        for (b, chunk) in out.chunks_mut(BLOCK).enumerate() {
            let r0 = b * BLOCK;
            for (ti, &root) in self.roots.iter().enumerate() {
                idx[..chunk.len()].fill(root);
                for _ in 0..self.depths[ti] {
                    let mut changed = 0u32;
                    for (k, slot) in idx[..chunk.len()].iter_mut().enumerate() {
                        let i = *slot as usize;
                        let xv = x.row(r0 + k)[self.feature[i] as usize];
                        // mask select: no data-dependent branch
                        let m = 0u32.wrapping_sub((xv <= self.threshold[i]) as u32);
                        let next = (self.left[i] & m) | (self.right[i] & !m);
                        changed |= next ^ *slot;
                        *slot = next;
                    }
                    if changed == 0 {
                        break; // whole block settled on leaves
                    }
                }
                for (k, acc) in chunk.iter_mut().enumerate() {
                    *acc += self.leaf[idx[k] as usize];
                }
            }
        }
        for v in out.iter_mut() {
            *v /= self.divisor;
        }
    }

    /// Bakes a per-slot feature table into the arena, producing the fused
    /// genome-slab kernel of the DSE. `layout.slot_of[f]` names the
    /// genome slot whose gene selects feature `f`'s value, and
    /// `layout.values[f][g]` is the value feature `f` takes for gene `g` —
    /// exactly what a gathered feature matrix would contain, so fused
    /// predictions stay bitwise identical to the matrix path.
    ///
    /// The `mask32` encoding is baked when every read slot has ≤ 32
    /// members, the stride is ≤ 64 and every tree spans ≤ 8192 nodes;
    /// the `quant` encoding otherwise.
    ///
    /// # Errors
    /// [`TrainError`] when the layout does not cover the arena's feature
    /// width, names a slot outside its own stride, or fits neither
    /// encoding (a table longer than `u16::MAX` or a stride ≥ 2^16 when
    /// `mask32` does not apply).
    pub fn bake_gather(&self, layout: &GatherLayout) -> Result<GatherForest, TrainError> {
        if layout.slot_of.len() < self.n_features || layout.values.len() != layout.slot_of.len() {
            return Err(TrainError::new("gather layout narrower than the arena"));
        }
        let stride = layout.stride;
        let mut slot_members = vec![u32::MAX; stride];
        for (f, table) in layout.values.iter().enumerate() {
            let s = layout.slot_of[f] as usize;
            if s >= stride {
                return Err(TrainError::new("gather layout slot out of range"));
            }
            slot_members[s] = slot_members[s].min(table.len() as u32);
        }
        let (masks32, quants, ranks) = match self.bake_mask32(layout, &slot_members) {
            Some(m) => (m, Vec::new(), Vec::new()),
            None => {
                let (q, r) = self.bake_quant(layout)?;
                (Vec::new(), q, r)
            }
        };
        Ok(GatherForest {
            masks32,
            quants,
            ranks32: ranks.iter().map(|&r| r as u32).collect(),
            ranks,
            leaf: self.leaf.clone(),
            roots: self.roots.clone(),
            depths: self.depths.clone(),
            slot_members,
            stride,
            divisor: self.divisor,
        })
    }

    /// The [`Mask32Node`] records, or `None` when a slot has more than 32
    /// members, the stride exceeds 64 (6-bit slot field) or a tree spans
    /// more nodes than the 13-bit root-relative children can address.
    fn bake_mask32(&self, layout: &GatherLayout, slot_members: &[u32]) -> Option<Vec<Mask32Node>> {
        // `u32::MAX` marks a slot no feature reads — never indexed, so it
        // does not block the encoding.
        if layout.stride > 64 || !slot_members.iter().all(|&m| m <= 32 || m == u32::MAX) {
            return None;
        }
        let n = self.feature.len() as u32;
        let mut out = Vec::with_capacity(n as usize);
        for (ti, &root) in self.roots.iter().enumerate() {
            let end = self.roots.get(ti + 1).copied().unwrap_or(n);
            if end - root > (1 << 13) {
                return None;
            }
            for i in root..end {
                let i = i as usize;
                let f = self.feature[i] as usize;
                let t = self.threshold[i];
                let mut mask = 0u32;
                for (g, &v) in layout.values[f].iter().enumerate().take(32) {
                    mask |= ((v <= t) as u32) << g;
                }
                out.push(Mask32Node {
                    mask,
                    meta: (self.right[i] - root)
                        | ((self.left[i] - root) << 13)
                        | (layout.slot_of[f] << 26),
                });
            }
        }
        Some(out)
    }

    /// The [`QuantNode`] records and the flat per-gene rank slab.
    ///
    /// # Errors
    /// [`TrainError`] when a rank, a threshold rank or the slot does not
    /// fit its 16-bit field, or the rank slab outgrows 32-bit offsets.
    fn bake_quant(&self, layout: &GatherLayout) -> Result<(Vec<QuantNode>, Vec<u16>), TrainError> {
        if layout.stride >= 1 << 16 {
            return Err(TrainError::new("stride too wide for u16 quantized slots"));
        }
        if layout.values.iter().any(|t| t.len() > u16::MAX as usize) {
            return Err(TrainError::new("feature table too long for u16 ranks"));
        }
        let mut offsets = Vec::with_capacity(layout.values.len());
        let mut ranks = Vec::new();
        for table in &layout.values {
            let off = ranks.len();
            offsets.push(off as u64);
            ranks.resize(off + table.len(), 0u16);
            // Argsort with NaNs (either sign) last: members of the
            // `v <= t` set then occupy exactly the ranks below
            // `count(v <= t)` for every threshold `t`, duplicates and
            // signed zeros included.
            let mut order: Vec<u32> = (0..table.len() as u32).collect();
            order.sort_by(|&a, &b| {
                let (va, vb) = (table[a as usize], table[b as usize]);
                va.is_nan()
                    .cmp(&vb.is_nan())
                    .then(va.partial_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal))
            });
            for (pos, &g) in order.iter().enumerate() {
                ranks[off + g as usize] = pos as u16;
            }
        }
        if ranks.len() > u32::MAX as usize {
            return Err(TrainError::new("rank slab exceeds u32 offsets"));
        }
        let quants = (0..self.feature.len())
            .map(|i| {
                let f = self.feature[i] as usize;
                let t = self.threshold[i];
                // Leaves carry a NaN threshold: `v <= NaN` never holds, so
                // their count is 0 and `rank < 0` is always false — the
                // self-loop still never steps left.
                let thresh = layout.values[f].iter().filter(|&&v| v <= t).count() as u64;
                QuantNode {
                    key: offsets[f] | (thresh << 32) | ((layout.slot_of[f] as u64) << 48),
                    children: ((self.right[i] as u64) << 32) | self.left[i] as u64,
                }
            })
            .collect();
        Ok((quants, ranks))
    }
}

/// Deepest leaf of an exported tree (node 0 is the root) — the fixed trip
/// count of the branchless traversal.
fn tree_depth(nodes: &[NodeRepr]) -> Result<u32, TrainError> {
    let mut visited = vec![false; nodes.len()];
    let mut stack = vec![(0u32, 0u32)];
    let mut max = 0u32;
    while let Some((at, d)) = stack.pop() {
        let slot = &mut visited[at as usize];
        if *slot {
            return Err(TrainError::new("node graph is not a tree"));
        }
        *slot = true;
        match nodes[at as usize] {
            NodeRepr::Leaf { .. } => max = max.max(d),
            NodeRepr::Split { left, right, .. } => {
                stack.push((left, d + 1));
                stack.push((right, d + 1));
            }
        }
    }
    Ok(max)
}

/// The feature-table layout [`CompiledForest::bake_gather`] consumes:
/// how each feature column of the model maps onto (slot, per-gene value).
#[derive(Debug, Clone)]
pub struct GatherLayout {
    /// Genome stride (slot count).
    pub stride: usize,
    /// `slot_of[f]` = genome slot whose gene selects feature `f`.
    pub slot_of: Vec<u32>,
    /// `values[f][g]` = value of feature `f` when the slot's gene is `g`.
    pub values: Vec<Vec<f64>>,
}

/// One `mask32` traversal node: when every slot has ≤ 32 members, every
/// tree spans ≤ 8192 nodes and the genome stride is ≤ 64, the per-node
/// comparison `table[gene] <= threshold` is precomputed for every gene
/// into a `u32` bitmask at bake time, so a step needs neither a value
/// load nor a float compare — just `(mask >> gene) & 1`. The children
/// are stored *root-relative* in 13 bits each (`next = root + rel`;
/// leaves carry their own offset on both sides, preserving the
/// self-loop). Eight records per cache line, and the whole record is a
/// single 64-bit gather lane, so the SIMD kernel runs 8 rows per vector
/// on 32-bit lanes.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct Mask32Node {
    /// Bit `g` = `table[g] <= threshold` (0 everywhere for leaves,
    /// since `x <= NaN` never holds).
    mask: u32,
    /// Bits 0..13 root-relative right child, 13..26 root-relative left
    /// child (self for leaves), 26..32 the genome slot read here.
    meta: u32,
}

/// One `quant` traversal node: the universal extension of the
/// [`Mask32Node`] trick. At bake time every feature table is stably
/// argsorted and each gene `g` is assigned its sorted position
/// `rank[g]` (`u16`); the node stores `thresh_rank = |{v : v <= t}|`.
/// Because the `v <= t` members occupy exactly the sorted positions
/// `0..thresh_rank` (duplicates share a contiguous run that is entirely
/// in or entirely out; NaN table entries sort last and never compare
/// `<= t`), the float step `values[off+g] <= t` is **exactly**
/// `rank[off+g] < thresh_rank` — a u16-vs-u16 compare on the genome
/// slab with no float feature gather, reaching the same leaves and
/// therefore producing bit-identical predictions. 16 bytes per node.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct QuantNode {
    /// Bits 0..32 rank-slab base offset, 32..48 the threshold rank
    /// (0 for leaves — `rank < 0` never holds), 48..64 the genome slot.
    key: u64,
    /// Left child in the low 32 bits, right child in the high 32 (self
    /// for leaves).
    children: u64,
}

/// A [`CompiledForest`] with the estimator's per-slot feature tables
/// baked into the node records, fusing the feature gather into the
/// traversal — no feature matrix exists at any point. Exactly one of
/// `masks32`/`quants` is non-empty; both hold the arena's nodes in the
/// same order.
#[derive(Debug, Clone)]
pub struct GatherForest {
    /// `mask32` records (empty when the layout needs `quant`).
    masks32: Vec<Mask32Node>,
    /// `quant` records (empty when `mask32` is baked).
    quants: Vec<QuantNode>,
    /// Per-gene sorted ranks, one table after another (`quant` only).
    ranks: Vec<u16>,
    /// `ranks` widened to u32 for 32-bit SIMD gathers.
    ranks32: Vec<u32>,
    /// Leaf value per node (0 for splits — read once per row and tree).
    leaf: Vec<f64>,
    roots: Vec<u32>,
    depths: Vec<u32>,
    /// Per slot: smallest table length over the features it backs — the
    /// exclusive upper bound a gene must respect (checked per batch, so
    /// the gather kernels can load unchecked).
    slot_members: Vec<u32>,
    stride: usize,
    divisor: f64,
}

impl GatherForest {
    /// Genome stride (slot count) the kernel expects.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Predicts one value per genome row of a flat `u16` slab,
    /// overwriting `out` (cleared first; the allocation is reused across
    /// rounds). Dispatches to the encoding's AVX2 kernel when the CPU
    /// supports it; the portable kernel produces identical bits.
    ///
    /// # Panics
    /// Panics on a ragged slab or a gene outside its slot's baked table —
    /// both indicate a genome from a different configuration space.
    pub fn predict_genomes_into(&self, genes: &[u16], out: &mut Vec<f64>) {
        self.check_genes(genes);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 confirmed at runtime; gene bounds checked
            // above; the kernel's record lane is the non-empty one.
            unsafe {
                if self.masks32.is_empty() {
                    self.predict_quant_avx2(genes, out);
                } else {
                    self.predict_mask32_avx2(genes, out);
                }
            }
            return;
        }
        self.predict_scalar(genes, out);
    }

    /// The node encoding [`GatherForest::predict_genomes_into`] runs on:
    /// `"mask32"` (every slot ≤ 32 members, 8-byte bitmask records) or
    /// `"quant"` (u16 rank compare). Fixed at bake time by the layout.
    pub fn engine(&self) -> &'static str {
        if self.masks32.is_empty() {
            "quant"
        } else {
            "mask32"
        }
    }

    /// The portable kernel of the baked encoding (also the test oracle
    /// for the SIMD path). Same contract as
    /// [`GatherForest::predict_genomes_into`].
    ///
    /// # Panics
    /// Panics on a ragged slab or an out-of-range gene.
    pub fn predict_genomes_scalar_into(&self, genes: &[u16], out: &mut Vec<f64>) {
        self.check_genes(genes);
        self.predict_scalar(genes, out);
    }

    /// Per-row mean and per-tree prediction variance over the compiled
    /// arena — the refinement loop's acquisition signal, computed without
    /// materializing per-tree prediction vectors. Runs the portable block
    /// walk with sum and sum-of-squares accumulators updated per tree, in
    /// tree order, so `mean` is bitwise identical to
    /// [`GatherForest::predict_genomes_into`] and `var` is bitwise
    /// identical to brute force over the source forest's fitted trees.
    ///
    /// # Panics
    /// Panics on a ragged slab or an out-of-range gene.
    pub fn predict_genomes_stats_into(
        &self,
        genes: &[u16],
        mean: &mut Vec<f64>,
        var: &mut Vec<f64>,
    ) {
        self.check_genes(genes);
        let n = genes.len() / self.stride;
        mean.clear();
        mean.resize(n, 0.0);
        var.clear();
        var.resize(n, 0.0);
        self.walk_scalar(genes, |r, v| {
            mean[r] += v;
            var[r] += v * v;
        });
        for (m, v) in mean.iter_mut().zip(var.iter_mut()) {
            *m /= self.divisor;
            *v = (*v / self.divisor - *m * *m).max(0.0);
        }
    }

    /// Validates the slab shape and that every gene indexes inside its
    /// slot's baked table, so the kernels can gather unchecked.
    fn check_genes(&self, genes: &[u16]) {
        assert_eq!(genes.len() % self.stride, 0, "ragged genome slab");
        if genes.is_empty() {
            return;
        }
        for s in 0..self.stride {
            let mut max = 0u16;
            for &g in genes[s..].iter().step_by(self.stride) {
                max = max.max(g);
            }
            assert!(
                (max as u32) < self.slot_members[s],
                "gene {max} out of range for slot {s} ({} members)",
                self.slot_members[s]
            );
        }
    }

    fn predict_scalar(&self, genes: &[u16], out: &mut Vec<f64>) {
        out.clear();
        out.resize(genes.len() / self.stride, 0.0);
        self.walk_scalar(genes, |r, v| out[r] += v);
        for v in out.iter_mut() {
            *v /= self.divisor;
        }
    }

    /// Runs [`GatherForest::walk_blocks`] with the baked encoding's node
    /// step: `mask32` tests `(mask >> gene) & 1` and re-bases the selected
    /// 13-bit relative child on the root; `quant` compares the gene's
    /// `u16` rank against the node's threshold rank. Both select the
    /// child arithmetically — no data-dependent branch.
    fn walk_scalar(&self, genes: &[u16], leaf: impl FnMut(usize, f64)) {
        if self.masks32.is_empty() {
            self.walk_blocks(
                genes,
                |_, at, row| {
                    let nd = &self.quants[at as usize];
                    let g = row[(nd.key >> 48) as usize] as u64;
                    let r = self.ranks[((nd.key & 0xFFFF_FFFF) + g) as usize];
                    let b = ((r as u64) < ((nd.key >> 32) & 0xFFFF)) as u64;
                    // left in the low half, right in the high
                    (nd.children >> (32 & b.wrapping_sub(1))) as u32
                },
                leaf,
            );
        } else {
            self.walk_blocks(
                genes,
                |root, at, row| {
                    let nd = &self.masks32[at as usize];
                    let b = (nd.mask >> row[(nd.meta >> 26) as usize]) & 1;
                    // shift 13 selects the left field when the bit is
                    // set, 0 the right field otherwise
                    root + ((nd.meta >> (13 & b.wrapping_neg())) & 0x1FFF)
                },
                leaf,
            );
        }
    }

    /// The portable batch-major block walk shared by every scalar path:
    /// for each block of up to [`BLOCK`] rows and each tree in order,
    /// all rows of the block advance one `step(root, node, row)` per
    /// depth level until the whole block has settled on leaves, then
    /// `leaf(row, value)` receives each row's leaf value. The depth loop
    /// is OUTER and the rows inner, so the steps of one level are
    /// independent and the out-of-order window keeps ~BLOCK dependency
    /// chains in flight — the same shape (and early exit) as
    /// [`CompiledForest::predict_matrix_into`].
    fn walk_blocks(
        &self,
        genes: &[u16],
        step: impl Fn(u32, u32, &[u16]) -> u32,
        mut leaf: impl FnMut(usize, f64),
    ) {
        let mut idx = [0u32; BLOCK];
        for (b, rows) in genes.chunks(BLOCK * self.stride).enumerate() {
            let len = rows.len() / self.stride;
            for (ti, &root) in self.roots.iter().enumerate() {
                idx[..len].fill(root);
                for _ in 0..self.depths[ti] {
                    let mut changed = 0u32;
                    for (k, at) in idx[..len].iter_mut().enumerate() {
                        let next = step(root, *at, &rows[k * self.stride..]);
                        changed |= next ^ *at;
                        *at = next;
                    }
                    if changed == 0 {
                        break; // whole block settled on leaves
                    }
                }
                for (k, &at) in idx[..len].iter().enumerate() {
                    leaf(b * BLOCK + k, self.leaf[at as usize]);
                }
            }
        }
    }

    /// Quantized-rank AVX2 kernel: two 16-byte record gathers
    /// (`key`/`children`), the gene gather, and one 32-bit rank gather per
    /// step; the compare is an integer `vpcmpgtq` against the threshold
    /// rank, so — like the mask32 kernel — the float unit stays idle and
    /// no 8-byte value table is touched.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available, `genes` passed
    /// [`GatherForest::check_genes`], and `quants` is non-empty.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn predict_quant_avx2(&self, genes: &[u16], out: &mut Vec<f64>) {
        use std::arch::x86_64::*;
        let n = genes.len() / self.stride;
        out.clear();
        out.resize(n, 0.0);
        GENES32.with(|cell| {
            let mut genes32 = cell.take();
            for (b, chunk) in out.chunks_mut(BLOCK).enumerate() {
                let rows = &genes[b * BLOCK * self.stride..];
                genes32.clear();
                genes32.extend(rows[..chunk.len() * self.stride].iter().map(|&g| g as u32));
                let groups = chunk.len() / 4;
                let stride = self.stride as i64;
                let node_base = self.quants.as_ptr() as *const i64;
                let lo32 = _mm256_set1_epi64x(0xFFFF_FFFF);
                let m16 = _mm256_set1_epi64x(0xFFFF);
                for (ti, &root) in self.roots.iter().enumerate() {
                    let mut idx = [_mm256_set1_epi64x(root as i64); BLOCK / 4];
                    // settled groups stop gathering (self-loops only)
                    let mut done = [false; BLOCK / 4];
                    for _ in 0..self.depths[ti] {
                        let mut unsettled = 0i32;
                        for (gi, cur) in idx[..groups].iter_mut().enumerate() {
                            if done[gi] {
                                continue;
                            }
                            let base = (gi * 4) as i64 * stride;
                            let row_base = _mm256_set_epi64x(
                                base + 3 * stride,
                                base + 2 * stride,
                                base + stride,
                                base,
                            );
                            // 16-byte records: field f of node i is the
                            // 64-bit word at 2*i + f
                            let n2 = _mm256_slli_epi64::<1>(*cur);
                            let key = _mm256_i64gather_epi64::<8>(node_base, n2);
                            let children = _mm256_i64gather_epi64::<8>(node_base.add(1), n2);
                            let slot = _mm256_srli_epi64::<48>(key);
                            let gpos = _mm256_add_epi64(row_base, slot);
                            let gene =
                                _mm256_i64gather_epi32::<4>(genes32.as_ptr() as *const i32, gpos);
                            let rpos = _mm256_add_epi64(
                                _mm256_and_si256(key, lo32),
                                _mm256_cvtepu32_epi64(gene),
                            );
                            let rank = _mm256_i64gather_epi32::<4>(
                                self.ranks32.as_ptr() as *const i32,
                                rpos,
                            );
                            let thresh = _mm256_and_si256(_mm256_srli_epi64::<32>(key), m16);
                            // both operands < 2^16, so signed compare is safe
                            let go_left = _mm256_cmpgt_epi64(thresh, _mm256_cvtepu32_epi64(rank));
                            let l = _mm256_and_si256(children, lo32);
                            let r = _mm256_srli_epi64::<32>(children);
                            let next = _mm256_castpd_si256(_mm256_blendv_pd(
                                _mm256_castsi256_pd(r),
                                _mm256_castsi256_pd(l),
                                _mm256_castsi256_pd(go_left),
                            ));
                            let settled = _mm256_cmpeq_epi64(next, *cur);
                            let sm = _mm256_movemask_epi8(settled);
                            done[gi] = sm == -1;
                            unsettled |= sm ^ -1;
                            *cur = next;
                        }
                        if unsettled == 0 {
                            break; // whole block settled on leaves
                        }
                    }
                    for (gi, cur) in idx[..groups].iter().enumerate() {
                        let leaves = _mm256_i64gather_pd::<8>(self.leaf.as_ptr(), *cur);
                        let acc = _mm256_loadu_pd(chunk.as_ptr().add(gi * 4));
                        _mm256_storeu_pd(
                            chunk.as_mut_ptr().add(gi * 4),
                            _mm256_add_pd(acc, leaves),
                        );
                    }
                    // scalar tail: same ops, same bits
                    for k in groups * 4..chunk.len() {
                        let row = &rows[k * self.stride..(k + 1) * self.stride];
                        let mut at = root;
                        for _ in 0..self.depths[ti] {
                            let nd = &self.quants[at as usize];
                            let g = row[(nd.key >> 48) as usize] as u64;
                            let r = self.ranks[((nd.key & 0xFFFF_FFFF) + g) as usize];
                            let b = ((r as u64) < ((nd.key >> 32) & 0xFFFF)) as u64;
                            let next = (nd.children >> (32 & b.wrapping_sub(1))) as u32;
                            if next == at {
                                break;
                            }
                            at = next;
                        }
                        chunk[k] += self.leaf[at as usize];
                    }
                }
            }
            cell.replace(genes32);
        });
        for v in out.iter_mut() {
            *v /= self.divisor;
        }
    }

    /// 32-bit mask-mode AVX2 kernel: **eight** rows per vector on
    /// `epi32` lanes. A step needs two half-width record gathers (each
    /// 8-byte node is one 64-bit gather lane) plus the gene gather — 3
    /// gathers per 8 rows, where a 16-byte record spends 3 per 4 rows,
    /// halving gather issue (the binding resource of traversal on
    /// gather-weak cores). The children are root-relative 13-bit fields
    /// selected with `vpblendvb` and re-based by one `vpaddd`; every
    /// lane performs exactly the scalar step, so bits match.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available, `genes` passed
    /// [`GatherForest::check_genes`], and `masks32` is non-empty.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn predict_mask32_avx2(&self, genes: &[u16], out: &mut Vec<f64>) {
        use std::arch::x86_64::*;
        let n = genes.len() / self.stride;
        out.clear();
        out.resize(n, 0.0);
        GENES32.with(|cell| {
            let mut genes32 = cell.take();
            for (b, chunk) in out.chunks_mut(BLOCK).enumerate() {
                let rows = &genes[b * BLOCK * self.stride..];
                genes32.clear();
                genes32.extend(rows[..chunk.len() * self.stride].iter().map(|&g| g as u32));
                let groups = chunk.len() / 8;
                let stride = self.stride as i32;
                let node_base = self.masks32.as_ptr() as *const i64;
                let one = _mm256_set1_epi32(1);
                let m13 = _mm256_set1_epi32(0x1FFF);
                let lane = _mm256_mullo_epi32(
                    _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                    _mm256_set1_epi32(stride),
                );
                for (ti, &root) in self.roots.iter().enumerate() {
                    let root8 = _mm256_set1_epi32(root as i32);
                    let mut idx = [root8; BLOCK / 8];
                    // Per-group settle tracking: a group whose eight lanes
                    // all reached leaves stops gathering while straggler
                    // groups keep walking — settled lanes only self-loop,
                    // so skipping them cannot change any bit.
                    let mut done = [false; BLOCK / 8];
                    for _ in 0..self.depths[ti] {
                        let mut unsettled = 0i32;
                        for (gi, cur) in idx[..groups].iter_mut().enumerate() {
                            if done[gi] {
                                continue;
                            }
                            let row_base =
                                _mm256_add_epi32(_mm256_set1_epi32((gi * 8) as i32 * stride), lane);
                            // 8-byte records: node i IS 64-bit word i.
                            // Two half-gathers fetch all eight records...
                            let lo = _mm256_i32gather_epi64::<8>(
                                node_base,
                                _mm256_castsi256_si128(*cur),
                            );
                            let hi = _mm256_i32gather_epi64::<8>(
                                node_base,
                                _mm256_extracti128_si256::<1>(*cur),
                            );
                            // ...then mask (low 32 of each record) and
                            // meta (high 32) deinterleave back into lane
                            // order: shuffle_ps picks the even/odd 32-bit
                            // words per 128-bit half, permute4x64
                            // (0,2,1,3) undoes the half interleave.
                            let even = _mm256_castps_si256(_mm256_shuffle_ps::<0b10_00_10_00>(
                                _mm256_castsi256_ps(lo),
                                _mm256_castsi256_ps(hi),
                            ));
                            let odd = _mm256_castps_si256(_mm256_shuffle_ps::<0b11_01_11_01>(
                                _mm256_castsi256_ps(lo),
                                _mm256_castsi256_ps(hi),
                            ));
                            let masks = _mm256_permute4x64_epi64::<0b11_01_10_00>(even);
                            let metas = _mm256_permute4x64_epi64::<0b11_01_10_00>(odd);
                            let slot = _mm256_srli_epi32::<26>(metas);
                            let gpos = _mm256_add_epi32(row_base, slot);
                            let gene =
                                _mm256_i32gather_epi32::<4>(genes32.as_ptr() as *const i32, gpos);
                            // gene < 32 (the ≤32-member bake guarantee),
                            // so the variable shift never saturates
                            let bit = _mm256_and_si256(_mm256_srlv_epi32(masks, gene), one);
                            let go_left = _mm256_cmpeq_epi32(bit, one);
                            let l = _mm256_and_si256(_mm256_srli_epi32::<13>(metas), m13);
                            let r = _mm256_and_si256(metas, m13);
                            // go_left is lane-uniform, so the byte blend
                            // is a 32-bit select
                            let rel = _mm256_blendv_epi8(r, l, go_left);
                            let next = _mm256_add_epi32(root8, rel);
                            let settled = _mm256_cmpeq_epi32(next, *cur);
                            let sm = _mm256_movemask_epi8(settled);
                            done[gi] = sm == -1;
                            unsettled |= sm ^ -1;
                            *cur = next;
                        }
                        if unsettled == 0 {
                            break; // whole block settled on leaves
                        }
                    }
                    for (gi, cur) in idx[..groups].iter().enumerate() {
                        let leaves_lo = _mm256_i32gather_pd::<8>(
                            self.leaf.as_ptr(),
                            _mm256_castsi256_si128(*cur),
                        );
                        let leaves_hi = _mm256_i32gather_pd::<8>(
                            self.leaf.as_ptr(),
                            _mm256_extracti128_si256::<1>(*cur),
                        );
                        let p = chunk.as_mut_ptr().add(gi * 8);
                        _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), leaves_lo));
                        let p = p.add(4);
                        _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), leaves_hi));
                    }
                    // scalar tail: same ops, same bits
                    for k in groups * 8..chunk.len() {
                        let row = &rows[k * self.stride..(k + 1) * self.stride];
                        let mut at = root;
                        for _ in 0..self.depths[ti] {
                            let nd = &self.masks32[at as usize];
                            let g = row[(nd.meta >> 26) as usize];
                            let b = (nd.mask >> g) & 1;
                            let next = root + ((nd.meta >> (13 & b.wrapping_neg())) & 0x1FFF);
                            if next == at {
                                break;
                            }
                            at = next;
                        }
                        chunk[k] += self.leaf[at as usize];
                    }
                }
            }
            cell.replace(genes32);
        });
        for v in out.iter_mut() {
            *v /= self.divisor;
        }
    }
}

#[cfg(target_arch = "x86_64")]
thread_local! {
    /// Reusable widened-gene scratch for the AVX2 kernel (one block).
    static GENES32: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// FNV-1a 64 running hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x1_0000_0000_01B3);
        }
    }
    fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x1_0000_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Regressor;
    use crate::tree::TreeConfig;
    use proptest::prelude::*;

    /// Deterministic pseudo-random stream for test data.
    fn lcg(state: &mut u64) -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (*state >> 33) as f64 / 2.0_f64.powi(31)
    }

    fn fit_forest(n_rows: usize, n_feats: usize, trees: usize, depth: usize) -> RandomForest {
        let mut st = (n_rows * 31 + n_feats * 7 + trees) as u64 + 1;
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|_| (0..n_feats).map(|_| lcg(&mut st)).collect())
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| r.iter().enumerate().map(|(j, v)| v * (j + 1) as f64).sum())
            .collect();
        let mut f = RandomForest::new(42).with_trees(trees);
        f.tree_config.max_depth = depth;
        f.fit(&Matrix::from_rows(&rows), &y).unwrap();
        f
    }

    #[test]
    fn matrix_kernel_matches_pointer_walk_bitwise() {
        let f = fit_forest(120, 4, 17, 9);
        let cf = CompiledForest::from_forest(&f).unwrap();
        let mut st = 5u64;
        let rows: Vec<Vec<f64>> = (0..97)
            .map(|_| (0..4).map(|_| lcg(&mut st)).collect())
            .collect();
        let x = Matrix::from_rows(&rows);
        let mut out = Vec::new();
        cf.predict_matrix_into(&x, &mut out);
        assert_eq!(out.len(), 97);
        for (row, got) in rows.iter().zip(&out) {
            assert_eq!(got.to_bits(), f.predict_row(row).to_bits());
        }
    }

    #[test]
    fn single_tree_compiles_with_exact_division() {
        let f = fit_forest(60, 3, 1, 30);
        let tree = &f.fitted_trees()[0];
        let cf = CompiledForest::from_tree(tree).unwrap();
        let mut st = 9u64;
        let rows: Vec<Vec<f64>> = (0..33)
            .map(|_| (0..3).map(|_| lcg(&mut st)).collect())
            .collect();
        let mut out = Vec::new();
        cf.predict_matrix_into(&Matrix::from_rows(&rows), &mut out);
        for (row, got) in rows.iter().zip(&out) {
            assert_eq!(got.to_bits(), tree.predict_row(row).to_bits());
        }
    }

    #[test]
    fn unfitted_models_do_not_compile() {
        assert!(CompiledForest::from_forest(&RandomForest::new(0)).is_err());
        assert!(CompiledForest::from_tree(&DecisionTree::new(TreeConfig::default())).is_err());
        assert!(CompiledForest::from_node_lists(&[], 1.0).is_err());
        assert!(CompiledForest::from_node_lists(&[vec![]], 1.0).is_err());
    }

    #[test]
    fn malformed_children_are_rejected() {
        let bad = vec![NodeRepr::Split {
            feature: 0,
            threshold: 0.5,
            left: 7,
            right: 1,
        }];
        assert!(CompiledForest::from_node_lists(&[bad], 1.0).is_err());
        // a cycle (node 1 points back at the root) is not a tree
        let cyclic = vec![
            NodeRepr::Split {
                feature: 0,
                threshold: 0.5,
                left: 1,
                right: 1,
            },
            NodeRepr::Split {
                feature: 0,
                threshold: 0.2,
                left: 0,
                right: 0,
            },
        ];
        assert!(CompiledForest::from_node_lists(&[cyclic], 1.0).is_err());
    }

    #[test]
    fn digest_distinguishes_and_round_trips() {
        let f = fit_forest(80, 3, 5, 6);
        let a = CompiledForest::from_forest(&f).unwrap();
        let b = CompiledForest::from_forest(&f).unwrap();
        assert_eq!(a.digest(), b.digest());
        let g = fit_forest(80, 3, 5, 5);
        assert_ne!(
            a.digest(),
            CompiledForest::from_forest(&g).unwrap().digest()
        );
    }

    /// A random gather layout: `members` choices per slot, one feature
    /// per (slot, lane) pair like the estimator's hw table.
    fn random_layout(stride: usize, lanes: usize, members: usize, st: &mut u64) -> GatherLayout {
        let n_feats = stride * lanes;
        GatherLayout {
            stride,
            slot_of: (0..n_feats).map(|f| (f / lanes) as u32).collect(),
            values: (0..n_feats)
                .map(|_| (0..members).map(|_| lcg(st)).collect())
                .collect(),
        }
    }

    /// `rows` random genomes of `stride` genes, each below `members`.
    fn random_genes(rows: usize, stride: usize, members: usize, st: &mut u64) -> Vec<u16> {
        (0..rows * stride)
            .map(|_| (lcg(st) * members as f64) as u16 % members as u16)
            .collect()
    }

    /// Materializes the feature matrix a layout + genome slab implies —
    /// the oracle the fused kernel must match bitwise.
    fn materialize(layout: &GatherLayout, genes: &[u16]) -> Matrix {
        let rows: Vec<Vec<f64>> = genes
            .chunks_exact(layout.stride)
            .map(|row| {
                (0..layout.values.len())
                    .map(|f| layout.values[f][row[layout.slot_of[f] as usize] as usize])
                    .collect()
            })
            .collect();
        Matrix::from_rows(&rows)
    }

    /// A forest of `trees` trees fitted on the features `layout` implies
    /// for `rows` random genomes.
    fn fit_on_layout(
        layout: &GatherLayout,
        members: usize,
        rows: usize,
        trees: usize,
        seed: u64,
        st: &mut u64,
    ) -> RandomForest {
        let xt = materialize(layout, &random_genes(rows, layout.stride, members, st));
        let y: Vec<f64> = xt.rows_iter().map(|r| r.iter().sum()).collect();
        let mut f = RandomForest::new(seed).with_trees(trees);
        f.fit(&xt, &y).unwrap();
        f
    }

    /// A complete binary tree of the given depth (`2^(depth+1) - 1`
    /// nodes) with random splits over `n_feats` features.
    fn balanced_tree(depth: u32, n_feats: u32, st: &mut u64) -> Vec<NodeRepr> {
        let splits = (1u32 << depth) - 1;
        (0..2 * splits + 1)
            .map(|i| {
                if i < splits {
                    NodeRepr::Split {
                        feature: (lcg(st) * n_feats as f64) as u32 % n_feats,
                        threshold: lcg(st),
                        left: 2 * i + 1,
                        right: 2 * i + 2,
                    }
                } else {
                    NodeRepr::Leaf { value: lcg(st) }
                }
            })
            .collect()
    }

    /// Every kernel of `gf` over `genes`, labelled: the portable kernel,
    /// the encoding's AVX2 kernel where the CPU has AVX2, and the
    /// dispatched entry point.
    fn kernel_outputs(gf: &GatherForest, genes: &[u16]) -> Vec<(&'static str, Vec<f64>)> {
        let mut scalar = Vec::new();
        gf.predict_genomes_scalar_into(genes, &mut scalar);
        let mut outs = vec![("scalar", scalar)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut simd = Vec::new();
            // SAFETY: AVX2 detected; the genes passed `check_genes` in
            // the scalar call above; the kernel matches the baked lane.
            unsafe {
                if gf.masks32.is_empty() {
                    gf.predict_quant_avx2(genes, &mut simd);
                } else {
                    gf.predict_mask32_avx2(genes, &mut simd);
                }
            }
            outs.push(("avx2", simd));
        }
        let mut dispatched = Vec::new();
        gf.predict_genomes_into(genes, &mut dispatched);
        outs.push(("dispatched", dispatched));
        outs
    }

    /// Asserts every kernel of `gf` reproduces the float-compare matrix
    /// path of `cf` bit for bit.
    fn assert_kernels_match_matrix(
        cf: &CompiledForest,
        gf: &GatherForest,
        layout: &GatherLayout,
        genes: &[u16],
        label: &str,
    ) {
        let mut want = Vec::new();
        cf.predict_matrix_into(&materialize(layout, genes), &mut want);
        for (kernel, got) in kernel_outputs(gf, genes) {
            assert_eq!(got.len(), want.len(), "{label}: {kernel} length");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{label}: {kernel} row {i}");
            }
        }
    }

    #[test]
    fn fused_kernel_matches_matrix_path_bitwise() {
        let mut st = 77u64;
        let stride = 5;
        let lanes = 3;
        let members = 6;
        let layout = random_layout(stride, lanes, members, &mut st);
        // fit on materialized features so the tree actually uses them
        let f = fit_on_layout(&layout, members, 200, 12, 3, &mut st);
        let gf = CompiledForest::from_forest(&f)
            .unwrap()
            .bake_gather(&layout)
            .unwrap();
        let genes = random_genes(131, stride, members, &mut st);
        let x = materialize(&layout, &genes);
        let mut fused = Vec::new();
        gf.predict_genomes_into(&genes, &mut fused);
        let mut scalar = Vec::new();
        gf.predict_genomes_scalar_into(&genes, &mut scalar);
        assert_eq!(fused.len(), 131);
        for (i, row) in x.rows_iter().enumerate() {
            let want = f.predict_row(row).to_bits();
            assert_eq!(fused[i].to_bits(), want, "fused row {i}");
            assert_eq!(scalar[i].to_bits(), want, "scalar row {i}");
        }
    }

    #[test]
    fn encoding_boundaries_pick_the_engine_and_agree_bitwise() {
        // The mask32 budget ends at 32 members per slot; every wider
        // slot runs on quant. 131 rows straddle the traversal block and
        // leave SIMD lane-group tails.
        let stride = 4;
        for (members, engine) in [
            (1, "mask32"),
            (32, "mask32"),
            (33, "quant"),
            (64, "quant"),
            (65, "quant"),
            (200, "quant"),
        ] {
            let mut st = 101 + members as u64;
            let layout = random_layout(stride, 2, members, &mut st);
            let f = fit_on_layout(&layout, members, 140, 9, members as u64, &mut st);
            let cf = CompiledForest::from_forest(&f).unwrap();
            let gf = cf.bake_gather(&layout).unwrap();
            let label = format!("{members} members");
            assert_eq!(gf.engine(), engine, "{label}");
            let genes = random_genes(131, stride, members, &mut st);
            assert_kernels_match_matrix(&cf, &gf, &layout, &genes, &label);
        }
        // Narrow slots, but a tree wider than 8192 nodes overflows the
        // 13-bit root-relative children: quant takes it. One level
        // shallower (8191 nodes) still fits mask32.
        let mut st = 5u64;
        let members = 8;
        let layout = random_layout(stride, 2, members, &mut st);
        let n_feats = layout.values.len() as u32;
        for (depth, engine) in [(12, "mask32"), (13, "quant")] {
            let big = balanced_tree(depth, n_feats, &mut st);
            let small = balanced_tree(3, n_feats, &mut st);
            let cf = CompiledForest::from_node_lists(&[small, big], 2.0).unwrap();
            let gf = cf.bake_gather(&layout).unwrap();
            let label = format!("depth-{depth} tree");
            assert_eq!(gf.engine(), engine, "{label}");
            let genes = random_genes(131, stride, members, &mut st);
            assert_kernels_match_matrix(&cf, &gf, &layout, &genes, &label);
        }
    }

    /// `gf` re-baked on the `quant` encoding regardless of slot width —
    /// the cross-encoding oracle for narrow layouts that bake `mask32`.
    fn force_quant(cf: &CompiledForest, gf: &GatherForest, layout: &GatherLayout) -> GatherForest {
        let (quants, ranks) = cf.bake_quant(layout).unwrap();
        GatherForest {
            masks32: Vec::new(),
            quants,
            ranks32: ranks.iter().map(|&r| r as u32).collect(),
            ranks,
            ..gf.clone()
        }
    }

    #[test]
    fn wide_slots_fall_back_to_the_gather_kernel_bitwise() {
        // One slot with > 64 members: no mask width holds it, so the
        // rank-gather (`quant`) kernels carry the prediction and still
        // match the matrix path and the pointer walk exactly.
        let mut st = 13u64;
        let members = 70;
        let stride = 3;
        let layout = random_layout(stride, 2, members, &mut st);
        let f = fit_on_layout(&layout, members, 120, 9, 11, &mut st);
        let cf = CompiledForest::from_forest(&f).unwrap();
        let gf = cf.bake_gather(&layout).unwrap();
        assert_eq!(gf.engine(), "quant", "70-member slots must disable masks");
        let genes = random_genes(77, stride, members, &mut st);
        assert_kernels_match_matrix(&cf, &gf, &layout, &genes, "70 members");
        let x = materialize(&layout, &genes);
        let mut fused = Vec::new();
        gf.predict_genomes_into(&genes, &mut fused);
        for (i, row) in x.rows_iter().enumerate() {
            assert_eq!(fused[i].to_bits(), f.predict_row(row).to_bits(), "row {i}");
        }
    }

    #[test]
    fn mid_width_slots_use_mask64_records_bitwise() {
        // 33..=64 members: beyond the u32 mask. This band once baked
        // 16-byte u64-mask records; it now bakes `quant`, which must
        // reproduce the pointer walk exactly at the band's edges and
        // inside it.
        let stride = 3;
        for members in [33, 40, 64] {
            let mut st = 59 + members as u64;
            let layout = random_layout(stride, 2, members, &mut st);
            let f = fit_on_layout(&layout, members, 130, 9, 23, &mut st);
            let cf = CompiledForest::from_forest(&f).unwrap();
            let gf = cf.bake_gather(&layout).unwrap();
            let label = format!("{members} members");
            assert!(gf.masks32.is_empty(), "{label}: mask32 must stay off");
            assert_eq!(gf.engine(), "quant", "{label}");
            let genes = random_genes(97, stride, members, &mut st);
            assert_kernels_match_matrix(&cf, &gf, &layout, &genes, &label);
            let x = materialize(&layout, &genes);
            let mut fused = Vec::new();
            gf.predict_genomes_into(&genes, &mut fused);
            for (i, row) in x.rows_iter().enumerate() {
                let want = f.predict_row(row).to_bits();
                assert_eq!(fused[i].to_bits(), want, "{label}: row {i}");
            }
        }
    }

    #[test]
    fn layouts_beyond_the_quant_fields_are_rejected() {
        let f = fit_forest(40, 2, 3, 4);
        let cf = CompiledForest::from_forest(&f).unwrap();
        // a table longer than u16::MAX: its ranks overflow u16
        let long = GatherLayout {
            stride: 2,
            slot_of: vec![0, 1],
            values: vec![
                (0..=u16::MAX as usize)
                    .map(|g| g as f64 / 65536.0)
                    .collect(),
                vec![0.1, 0.5, 0.9],
            ],
        };
        assert!(cf.bake_gather(&long).is_err());
        // a stride of 2^16: past mask32's 64 slots and quant's u16 slot
        let wide = GatherLayout {
            stride: 1 << 16,
            slot_of: vec![0, 1],
            values: vec![vec![0.2, 0.7], vec![0.1, 0.9]],
        };
        assert!(cf.bake_gather(&wide).is_err());
        // the widest table quant holds still bakes
        let widest = GatherLayout {
            stride: 2,
            slot_of: vec![0, 1],
            values: vec![
                (0..u16::MAX as usize).map(|g| g as f64 / 65536.0).collect(),
                vec![0.1, 0.5, 0.9],
            ],
        };
        assert_eq!(cf.bake_gather(&widest).unwrap().engine(), "quant");
    }

    #[test]
    fn quantized_kernel_engages_for_wide_slots_and_matches_bitwise() {
        // Slots above the 32-member mask budget must bake the quantized
        // rank encoding and predict identically to both the float-compare
        // matrix path and the source forest's pointer walk.
        let mut st = 29u64;
        let members = 90;
        let layout = random_layout(4, 2, members, &mut st);
        let f = fit_on_layout(&layout, members, 160, 11, 5, &mut st);
        let cf = CompiledForest::from_forest(&f).unwrap();
        let gf = cf.bake_gather(&layout).unwrap();
        assert_eq!(gf.engine(), "quant");
        let genes = random_genes(133, 4, members, &mut st);
        assert_kernels_match_matrix(&cf, &gf, &layout, &genes, "quant");
        let x = materialize(&layout, &genes);
        let mut quant = Vec::new();
        gf.predict_genomes_into(&genes, &mut quant);
        for (i, row) in x.rows_iter().enumerate() {
            assert_eq!(quant[i].to_bits(), f.predict_row(row).to_bits(), "row {i}");
        }
    }

    #[test]
    fn quantized_ranks_handle_duplicate_table_values_exactly() {
        // Coarse value grid: many exact duplicates inside each table, so
        // split thresholds routinely land ON a duplicated value. The rank
        // compare must classify the whole duplicate run as one side.
        let mut st = 91u64;
        let members = 80;
        let stride = 3;
        let n_feats = stride * 2;
        let layout = GatherLayout {
            stride,
            slot_of: (0..n_feats).map(|f| (f as u32) / 2).collect(),
            values: (0..n_feats)
                .map(|_| {
                    (0..members)
                        .map(|_| ((lcg(&mut st) * 5.0).floor()) / 5.0)
                        .collect()
                })
                .collect(),
        };
        let xt = materialize(&layout, &random_genes(140, stride, members, &mut st));
        let y: Vec<f64> = xt
            .rows_iter()
            .map(|r| r.iter().enumerate().map(|(j, v)| v * (j + 1) as f64).sum())
            .collect();
        let mut f = RandomForest::new(17).with_trees(7);
        f.fit(&xt, &y).unwrap();
        let cf = CompiledForest::from_forest(&f).unwrap();
        let gf = cf.bake_gather(&layout).unwrap();
        assert_eq!(gf.engine(), "quant");
        let genes = random_genes(101, stride, members, &mut st);
        assert_kernels_match_matrix(&cf, &gf, &layout, &genes, "duplicates");
    }

    #[test]
    fn mask32_kernel_engages_for_narrow_slots_and_matches_bitwise() {
        // ≤ 32 members per slot: the 8-byte record encoding must engage
        // and every kernel must reproduce the pointer walk bit for bit.
        let mut st = 41u64;
        let members = 13; // paper-scale slot width (quick Sobel: ≤ 13)
        let stride = 5;
        let layout = random_layout(stride, 2, members, &mut st);
        let f = fit_on_layout(&layout, members, 150, 13, 7, &mut st);
        let cf = CompiledForest::from_forest(&f).unwrap();
        let gf = cf.bake_gather(&layout).unwrap();
        assert_eq!(gf.engine(), "mask32");
        let genes = random_genes(131, stride, members, &mut st);
        let x = materialize(&layout, &genes);
        for (kernel, got) in kernel_outputs(&gf, &genes) {
            for (i, row) in x.rows_iter().enumerate() {
                let want = f.predict_row(row).to_bits();
                assert_eq!(got[i].to_bits(), want, "{kernel} row {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range for slot")]
    fn out_of_range_gene_panics() {
        let mut st = 1u64;
        let layout = random_layout(2, 1, 3, &mut st);
        let xt = Matrix::from_rows(&[vec![0.1, 0.2], vec![0.8, 0.9], vec![0.4, 0.6]]);
        let mut f = RandomForest::new(0).with_trees(2);
        f.fit(&xt, &[1.0, 2.0, 3.0]).unwrap();
        let gf = CompiledForest::from_forest(&f)
            .unwrap()
            .bake_gather(&layout)
            .unwrap();
        gf.predict_genomes_into(&[0, 3], &mut Vec::new());
    }

    #[test]
    fn stats_kernel_matches_brute_force_mean_and_variance() {
        let stride = 4;
        // one layout per encoding
        for (members, engine) in [(5, "mask32"), (90, "quant")] {
            let mut st = 31u64 + members as u64;
            let layout = random_layout(stride, 2, members, &mut st);
            let f = fit_on_layout(&layout, members, 150, 13, 9, &mut st);
            let gf = CompiledForest::from_forest(&f)
                .unwrap()
                .bake_gather(&layout)
                .unwrap();
            assert_eq!(gf.engine(), engine);
            // 131 rows straddles the BLOCK boundary, exercising the tail
            let genes = random_genes(131, stride, members, &mut st);
            let x = materialize(&layout, &genes);
            let (mut mean, mut var) = (Vec::new(), Vec::new());
            gf.predict_genomes_stats_into(&genes, &mut mean, &mut var);
            let mut dispatched = Vec::new();
            gf.predict_genomes_into(&genes, &mut dispatched);
            for (i, row) in x.rows_iter().enumerate() {
                assert_eq!(
                    mean[i].to_bits(),
                    dispatched[i].to_bits(),
                    "{engine} mean row {i}"
                );
                assert_eq!(
                    var[i].to_bits(),
                    f.predict_variance_row(row).to_bits(),
                    "{engine} variance row {i}"
                );
            }
        }
    }

    #[test]
    fn stats_kernel_variance_is_zero_for_a_single_tree() {
        let mut st = 8u64;
        let layout = random_layout(3, 1, 4, &mut st);
        let f = fit_on_layout(&layout, 4, 60, 1, 2, &mut st);
        let gf = CompiledForest::from_forest(&f)
            .unwrap()
            .bake_gather(&layout)
            .unwrap();
        let genes = random_genes(20, 3, 4, &mut st);
        let (mut mean, mut var) = (Vec::new(), Vec::new());
        gf.predict_genomes_stats_into(&genes, &mut mean, &mut var);
        assert!(var.iter().all(|&v| v == 0.0), "single tree has no spread");
        assert_eq!(mean.len(), 20);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The compiled kernels are bitwise identical to the pointer walk
        /// across random tree depths, every slot width inside the mask32
        /// budget, batch sizes and both the matrix and the fused gather
        /// path (every kernel the CPU runs) — including batches
        /// straddling the traversal block and the 8-lane group tails.
        #[test]
        fn compiled_paths_match_pointer_walk(
            seed in 0u64..1000,
            trees in 1usize..14,
            depth in 1usize..12,
            stride in 1usize..6,
            members in 2usize..33,
            batch in 1usize..150,
        ) {
            let mut st = seed.wrapping_mul(2654435761).wrapping_add(1);
            let layout = random_layout(stride, 2, members, &mut st);
            let xt = materialize(&layout, &random_genes(90, stride, members, &mut st));
            let y: Vec<f64> = xt
                .rows_iter()
                .map(|r| r.iter().enumerate().map(|(j, v)| v * ((j % 3) as f64 + 1.0)).sum())
                .collect();
            let mut f = RandomForest::new(seed).with_trees(trees);
            f.tree_config.max_depth = depth;
            f.fit(&xt, &y).unwrap();
            let cf = CompiledForest::from_forest(&f).unwrap();
            let gf = cf.bake_gather(&layout).unwrap();
            prop_assert_eq!(gf.engine(), "mask32");
            let genes = random_genes(batch, stride, members, &mut st);
            let x = materialize(&layout, &genes);
            let mut m_out = Vec::new();
            cf.predict_matrix_into(&x, &mut m_out);
            let outs = kernel_outputs(&gf, &genes);
            for (i, row) in x.rows_iter().enumerate() {
                let want = f.predict_row(row).to_bits();
                prop_assert_eq!(m_out[i].to_bits(), want);
                for (_, got) in &outs {
                    prop_assert_eq!(got[i].to_bits(), want);
                }
            }
        }

        /// The quantized-rank kernels (scalar and, where available, AVX2)
        /// are bitwise identical to the float-compare matrix path and the
        /// pointer walk across slot widths beyond the mask32 budget,
        /// random forests and batch sizes — including batches straddling
        /// the traversal block and SIMD lane-group tails.
        #[test]
        fn quantized_kernels_match_float_compare_bitwise(
            seed in 0u64..1000,
            trees in 1usize..10,
            depth in 1usize..10,
            stride in 1usize..5,
            members in 33usize..140,
            batch in 1usize..150,
        ) {
            let mut st = seed.wrapping_mul(0x9E3779B9).wrapping_add(7);
            let layout = random_layout(stride, 2, members, &mut st);
            let xt = materialize(&layout, &random_genes(80, stride, members, &mut st));
            let y: Vec<f64> = xt
                .rows_iter()
                .map(|r| r.iter().enumerate().map(|(j, v)| v * ((j % 2) as f64 + 1.0)).sum())
                .collect();
            let mut f = RandomForest::new(seed).with_trees(trees);
            f.tree_config.max_depth = depth;
            f.fit(&xt, &y).unwrap();
            let cf = CompiledForest::from_forest(&f).unwrap();
            let gf = cf.bake_gather(&layout).unwrap();
            prop_assert_eq!(gf.engine(), "quant");
            let genes = random_genes(batch, stride, members, &mut st);
            let x = materialize(&layout, &genes);
            let mut float_compare = Vec::new();
            cf.predict_matrix_into(&x, &mut float_compare);
            let outs = kernel_outputs(&gf, &genes);
            for (i, row) in x.rows_iter().enumerate() {
                let want = f.predict_row(row).to_bits();
                prop_assert_eq!(float_compare[i].to_bits(), want);
                for (_, got) in &outs {
                    prop_assert_eq!(got[i].to_bits(), want);
                }
            }
        }

        /// The mask32 kernels (scalar and, where available, AVX2 8-lane)
        /// are bitwise identical to the wider-slot encoding baked from
        /// the same forest (`quant`, which took over from the u64-mask
        /// records) and to the pointer walk, across every slot width
        /// inside the u32 mask budget, random forests and batch sizes —
        /// including batches straddling the traversal block and the
        /// 8-lane group tails.
        #[test]
        fn mask32_kernels_match_mask64_and_pointer_walk(
            seed in 0u64..1000,
            trees in 1usize..10,
            depth in 1usize..10,
            stride in 1usize..6,
            members in 2usize..33,
            batch in 1usize..150,
        ) {
            let mut st = seed.wrapping_mul(0x85EB_CA6B).wrapping_add(3);
            let layout = random_layout(stride, 2, members, &mut st);
            let xt = materialize(&layout, &random_genes(80, stride, members, &mut st));
            let y: Vec<f64> = xt
                .rows_iter()
                .map(|r| r.iter().enumerate().map(|(j, v)| v * ((j % 2) as f64 + 1.0)).sum())
                .collect();
            let mut f = RandomForest::new(seed).with_trees(trees);
            f.tree_config.max_depth = depth;
            f.fit(&xt, &y).unwrap();
            let cf = CompiledForest::from_forest(&f).unwrap();
            let gf = cf.bake_gather(&layout).unwrap();
            prop_assert_eq!(gf.engine(), "mask32");
            let gq = force_quant(&cf, &gf, &layout);
            prop_assert_eq!(gq.engine(), "quant");
            let genes = random_genes(batch, stride, members, &mut st);
            let x = materialize(&layout, &genes);
            let m32 = kernel_outputs(&gf, &genes);
            let wide = kernel_outputs(&gq, &genes);
            for (i, row) in x.rows_iter().enumerate() {
                let want = f.predict_row(row).to_bits();
                for (_, got) in m32.iter().chain(&wide) {
                    prop_assert_eq!(got[i].to_bits(), want);
                }
            }
        }
    }
}
