//! Runtime prime-path matching — the dynamic half of path coverage.
//!
//! px-analyze enumerates a program's prime paths statically
//! (`PrimePathSet`); this module recognises them as they execute. The
//! layering rule keeps px-mach below px-analyze, so everything here is
//! plain data handed down by px-core:
//!
//! * [`PathPlan`] — the immutable lookup side: a dense pc → block table
//!   and a trie over the block sequences of the *feasible* enumerated
//!   paths only. Covered ⊆ feasible holds by construction — an NT-path can
//!   physically traverse a statically-infeasible path, but it can never be
//!   *counted*, mirroring `Coverage::branch_coverage_feasible`.
//! * [`PathTrail`] — a sliding window of candidate path prefixes over the
//!   stream of block entries. Each live window is a *simple* segment of
//!   the recent trace standing at a trie node; a window dies as soon as
//!   its node has no child (no feasible path can still match it), and
//!   entering a block kills every window in which it would repeat an
//!   interior block (this pruning is the loop collapse: a hot loop's
//!   second iteration kills all windows spanning the first, so windows
//!   never grow past one unrolling), and closes windows that start with
//!   the entered block as prime-cycle candidates.
//! * [`PathCoverage`] — the mergeable covered-path bitmap, shard-shippable
//!   exactly like `Coverage` (`pack_bits`/`unpack_bits`, commutative
//!   [`PathCoverage::merge`]) but keyed by the enumeration digest:
//!   merging shards from different programs or different enumerations is
//!   a typed [`SimError::PathSetMismatch`], never a silent union.
//!
//! "Entering" a block means control *arrived* at its first instruction —
//! the budget may expire before that instruction retires, which is
//! deterministic and documented (DESIGN.md §12). All tracking is
//! observational: engines consult the plan only to update a
//! [`PathCoverage`], so taken-path and timing digests are byte-identical
//! with or without a plan.

use std::collections::VecDeque;

use px_util::fnv1a64;

use crate::fault::SimError;

/// Marks "no node" in the root table and "no path" on a trie node.
const NONE: u32 = u32::MAX;

/// The trie's root node index.
const ROOT: u32 = 0;

/// One node of the plan's path trie: the block sequence from the root.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TrieNode {
    /// This node's children are `edges[first..first + n]`.
    first: u32,
    n: u32,
    /// Index of the feasible path ending here, or [`NONE`].
    path: u32,
}

/// The immutable matcher input: everything the engines need to map a
/// stream of pcs onto enumerated prime paths. Built by px-core from a
/// `PrimePathSet` (px-mach cannot see that type).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathPlan {
    /// Instruction count of the program the plan describes.
    pub code_len: usize,
    /// FNV-1a-64 of the program's encoded instruction stream.
    pub program_digest: u64,
    /// Digest of the full enumeration (paths + feasibility + truncation):
    /// the shard-identity key for [`PathCoverage::merge`].
    pub set_digest: u64,
    /// Total enumerated prime paths (feasible and infeasible).
    pub n_paths: u32,
    /// Statically-feasible prime paths — the coverage denominator.
    pub feasible_total: u32,
    /// Whether enumeration was truncated (denominators are lower bounds).
    pub truncated: bool,
    block_starts: Vec<u32>,
    /// `rank[pc]` = number of blocks starting at or before `pc`, for every
    /// pc of the program.
    rank: Vec<u32>,
    /// Child of the root per block: the trie's dense first level.
    root: Vec<u32>,
    nodes: Vec<TrieNode>,
    /// `(block, child node)` per trie edge, grouped by parent node.
    edges: Vec<(u32, u32)>,
}

impl PathPlan {
    /// Builds a plan from enumeration output. `feasible` yields
    /// `(path index, block sequence)` for the feasible paths only.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SimError`] when `block_starts` is not strictly
    /// ascending, a path names a block out of range, or two feasible
    /// paths have the same block sequence (either of the last two would
    /// make runtime matching ambiguous).
    #[allow(clippy::too_many_arguments)]
    pub fn new<'a>(
        code_len: usize,
        program_digest: u64,
        set_digest: u64,
        block_starts: Vec<u32>,
        n_paths: u32,
        feasible_total: u32,
        truncated: bool,
        feasible: impl IntoIterator<Item = (u32, &'a [u32])>,
    ) -> Result<PathPlan, SimError> {
        if !block_starts.windows(2).all(|w| w[0] < w[1]) {
            return Err(SimError::Invariant("path plan block starts not ascending"));
        }
        let nb = block_starts.len();
        // Build with per-node child lists, then flatten them into `edges`.
        let mut children: Vec<Vec<(u32, u32)>> = vec![Vec::new()];
        let mut paths: Vec<u32> = vec![NONE];
        let mut count = 0u32;
        for (index, seq) in feasible {
            let mut node = ROOT;
            for &b in seq {
                if b as usize >= nb {
                    return Err(SimError::Invariant("prime path block out of range"));
                }
                let found = children[node as usize]
                    .iter()
                    .find(|&&(cb, _)| cb == b)
                    .map(|&(_, c)| c);
                node = found.unwrap_or_else(|| {
                    let c = paths.len() as u32;
                    children[node as usize].push((b, c));
                    children.push(Vec::new());
                    paths.push(NONE);
                    c
                });
            }
            if paths[node as usize] != NONE {
                return Err(SimError::Invariant("duplicate prime path in plan"));
            }
            paths[node as usize] = index;
            count += 1;
        }
        if count != feasible_total {
            return Err(SimError::Invariant(
                "path plan feasible count disagrees with its paths",
            ));
        }
        let mut root = vec![NONE; nb];
        for &(b, c) in &children[ROOT as usize] {
            root[b as usize] = c;
        }
        let mut nodes = Vec::with_capacity(children.len());
        let mut edges = Vec::new();
        for (kids, path) in children.into_iter().zip(paths) {
            nodes.push(TrieNode {
                first: edges.len() as u32,
                n: kids.len() as u32,
                path,
            });
            edges.extend(kids);
        }
        let mut rank = Vec::with_capacity(code_len);
        let mut r = 0usize;
        for pc in 0..code_len as u32 {
            while r < nb && block_starts[r] <= pc {
                r += 1;
            }
            rank.push(r as u32);
        }
        Ok(PathPlan {
            code_len,
            program_digest,
            set_digest,
            n_paths,
            feasible_total,
            truncated,
            block_starts,
            rank,
            root,
            nodes,
            edges,
        })
    }

    /// Number of basic blocks.
    #[must_use]
    pub fn n_blocks(&self) -> usize {
        self.block_starts.len()
    }

    /// Number of blocks starting at or before `pc`.
    fn rank(&self, pc: u64) -> usize {
        match usize::try_from(pc).ok().and_then(|i| self.rank.get(i)) {
            Some(&r) => r as usize,
            None => self.block_starts.partition_point(|&s| u64::from(s) <= pc),
        }
    }

    /// Block index of `pc` if `pc` is a block's first instruction.
    #[must_use]
    pub fn block_at(&self, pc: u32) -> Option<u32> {
        let r = self.rank(u64::from(pc));
        (r > 0 && self.block_starts[r - 1] == pc).then(|| r as u32 - 1)
    }

    /// Indices of the blocks whose first instruction lies in
    /// `(pc0, pc0 + n]` — exactly the blocks a straight-line batch of `n`
    /// instructions starting at `pc0` enters.
    #[must_use]
    pub fn blocks_in_range(&self, pc0: u32, n: u32) -> std::ops::Range<usize> {
        self.rank(u64::from(pc0))..self.rank(u64::from(pc0) + u64::from(n))
    }

    /// The feasible path index whose block sequence is exactly `blocks`,
    /// if any.
    #[must_use]
    pub fn lookup(&self, blocks: &[u32]) -> Option<u32> {
        let mut node = ROOT;
        for &b in blocks {
            if b as usize >= self.n_blocks() {
                return None;
            }
            node = self.child(node, b)?;
        }
        let path = self.nodes[node as usize].path;
        (node != ROOT && path != NONE).then_some(path)
    }

    /// The trie node reached from `node` by block `b` (`b` in range).
    fn child(&self, node: u32, b: u32) -> Option<u32> {
        let c = if node == ROOT {
            self.root[b as usize]
        } else {
            let n = &self.nodes[node as usize];
            let kids = &self.edges[n.first as usize..(n.first + n.n) as usize];
            kids.iter()
                .find(|&&(kb, _)| kb == b)
                .map_or(NONE, |&(_, c)| c)
        };
        (c != NONE).then_some(c)
    }

    /// Credits the path ending at `node`, if any; returns whether any
    /// feasible path extends past `node`.
    fn reach(&self, cov: &mut PathCoverage, node: u32) -> bool {
        let n = &self.nodes[node as usize];
        if n.path != NONE {
            cov.record(n.path);
        }
        n.n > 0
    }

    /// A fresh, empty coverage tracker for this plan.
    #[must_use]
    pub fn new_coverage(&self) -> PathCoverage {
        PathCoverage {
            set_digest: self.set_digest,
            feasible_total: self.feasible_total,
            covered: vec![false; self.n_paths as usize],
        }
    }
}

/// Sliding-window matcher state for one execution path (the taken path,
/// or one NT-path). Windows are `(start position, trie node)` pairs;
/// every live window is a simple (no-repeat) segment of the recent block
/// trace that is a proper prefix of some feasible path, sorted by start
/// position, so interior-repeat kills are always a front prefix of the
/// deque.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathTrail {
    /// `(start_pos, node)` — the window covers positions `start_pos..pos`
    /// and spells `node`'s block sequence.
    windows: VecDeque<(u64, u32)>,
    /// The blocks entered at positions `pos - recent.len()..pos`, reaching
    /// back to the oldest live window's start: the only history an
    /// interior-repeat check can need.
    recent: VecDeque<u32>,
    /// Monotonic count of blocks entered over the trail's lifetime.
    pos: u64,
}

impl PathTrail {
    /// Drops all live windows (an NT-path squash).
    pub fn reset(&mut self) {
        self.windows.clear();
        self.recent.clear();
    }

    /// Becomes a copy of `other`, reusing allocations — an NT-path spawn
    /// inherits the taken trail so prime paths spanning the divergence
    /// point still match. O(live windows).
    pub fn copy_from(&mut self, other: &PathTrail) {
        self.windows.clone_from(&other.windows);
        self.recent.clone_from(&other.recent);
        self.pos = other.pos;
    }

    /// Records that control arrived at block `block`, extending or
    /// killing windows and crediting any matched prime path to `cov`.
    pub fn enter_block(&mut self, plan: &PathPlan, cov: &mut PathCoverage, block: u32) {
        if block as usize >= plan.n_blocks() {
            return;
        }
        let q = self.pos;
        self.pos += 1;
        let base = q - self.recent.len() as u64;
        if let Some(i) = self.recent.iter().rposition(|&b| b == block) {
            let prev = base + i as u64;
            // Windows that *contain* the earlier entry of this block
            // strictly inside them would repeat an interior node: dead
            // without a check.
            while self.windows.front().is_some_and(|&(start, _)| start < prev) {
                self.windows.pop_front();
            }
            // A window that *starts* at the earlier entry closes a prime
            // cycle [b, ..., b]: check it, then kill it (any further
            // growth repeats b strictly inside).
            if let Some(&(start, node)) = self.windows.front() {
                if start == prev {
                    if let Some(c) = plan.child(node, block) {
                        plan.reach(cov, c);
                    }
                    self.windows.pop_front();
                }
            }
        }
        // Every surviving window extends by this block and stays simple;
        // it lives on only while some feasible path extends it further.
        self.windows
            .retain_mut(|(_, node)| match plan.child(*node, block) {
                Some(c) => {
                    *node = c;
                    plan.reach(cov, c)
                }
                None => false,
            });
        // And a fresh single-block window opens here.
        if let Some(c) = plan.child(ROOT, block) {
            if plan.reach(cov, c) {
                self.windows.push_back((q, c));
            }
        }
        self.recent.push_back(block);
        let keep = self
            .windows
            .front()
            .map_or(0, |&(start, _)| self.pos - start);
        while self.recent.len() as u64 > keep {
            self.recent.pop_front();
        }
    }

    /// Records arrival at `pc` if `pc` starts a block.
    pub fn enter_pc(&mut self, plan: &PathPlan, cov: &mut PathCoverage, pc: u32) {
        if let Some(b) = plan.block_at(pc) {
            self.enter_block(plan, cov, b);
        }
    }

    /// Records every block a straight-line batch of `n` instructions from
    /// `pc0` enters (starts in `(pc0, pc0 + n]`; `pc0` itself was entered
    /// when control arrived there).
    pub fn enter_range(&mut self, plan: &PathPlan, cov: &mut PathCoverage, pc0: u32, n: u32) {
        for i in plan.blocks_in_range(pc0, n) {
            self.enter_block(plan, cov, i as u32);
        }
    }
}

/// Covered-prime-path bitmap, indexed like the enumeration and keyed by
/// its digest. The mergeable/shippable shard type mirroring `Coverage`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathCoverage {
    set_digest: u64,
    feasible_total: u32,
    covered: Vec<bool>,
}

impl PathCoverage {
    /// Marks enumerated path `idx` covered.
    pub fn record(&mut self, idx: u32) {
        if let Some(c) = self.covered.get_mut(idx as usize) {
            *c = true;
        }
    }

    /// Whether enumerated path `idx` is covered.
    #[must_use]
    pub fn is_covered(&self, idx: u32) -> bool {
        self.covered.get(idx as usize).copied().unwrap_or(false)
    }

    /// The covered bitmap, indexed by enumerated path.
    #[must_use]
    pub fn covered(&self) -> &[bool] {
        &self.covered
    }

    /// Total enumerated paths the tracker is sized for (the bitmap width,
    /// needed alongside [`PathCoverage::pack_bits`] to round-trip a shard).
    #[must_use]
    pub fn n_paths(&self) -> u32 {
        self.covered.len() as u32
    }

    /// Number of covered paths. Matching credits feasible paths only, so
    /// this is also the feasible-covered numerator.
    #[must_use]
    pub fn covered_count(&self) -> u32 {
        self.covered.iter().map(|&c| u32::from(c)).sum()
    }

    /// The feasible denominator the tracker was built against.
    #[must_use]
    pub fn feasible_total(&self) -> u32 {
        self.feasible_total
    }

    /// The enumeration digest the tracker was built against.
    #[must_use]
    pub fn set_digest(&self) -> u64 {
        self.set_digest
    }

    /// Prime-path coverage in `[0, 1]`: covered / feasible. Returns 1.0
    /// when no feasible path exists.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.feasible_total == 0 {
            return 1.0;
        }
        f64::from(self.covered_count()) / f64::from(self.feasible_total)
    }

    /// Merges another tracker into this one (union of covered paths).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PathSetMismatch`] — leaving `self` untouched —
    /// when the shards come from different enumerations (different
    /// programs, limits or analyzer versions), and
    /// [`SimError::CoverageSizeMismatch`] when a same-digest shard has an
    /// impossible length (a corrupt shard).
    pub fn merge(&mut self, other: &PathCoverage) -> Result<(), SimError> {
        if self.set_digest != other.set_digest {
            return Err(SimError::PathSetMismatch {
                left: self.set_digest,
                right: other.set_digest,
            });
        }
        if self.covered.len() != other.covered.len() {
            return Err(SimError::CoverageSizeMismatch {
                left: self.covered.len(),
                right: other.covered.len(),
            });
        }
        for (a, &b) in self.covered.iter_mut().zip(&other.covered) {
            *a |= b;
        }
        Ok(())
    }

    /// Packs the covered bitmap into bytes, one bit per path (low bits
    /// first) — the campaign journal's shard form.
    #[must_use]
    pub fn pack_bits(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.covered.len().div_ceil(8)];
        for (i, &c) in self.covered.iter().enumerate() {
            if c {
                out[i / 8] |= 1 << (i % 8);
            }
        }
        out
    }

    /// Rebuilds a tracker from [`PathCoverage::pack_bits`] output plus the
    /// shard's identity.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CoverageSizeMismatch`] when `bytes` is not the
    /// packed size for `n_paths`.
    pub fn unpack_bits(
        set_digest: u64,
        feasible_total: u32,
        n_paths: u32,
        bytes: &[u8],
    ) -> Result<PathCoverage, SimError> {
        if bytes.len() != (n_paths as usize).div_ceil(8) {
            return Err(SimError::CoverageSizeMismatch {
                left: n_paths as usize,
                right: bytes.len() * 8,
            });
        }
        let covered = (0..n_paths as usize)
            .map(|i| bytes[i / 8] & (1 << (i % 8)) != 0)
            .collect();
        Ok(PathCoverage {
            set_digest,
            feasible_total,
            covered,
        })
    }

    /// FNV-1a-64 digest of the shard (identity + bitmap). Chainable:
    /// pass a previous digest as `seed`, or 0 to start fresh.
    #[must_use]
    pub fn digest(&self, seed: u64) -> u64 {
        let mut h = fnv1a64(seed, &self.set_digest.to_le_bytes());
        h = fnv1a64(h, &self.feasible_total.to_le_bytes());
        h = fnv1a64(h, &self.pack_bits());
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plan over a hand-made block graph: `paths` lists every prime
    /// path (cycles repeat their first block); all are feasible.
    fn plan_of(n_blocks: usize, paths: &[&[u32]]) -> PathPlan {
        PathPlan::new(
            n_blocks, // one instruction per block, starts 0..n
            0x1234,
            0x5678,
            (0..n_blocks as u32).collect(),
            paths.len() as u32,
            paths.len() as u32,
            false,
            paths.iter().enumerate().map(|(i, p)| (i as u32, *p)),
        )
        .unwrap()
    }

    /// Whether `path` occurs as a contiguous subsequence of `trace`.
    fn occurs(path: &[u32], trace: &[u32]) -> bool {
        !path.is_empty()
            && trace.len() >= path.len()
            && trace.windows(path.len()).any(|w| w == path)
    }

    /// Whether `seq` repeats a block other than a prime cycle's closing
    /// repeat of its first block.
    fn repeats_interior(seq: &[u32]) -> bool {
        let body = if seq.len() > 1 && seq.first() == seq.last() {
            &seq[..seq.len() - 1]
        } else {
            seq
        };
        body.iter().enumerate().any(|(i, b)| body[..i].contains(b))
    }

    #[test]
    fn matcher_agrees_with_brute_force_on_random_walks() {
        // Random graphs: enumerate all simple paths + cycles by brute
        // force, keep the maximal ones, then compare matcher vs oracle on
        // random walks. Each plan holds a random subset of the prime paths
        // (as truncation and infeasibility leave some out, so windows die
        // in the trie) plus decoy walks that repeat an interior block,
        // which the matcher must never credit. Walks squash (`reset`) and
        // spawn forks (`copy_from`) at random; the oracle searches every
        // trail's segment since its last reset.
        let mut rng = px_util::Xoshiro256::seeded(42);
        use px_util::Rng as _;
        for case in 0..400u32 {
            let n = 2 + (rng.next_u64() % 5) as usize; // 2..=6 blocks
            let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
            for (b, s) in succs.iter_mut().enumerate() {
                for t in 0..n as u32 {
                    // ~40% edge density, self-loops allowed.
                    if rng.next_u64() % 10 < 4 {
                        s.push(t);
                    }
                }
                if s.is_empty() {
                    s.push(((b as u32) + 1) % n as u32);
                }
            }
            // Brute-force prime paths: all terminal candidates, filtered.
            let mut candidates: Vec<Vec<u32>> = Vec::new();
            let mut work: Vec<Vec<u32>> = (0..n as u32).map(|b| vec![b]).collect();
            while let Some(p) = work.pop() {
                let last = *p.last().unwrap() as usize;
                let mut extended = false;
                for &s in &succs[last] {
                    if s == p[0] {
                        let mut c = p.clone();
                        c.push(s);
                        candidates.push(c);
                        extended = true;
                    } else if !p.contains(&s) {
                        let mut q = p.clone();
                        q.push(s);
                        work.push(q);
                        extended = true;
                    }
                }
                if !extended {
                    candidates.push(p);
                }
            }
            candidates.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
            let mut kept: Vec<Vec<u32>> = Vec::new();
            for c in candidates {
                if !kept
                    .iter()
                    .any(|k| k.windows(c.len()).any(|w| w == c.as_slice()))
                {
                    kept.push(c);
                }
            }
            kept.sort();
            let step = |rng: &mut px_util::Xoshiro256, cur: u32| {
                let s = &succs[cur as usize];
                s[(rng.next_u64() % s.len() as u64) as usize]
            };
            let primes = kept.len();
            for _ in 0..3 {
                let mut walk = vec![(rng.next_u64() % n as u64) as u32];
                for _ in 0..2 + rng.next_u64() % 5 {
                    walk.push(step(&mut rng, *walk.last().unwrap()));
                }
                if repeats_interior(&walk) && !kept.contains(&walk) {
                    kept.push(walk);
                }
            }
            // Every fourth case plans all prime paths; the rest ~3/4.
            let in_plan: Vec<bool> = (0..kept.len())
                .map(|i| i >= primes || case.is_multiple_of(4) || !rng.next_u64().is_multiple_of(4))
                .collect();
            let plan = PathPlan::new(
                n,
                0x1234,
                0x5678,
                (0..n as u32).collect(),
                kept.len() as u32,
                in_plan.iter().filter(|&&k| k).count() as u32,
                false,
                kept.iter()
                    .enumerate()
                    .filter(|&(i, _)| in_plan[i])
                    .map(|(i, p)| (i as u32, p.as_slice())),
            )
            .unwrap();

            let mut cov = plan.new_coverage();
            let mut taken = PathTrail::default();
            let mut nt = PathTrail::default();
            let mut segments: Vec<Vec<u32>> = Vec::new();
            let mut cur = (rng.next_u64() % n as u64) as u32;
            taken.enter_block(&plan, &mut cov, cur);
            let mut seg = vec![cur];
            for _ in 0..60 {
                match rng.next_u64() % 20 {
                    0 => {
                        taken.reset();
                        segments.push(std::mem::take(&mut seg));
                    }
                    1..=3 => {
                        // A spawn: the fork inherits the taken trail, runs
                        // a few blocks of its own, and may squash midway.
                        nt.copy_from(&taken);
                        let mut fork = seg.clone();
                        let mut at = cur;
                        for _ in 0..rng.next_u64() % 8 {
                            if rng.next_u64().is_multiple_of(16) {
                                nt.reset();
                                segments.push(std::mem::take(&mut fork));
                            }
                            at = step(&mut rng, at);
                            nt.enter_block(&plan, &mut cov, at);
                            fork.push(at);
                        }
                        segments.push(fork);
                    }
                    _ => {
                        cur = step(&mut rng, cur);
                        taken.enter_block(&plan, &mut cov, cur);
                        seg.push(cur);
                    }
                }
            }
            segments.push(seg);
            for (i, p) in kept.iter().enumerate() {
                let want = in_plan[i] && i < primes && segments.iter().any(|s| occurs(p, s));
                assert_eq!(
                    cov.is_covered(i as u32),
                    want,
                    "case {case}: path {p:?} (planned {}) in segments {segments:?}",
                    in_plan[i]
                );
            }
        }
    }

    #[test]
    fn loop_collapse_bounds_live_windows() {
        // One self-loop block: a million iterations keep O(1) windows.
        let plan = plan_of(2, &[&[0, 0], &[0, 1], &[1, 0]]);
        let mut cov = plan.new_coverage();
        let mut trail = PathTrail::default();
        for _ in 0..1000 {
            trail.enter_block(&plan, &mut cov, 0);
            assert!(trail.windows.len() <= 2, "windows stay collapsed");
        }
        trail.enter_block(&plan, &mut cov, 1);
        assert!(cov.is_covered(0), "[0,0] cycle");
        assert!(cov.is_covered(1), "[0,1]");
        assert!(!cov.is_covered(2), "[1,0] never ran");
    }

    #[test]
    fn reset_squashes_windows_but_not_coverage() {
        let plan = plan_of(3, &[&[0, 1, 2]]);
        let mut cov = plan.new_coverage();
        let mut trail = PathTrail::default();
        trail.enter_block(&plan, &mut cov, 0);
        trail.enter_block(&plan, &mut cov, 1);
        trail.reset();
        trail.enter_block(&plan, &mut cov, 2);
        assert!(!cov.is_covered(0), "squash broke the window");
        trail.enter_block(&plan, &mut cov, 0);
        trail.enter_block(&plan, &mut cov, 1);
        trail.enter_block(&plan, &mut cov, 2);
        assert!(cov.is_covered(0), "full pass after reset matches");
    }

    #[test]
    fn copy_from_lets_spawned_trails_match_across_the_divergence() {
        let plan = plan_of(4, &[&[0, 1, 2], &[0, 1, 3]]);
        let mut cov = plan.new_coverage();
        let mut taken = PathTrail::default();
        taken.enter_block(&plan, &mut cov, 0);
        taken.enter_block(&plan, &mut cov, 1);
        // Spawn: NT inherits [0,1] then diverges to 3; taken goes to 2.
        let mut nt = PathTrail::default();
        nt.copy_from(&taken);
        nt.enter_block(&plan, &mut cov, 3);
        taken.enter_block(&plan, &mut cov, 2);
        assert!(cov.is_covered(0), "taken side [0,1,2]");
        assert!(cov.is_covered(1), "NT side [0,1,3] spans the spawn");
    }

    #[test]
    fn merge_rejects_foreign_shards_and_unions_matching_ones() {
        let plan = plan_of(2, &[&[0, 1]]);
        let mut a = plan.new_coverage();
        a.record(0);
        let mut other = PathCoverage::unpack_bits(0x9999, 1, 1, &[0]).unwrap();
        let before = a.clone();
        assert_eq!(
            a.merge(&other),
            Err(SimError::PathSetMismatch {
                left: plan.set_digest,
                right: 0x9999
            })
        );
        assert_eq!(a, before, "failed merge must not mutate");
        other = plan.new_coverage();
        assert!(a.merge(&other).is_ok());
        assert_eq!(a.covered_count(), 1);
    }

    #[test]
    fn pack_bits_round_trips() {
        for n in [0u32, 1, 7, 8, 9, 64, 65] {
            let mut cov = PathCoverage {
                set_digest: 7,
                feasible_total: n,
                covered: vec![false; n as usize],
            };
            for i in (0..n).step_by(3) {
                cov.record(i);
            }
            let packed = cov.pack_bits();
            assert_eq!(packed.len(), (n as usize).div_ceil(8));
            let back = PathCoverage::unpack_bits(7, n, n, &packed).unwrap();
            assert_eq!(back, cov);
        }
        assert!(matches!(
            PathCoverage::unpack_bits(7, 4, 4, &[0, 0]),
            Err(SimError::CoverageSizeMismatch { .. })
        ));
    }

    #[test]
    fn plan_rejects_duplicate_digests_and_bad_starts() {
        let r = PathPlan::new(
            2,
            1,
            2,
            vec![0, 1],
            2,
            2,
            false,
            [(0, &[0u32, 1][..]), (1, &[0, 1][..])],
        );
        assert_eq!(r, Err(SimError::Invariant("duplicate prime path in plan")));
        let r = PathPlan::new(2, 1, 2, vec![1, 0], 0, 0, false, []);
        assert_eq!(
            r,
            Err(SimError::Invariant("path plan block starts not ascending"))
        );
        let r = PathPlan::new(2, 1, 2, vec![0, 1], 1, 1, false, [(0, &[0u32, 2][..])]);
        assert_eq!(r, Err(SimError::Invariant("prime path block out of range")));
    }

    #[test]
    fn ratio_handles_empty_denominators() {
        let plan = plan_of(1, &[]);
        let cov = plan.new_coverage();
        assert_eq!(cov.ratio(), 1.0);
        assert_eq!(cov.covered_count(), 0);
    }
}
