//! Prime-path enumeration — the static half of path coverage.
//!
//! A *prime path* is a maximal simple path in the CFG's block graph: no
//! block repeats, except that the first and last block may coincide (a
//! *prime cycle*), and the path is not a contiguous subpath of any other
//! simple path. Prime-path coverage subsumes branch coverage and bounded
//! loop coverage while staying finite, which is why the GCC-15 coverage
//! work adopted it; PathExpander's NT-paths are precisely a device for
//! covering more of them per input.
//!
//! The enumeration follows the classic worklist scheme (Ammann–Offutt,
//! as implemented in GCC's `path-coverage.cc`): seed every reachable
//! block as a length-1 simple path, extend each path by successors that
//! do not repeat an interior block, emit a *candidate* when a path ends
//! where it started (a cycle) or cannot be extended at all, then keep the
//! candidates that are not contiguous subpaths of longer candidates.
//! Two compression/bounding tricks keep pathological CFGs (for instance
//! `ra`-discipline-broken programs whose `ret` may edge anywhere) cheap:
//!
//! * per-block **path-count vectors** ([`PrimePathSet::block_path_counts`])
//!   summarise the set without materialising per-block path lists, and the
//!   subsumption filter only compares a candidate against kept paths that
//!   contain its first block;
//! * hard **caps** on worklist steps, candidates and kept paths truncate
//!   enumeration deterministically, with an explicit
//!   [`PrimePathSet::truncated`] flag so downstream consumers know the
//!   denominator is a lower bound.
//!
//! The work itself is kept allocation-free: worklist paths are
//! parent-pointer records in one arena with a 64-bit block mask for the
//! repeat check, only terminal candidates become `Vec`s, and a
//! fingerprint set of every contiguous subpath of the kept paths lets
//! most candidates skip the exact subsumption scan.
//!
//! Feasibility is intersected with sparse constant propagation: a prime
//! path is *feasible* only if every block on it is constprop-reachable and
//! every branch-to-successor step uses a statically-feasible edge. The
//! coverage denominator reported everywhere is the count of feasible
//! prime paths — infeasible ones are enumerated (they are real structure)
//! but never counted against coverage, mirroring
//! `Coverage::branch_coverage_feasible`.
//!
//! Everything here is deterministic: paths are kept in lexicographic
//! block order, digests are FNV-1a-64 over little-endian block indices,
//! and [`PrimePathSet::to_json`] is byte-identical across invocations.

use std::collections::HashSet;

use px_isa::{encode_program, Instruction, Program};
use px_util::{fnv1a64, hex64, Json};

use crate::cfg::{Block, BranchEdge, EXIT};
use crate::Analysis;

/// Bounds on prime-path enumeration. All three caps truncate the result
/// deterministically (the kept set is always the lexicographically
/// smallest prefix of what unbounded enumeration would keep) and set
/// [`PrimePathSet::truncated`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathLimits {
    /// Maximum prime paths kept after the maximality filter.
    pub max_paths: usize,
    /// Maximum terminal candidates collected before filtering.
    pub max_candidates: usize,
    /// Maximum worklist extension steps.
    pub max_work: u64,
}

impl Default for PathLimits {
    fn default() -> PathLimits {
        PathLimits {
            max_paths: 2048,
            max_candidates: 8192,
            max_work: 150_000,
        }
    }
}

/// One enumerated prime path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimePath {
    /// Block indices, in execution order. A prime cycle repeats its first
    /// block as its last.
    pub blocks: Vec<u32>,
    /// FNV-1a-64 over the block indices as little-endian `u32`s, folded
    /// one block at a time from seed 0 — exactly the fold the runtime
    /// matcher computes incrementally.
    pub digest: u64,
    /// Whether constant propagation considers every block and every
    /// branch edge on the path statically feasible.
    pub feasible: bool,
}

/// The deterministic result of prime-path enumeration over one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimePathSet {
    paths: Vec<PrimePath>,
    block_starts: Vec<u32>,
    block_path_counts: Vec<u32>,
    code_len: usize,
    program_digest: u64,
    truncated: bool,
    feasible_count: usize,
    max_len: usize,
    digest: u64,
}

impl PrimePathSet {
    /// Enumerates prime paths with [`PathLimits::default`] — the bounds
    /// every production surface (CLI, bench, campaign) uses, so their
    /// digests agree.
    #[must_use]
    pub fn enumerate(program: &Program, analysis: &Analysis) -> PrimePathSet {
        PrimePathSet::enumerate_with(program, analysis, &PathLimits::default())
    }

    /// Enumerates prime paths under explicit bounds.
    #[must_use]
    pub fn enumerate_with(
        program: &Program,
        analysis: &Analysis,
        limits: &PathLimits,
    ) -> PrimePathSet {
        let cfg = analysis.cfg();
        let blocks = cfg.blocks();
        let nb = blocks.len();

        // Block-level successor lists (EXIT dropped, deduplicated).
        let mut bsuccs: Vec<Vec<u32>> = vec![Vec::new(); nb];
        for (b, block) in blocks.iter().enumerate() {
            let last = block.end - 1;
            for &s in cfg.succs(last) {
                if s != EXIT {
                    let sb = cfg.block_of(s);
                    if !bsuccs[b].contains(&sb) {
                        bsuccs[b].push(sb);
                    }
                }
            }
        }
        let reach_insn = cfg.reachable(program.entry);
        let reachable: Vec<bool> = blocks
            .iter()
            .map(|bl| reach_insn.get(bl.start as usize).copied().unwrap_or(false))
            .collect();

        // Worklist extension: FIFO order makes truncation deterministic.
        // Work items live in a parent-pointer arena appended in push
        // order, so the FIFO is the arena itself and popping a path is
        // advancing `next`; only terminal candidates become `Vec`s.
        let mut arena: Vec<Step> = (0..nb as u32)
            .filter(|&b| reachable[b as usize])
            .map(|b| Step {
                parent: NO_PARENT,
                block: b,
                first: b,
                len: 1,
                mask: block_bit(b),
            })
            .collect();
        let mut candidates: Vec<Vec<u32>> = Vec::new();
        let mut truncated = false;
        let mut budget = limits.max_work;
        let mut next = 0usize;
        while next < arena.len() {
            if budget == 0 || candidates.len() >= limits.max_candidates {
                truncated = true;
                break;
            }
            budget -= 1;
            let p = arena[next];
            let pi = next as u32;
            next += 1;
            let mut extended = false;
            for &s in &bsuccs[p.block as usize] {
                if s == p.first {
                    // Closing the cycle: [p, s] is a terminal candidate and
                    // p itself is one of its subpaths.
                    candidates.push(materialize(&arena, pi, Some(s)));
                    extended = true;
                } else if !on_path(&arena, pi, s) {
                    arena.push(Step {
                        parent: pi,
                        block: s,
                        first: p.first,
                        len: p.len + 1,
                        mask: p.mask | block_bit(s),
                    });
                    extended = true;
                }
            }
            if !extended {
                candidates.push(materialize(&arena, pi, None));
            }
        }
        // Free the arena before the filter allocates its own tables.
        drop(arena);

        // Maximality: drop candidates that are contiguous subpaths of a
        // longer candidate. Longest-first makes checking against the kept
        // set sufficient (subpath-of is transitive). Every contiguous
        // subpath of a kept path is fingerprinted, so a candidate whose
        // fingerprint is absent is kept without a scan; on a hit the exact
        // scan, over kept paths sharing the candidate's first block,
        // decides.
        candidates.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
        let mut kept: Vec<Vec<u32>> = Vec::new();
        let mut by_block: Vec<Vec<u32>> = vec![Vec::new(); nb];
        let mut subpaths: HashSet<u64> = HashSet::new();
        for c in candidates {
            if subpaths.contains(&block_digest(&c)) {
                let anchor = c[0] as usize;
                if by_block[anchor]
                    .iter()
                    .any(|&ki| is_subpath(&c, &kept[ki as usize]))
                {
                    continue;
                }
            }
            let ki = kept.len() as u32;
            for (i, &b) in c.iter().enumerate() {
                // A cycle repeats its first block; register it once.
                if !(i + 1 == c.len() && c.len() > 1 && b == c[0]) {
                    by_block[b as usize].push(ki);
                }
                let mut h = 0u64;
                for &x in &c[i..] {
                    h = fnv1a64(h, &x.to_le_bytes());
                    subpaths.insert(h);
                }
            }
            kept.push(c);
        }
        kept.sort();
        if kept.len() > limits.max_paths {
            kept.truncate(limits.max_paths);
            truncated = true;
        }

        let program_digest = fnv1a64(0, &encode_program(&program.code));
        let paths: Vec<PrimePath> = kept
            .into_iter()
            .map(|seq| {
                let feasible = path_feasible(program, analysis, blocks, &seq);
                PrimePath {
                    digest: block_digest(&seq),
                    blocks: seq,
                    feasible,
                }
            })
            .collect();

        let mut block_path_counts = vec![0u32; nb];
        for p in &paths {
            for (i, &b) in p.blocks.iter().enumerate() {
                if i + 1 == p.blocks.len() && p.blocks.len() > 1 && b == p.blocks[0] {
                    continue;
                }
                block_path_counts[b as usize] += 1;
            }
        }
        let feasible_count = paths.iter().filter(|p| p.feasible).count();
        let max_len = paths.iter().map(|p| p.blocks.len()).max().unwrap_or(0);
        let code_len = program.code.len();

        let mut h = fnv1a64(program_digest, b"prime-path-set-v1");
        h = fnv1a64(h, &(code_len as u64).to_le_bytes());
        h = fnv1a64(h, &(nb as u64).to_le_bytes());
        h = fnv1a64(h, &[u8::from(truncated)]);
        for p in &paths {
            h = fnv1a64(h, &(p.blocks.len() as u32).to_le_bytes());
            for &b in &p.blocks {
                h = fnv1a64(h, &b.to_le_bytes());
            }
            h = fnv1a64(h, &[u8::from(p.feasible)]);
        }

        PrimePathSet {
            paths,
            block_starts: blocks.iter().map(|b| b.start).collect(),
            block_path_counts,
            code_len,
            program_digest,
            truncated,
            feasible_count,
            max_len,
            digest: h,
        }
    }

    /// The prime paths, in lexicographic block order.
    #[must_use]
    pub fn paths(&self) -> &[PrimePath] {
        &self.paths
    }

    /// Number of prime paths kept (feasible and infeasible).
    #[must_use]
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Number of statically-feasible prime paths — the honest coverage
    /// denominator.
    #[must_use]
    pub fn feasible_count(&self) -> usize {
        self.feasible_count
    }

    /// Whether any enumeration cap fired. When set, the kept paths are a
    /// deterministic prefix and coverage denominators are lower bounds.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Longest kept path, in blocks.
    #[must_use]
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Start pc of every basic block, ascending — the runtime matcher's
    /// pc→block mapping.
    #[must_use]
    pub fn block_starts(&self) -> &[u32] {
        &self.block_starts
    }

    /// Per-block count of kept prime paths containing the block (cycles
    /// counted once) — the compressed summary of the set.
    #[must_use]
    pub fn block_path_counts(&self) -> &[u32] {
        &self.block_path_counts
    }

    /// Instruction count of the program the set was enumerated over.
    #[must_use]
    pub fn code_len(&self) -> usize {
        self.code_len
    }

    /// FNV-1a-64 of the program's encoded instruction stream.
    #[must_use]
    pub fn program_digest(&self) -> u64 {
        self.program_digest
    }

    /// Deterministic digest of the whole set (program, structure, every
    /// path with its feasibility flag).
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Deterministic JSON rendering (insertion-ordered keys, byte-identical
    /// across invocations).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("blocks", Json::UInt(self.block_starts.len() as u64)),
            ("paths_total", Json::UInt(self.paths.len() as u64)),
            ("paths_feasible", Json::UInt(self.feasible_count as u64)),
            ("truncated", Json::Bool(self.truncated)),
            ("max_len", Json::UInt(self.max_len as u64)),
            ("digest", Json::Str(hex64(self.digest))),
            (
                "block_path_counts",
                Json::Arr(
                    self.block_path_counts
                        .iter()
                        .map(|&c| Json::UInt(u64::from(c)))
                        .collect(),
                ),
            ),
            (
                "paths",
                Json::Arr(
                    self.paths
                        .iter()
                        .map(|p| {
                            Json::obj([
                                (
                                    "blocks",
                                    Json::Arr(
                                        p.blocks
                                            .iter()
                                            .map(|&b| Json::UInt(u64::from(b)))
                                            .collect(),
                                    ),
                                ),
                                ("feasible", Json::Bool(p.feasible)),
                                ("digest", Json::Str(hex64(p.digest))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Branch edges a path traverses, as `(branch pc, edge)` pairs. When a
    /// branch's taken target equals its fall-through both edges reach the
    /// successor, and both are attributed.
    #[must_use]
    pub fn branch_edges_of(&self, program: &Program, path: &PrimePath) -> Vec<(u32, BranchEdge)> {
        let mut out = Vec::new();
        for w in path.blocks.windows(2) {
            let a = &self.block_starts; // block start of w[1]
            let bstart = a[w[1] as usize];
            let last = self.block_end(w[0]) - 1;
            if let Some(&Instruction::Branch { target, .. }) = program.code.get(last as usize) {
                if target == bstart {
                    out.push((last, BranchEdge::Taken));
                }
                if last + 1 == bstart {
                    out.push((last, BranchEdge::NotTaken));
                }
            }
        }
        out
    }

    fn block_end(&self, b: u32) -> u32 {
        self.block_starts
            .get(b as usize + 1)
            .copied()
            .unwrap_or(self.code_len as u32)
    }

    /// Empc-style greedy edge cover of the still-uncovered feasible prime
    /// paths. `covered[i]` marks path `i` (index into [`PrimePathSet::paths`])
    /// as already covered; pass all-false to plan from scratch. Each pick
    /// is the branch edge whose exercise would touch the most remaining
    /// uncovered feasible paths (ties broken toward the smallest
    /// `(pc, edge)`), which is exactly the priority an adaptive NT-spawn
    /// policy wants. Feasible uncovered paths that traverse no branch edge
    /// at all are reported in [`PathCover::residual`].
    #[must_use]
    pub fn path_cover(&self, program: &Program, covered: &[bool]) -> PathCover {
        use std::collections::{BTreeMap, BTreeSet};
        let mut remaining: BTreeSet<u32> = BTreeSet::new();
        let mut residual = Vec::new();
        let mut edge_map: BTreeMap<(u32, u8), Vec<u32>> = BTreeMap::new();
        for (i, p) in self.paths.iter().enumerate() {
            if !p.feasible || covered.get(i).copied().unwrap_or(false) {
                continue;
            }
            let edges = self.branch_edges_of(program, p);
            if edges.is_empty() {
                residual.push(i as u32);
                continue;
            }
            remaining.insert(i as u32);
            for (pc, e) in edges {
                edge_map
                    .entry((pc, e.slot() as u8))
                    .or_default()
                    .push(i as u32);
            }
        }
        let mut picks = Vec::new();
        while !remaining.is_empty() {
            let mut best: Option<((u32, u8), Vec<u32>)> = None;
            for (&key, paths) in &edge_map {
                let hits: Vec<u32> = paths
                    .iter()
                    .copied()
                    .filter(|i| remaining.contains(i))
                    .collect();
                if best.as_ref().is_none_or(|(_, b)| hits.len() > b.len()) && !hits.is_empty() {
                    best = Some((key, hits));
                }
            }
            let Some(((pc, slot), hits)) = best else {
                break;
            };
            for i in &hits {
                remaining.remove(i);
            }
            picks.push(CoverPick {
                pc,
                edge: if slot == 0 {
                    BranchEdge::Taken
                } else {
                    BranchEdge::NotTaken
                },
                paths: hits,
            });
        }
        PathCover { picks, residual }
    }
}

/// One greedy pick of [`PrimePathSet::path_cover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverPick {
    /// Branch instruction index.
    pub pc: u32,
    /// Which of its edges to exercise.
    pub edge: BranchEdge,
    /// Indices (into [`PrimePathSet::paths`]) of the uncovered feasible
    /// paths this pick touches, ascending.
    pub paths: Vec<u32>,
}

/// Result of [`PrimePathSet::path_cover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathCover {
    /// Greedy edge picks, in pick order (most valuable first).
    pub picks: Vec<CoverPick>,
    /// Feasible uncovered paths with no branch edge (straight-line
    /// regions): no edge pick can target them, they need direct inputs.
    pub residual: Vec<u32>,
}

impl PathCover {
    /// Deterministic JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "picks",
                Json::Arr(
                    self.picks
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("pc", Json::UInt(u64::from(p.pc))),
                                ("edge", Json::Str(p.edge.name().to_owned())),
                                (
                                    "paths",
                                    Json::Arr(
                                        p.paths.iter().map(|&i| Json::UInt(u64::from(i))).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "residual",
                Json::Arr(
                    self.residual
                        .iter()
                        .map(|&i| Json::UInt(u64::from(i)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// `Step::parent` of a length-1 seed path.
const NO_PARENT: u32 = u32::MAX;

/// One worklist path in the enumeration arena: `block` appended to the
/// path at arena index `parent`.
#[derive(Clone, Copy)]
struct Step {
    parent: u32,
    block: u32,
    /// First block of the path (the block that closes a prime cycle).
    first: u32,
    len: u32,
    /// Union of [`block_bit`] over the path's blocks: a clear bit proves a
    /// block absent without walking the parent chain.
    mask: u64,
}

fn block_bit(b: u32) -> u64 {
    1 << (b % 64)
}

/// Whether block `b` lies on the arena path ending at `i`.
fn on_path(arena: &[Step], mut i: u32, b: u32) -> bool {
    if arena[i as usize].mask & block_bit(b) == 0 {
        return false;
    }
    while i != NO_PARENT {
        let s = &arena[i as usize];
        if s.block == b {
            return true;
        }
        i = s.parent;
    }
    false
}

/// The block sequence of the arena path ending at `i`, plus `close` (the
/// block that closes a cycle) when given.
fn materialize(arena: &[Step], i: u32, close: Option<u32>) -> Vec<u32> {
    let len = arena[i as usize].len as usize;
    let mut seq = vec![0u32; len];
    let mut at = i;
    for slot in seq.iter_mut().rev() {
        let s = &arena[at as usize];
        *slot = s.block;
        at = s.parent;
    }
    seq.extend(close);
    seq
}

/// FNV-1a-64 over block indices as little-endian `u32`s, from seed 0 —
/// the path digest, and the subpath fingerprint of the maximality filter.
fn block_digest(seq: &[u32]) -> u64 {
    seq.iter().fold(0, |h, b| fnv1a64(h, &b.to_le_bytes()))
}

/// Whether `needle` occurs as a contiguous subsequence of `hay`.
fn is_subpath(needle: &[u32], hay: &[u32]) -> bool {
    if needle.len() > hay.len() {
        return false;
    }
    hay.windows(needle.len()).any(|w| w == needle)
}

fn path_feasible(program: &Program, analysis: &Analysis, blocks: &[Block], path: &[u32]) -> bool {
    for &b in path {
        if !analysis.constprop().reachable(blocks[b as usize].start) {
            return false;
        }
    }
    for w in path.windows(2) {
        let last = blocks[w[0] as usize].end - 1;
        let bstart = blocks[w[1] as usize].start;
        if let Some(&Instruction::Branch { target, .. }) = program.code.get(last as usize) {
            let taken_ok = target == bstart && analysis.edge_feasible(last, BranchEdge::Taken);
            let nt_ok = last + 1 == bstart && analysis.edge_feasible(last, BranchEdge::NotTaken);
            if !taken_ok && !nt_ok {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_isa::asm::assemble;

    fn set_of(src: &str) -> (Program, Analysis, PrimePathSet) {
        let p = assemble(src).unwrap();
        let a = Analysis::of(&p);
        let s = PrimePathSet::enumerate(&p, &a);
        (p, a, s)
    }

    #[test]
    fn straight_line_has_one_prime_path() {
        let (_, _, s) = set_of(".code\nmain:\n  li r1, 1\n  exit\n");
        assert_eq!(s.len(), 1);
        assert_eq!(s.paths()[0].blocks, vec![0]);
        assert!(s.paths()[0].feasible);
        assert!(!s.truncated());
        assert_eq!(s.feasible_count(), 1);
        assert_eq!(s.block_path_counts(), &[1]);
    }

    #[test]
    fn diamond_has_two_prime_paths() {
        let (_, _, s) = set_of(
            r"
            .code
            main:
                readi                 ; 0: r1 = input (undecided branch)
                beq r1, zero, right   ; 1
                nop                   ; 2
                jmp join              ; 3
            right:
                nop                   ; 4
            join:
                exit                  ; 5
            ",
        );
        // Blocks: 0 [0..2], 1 [2..4], 2 [4..5], 3 [5..6].
        let seqs: Vec<&[u32]> = s.paths().iter().map(|p| p.blocks.as_slice()).collect();
        assert_eq!(seqs, vec![&[0u32, 1, 3][..], &[0u32, 2, 3][..]]);
        assert!(s.paths().iter().all(|p| p.feasible));
        assert_eq!(s.max_len(), 3);
    }

    #[test]
    fn loop_yields_prime_cycles_with_distinct_rotations() {
        let (_, _, s) = set_of(
            r"
            .code
            main:
                li r1, 3              ; 0
            loop:
                subi r1, r1, 1        ; 1
                bgt r1, zero, loop    ; 2
                exit                  ; 3
            ",
        );
        // Blocks: 0 [0..1] entry, 1 [1..3] loop body+test, 2 [3..4] exit.
        let seqs: Vec<&[u32]> = s.paths().iter().map(|p| p.blocks.as_slice()).collect();
        // The self-cycle [1,1], plus the maximal simple paths through it.
        assert!(seqs.contains(&&[1u32, 1][..]), "prime cycle kept: {seqs:?}");
        assert!(seqs.contains(&&[0u32, 1, 2][..]), "entry→exit: {seqs:?}");
        // [0,1] and [1,2] are subpaths of [0,1,2] and must not appear.
        assert!(!seqs.contains(&&[0u32, 1][..]));
        assert!(!seqs.contains(&&[1u32, 2][..]));
    }

    #[test]
    fn two_block_cycle_keeps_both_rotations() {
        let (_, _, s) = set_of(
            r"
            .code
            main:
                beq r1, zero, out     ; 0: a
                jmp back              ; 1: b
            back:
                jmp main              ; 2: c -> a
            out:
                exit                  ; 3
            ",
        );
        let seqs: Vec<&[u32]> = s.paths().iter().map(|p| p.blocks.as_slice()).collect();
        // Rotations of the a→b→c cycle are distinct prime paths.
        assert!(seqs.contains(&&[0u32, 1, 2, 0][..]), "{seqs:?}");
        assert!(seqs.contains(&&[1u32, 2, 0, 1][..]), "{seqs:?}");
        assert!(seqs.contains(&&[2u32, 0, 1, 2][..]), "{seqs:?}");
    }

    #[test]
    fn infeasible_branch_edge_marks_paths_infeasible() {
        let (_, _, s) = set_of(
            r"
            .code
            main:
                li r2, 1              ; 0
                beq r2, zero, dead    ; 1: taken edge infeasible
                exit                  ; 2
            dead:
                exit                  ; 3
            ",
        );
        let dead_block = s
            .paths()
            .iter()
            .find(|p| p.blocks.len() == 2 && p.blocks[1] == 2)
            .expect("path into the dead arm is enumerated");
        assert!(!dead_block.feasible, "statically-refuted edge");
        let live: Vec<_> = s.paths().iter().filter(|p| p.feasible).collect();
        assert!(!live.is_empty());
        assert!(s.feasible_count() < s.len());
    }

    #[test]
    fn digests_are_unique_and_deterministic() {
        let src = r"
            .code
            main:
                li r1, 5
            loop:
                subi r1, r1, 1
                beq r1, zero, done
                jmp loop
            done:
                exit
            ";
        let (p, a, s1) = set_of(src);
        let s2 = PrimePathSet::enumerate(&p, &a);
        assert_eq!(s1, s2);
        assert_eq!(s1.to_json().dump(), s2.to_json().dump());
        let mut digests: Vec<u64> = s1.paths().iter().map(|p| p.digest).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), s1.len(), "path digests are unique");
    }

    #[test]
    fn caps_truncate_deterministically() {
        // `ret` with broken ra-discipline edges everywhere: the worklist
        // explodes and every cap style must fire deterministically.
        let src = r"
            .code
            main:
                addi ra, zero, 2
                ret
                nop
                nop
                nop
                nop
                exit
            ";
        let p = assemble(src).unwrap();
        let a = Analysis::of(&p);
        let tight = PathLimits {
            max_paths: 4,
            max_candidates: 16,
            max_work: 64,
        };
        let s1 = PrimePathSet::enumerate_with(&p, &a, &tight);
        let s2 = PrimePathSet::enumerate_with(&p, &a, &tight);
        assert_eq!(s1, s2);
        assert!(s1.truncated());
        assert!(s1.len() <= 4);
        // The untruncated set keeps more paths and clears the flag.
        let full = PrimePathSet::enumerate(&p, &a);
        assert!(!full.truncated());
        assert!(full.len() >= s1.len());
    }

    #[test]
    fn path_cover_targets_uncovered_feasible_paths() {
        let (p, _, s) = set_of(
            r"
            .code
            main:
                readi                 ; 0: r1 = input (undecided branch)
                beq r1, zero, right   ; 1
                nop                   ; 2
                jmp join              ; 3
            right:
                nop                   ; 4
            join:
                exit                  ; 5
            ",
        );
        let cover = s.path_cover(&p, &vec![false; s.len()]);
        assert!(cover.residual.is_empty());
        let mut hit: Vec<u32> = cover.picks.iter().flat_map(|k| k.paths.clone()).collect();
        hit.sort_unstable();
        hit.dedup();
        assert_eq!(hit.len(), s.feasible_count(), "cover touches every path");
        // Covering everything empties the plan.
        let done = s.path_cover(&p, &vec![true; s.len()]);
        assert!(done.picks.is_empty() && done.residual.is_empty());
        // A straight-line program has only a residual.
        let (p2, _, s2) = set_of(".code\nmain:\n  exit\n");
        let c2 = s2.path_cover(&p2, &[false]);
        assert!(c2.picks.is_empty());
        assert_eq!(c2.residual, vec![0]);
    }

    #[test]
    fn branch_edges_attribute_both_slots_when_targets_coincide() {
        // beq to the fall-through: taken and not-taken both reach block 1.
        let (p, _, s) = set_of(".code\nmain:\n  beq r1, zero, next\nnext:\n  exit\n");
        let path = s
            .paths()
            .iter()
            .find(|q| q.blocks.len() == 2)
            .expect("two-block path");
        let edges = s.branch_edges_of(&p, path);
        assert_eq!(
            edges,
            vec![(0, BranchEdge::Taken), (0, BranchEdge::NotTaken)]
        );
    }

    #[test]
    fn empty_program_yields_empty_set() {
        let p = Program {
            code: Vec::new(),
            ..assemble(".code\nmain:\n  exit\n").unwrap()
        };
        let a = Analysis::of(&p);
        let s = PrimePathSet::enumerate(&p, &a);
        assert!(s.is_empty());
        assert_eq!(s.feasible_count(), 0);
        assert!(!s.truncated());
    }
}
