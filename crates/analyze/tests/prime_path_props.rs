//! Property tests for prime-path enumeration.
//!
//! Two directions of trust, on the in-tree `px_util` property harness:
//!
//! * **Determinism** — enumerating the same program twice (at default and
//!   at tight limits) yields byte-identical JSON renderings and equal
//!   digests: the denominator every report divides by is a pure function
//!   of the program bytes.
//! * **Robustness** — programs assembled from arbitrary instruction
//!   soup, including branches and jumps whose targets fall outside the
//!   code (mutated/truncated streams), never panic the enumerator, and
//!   every structural invariant of the resulting [`PrimePathSet`] holds.
//! * **Reference agreement** — the arena enumerator matches a plain
//!   `VecDeque<Vec<u32>>` worklist enumerator, kept here as the reference,
//!   path for path and digest for digest, under the default limits and
//!   under limits tight enough that each cap fires.

use std::collections::VecDeque;

use px_analyze::{Analysis, BranchEdge, PathLimits, PrimePathSet, EXIT};
use px_isa::{
    encode_program, AluOp, BranchCond, Instruction, Program, ProgramBuilder, Reg, SyscallCode,
};
use px_util::prop::{any_u32, vec_of};
use px_util::{fnv1a64, px_prop, Rng as _, Xoshiro256};

/// Builds one instruction from two raw words. Control-flow targets are
/// drawn from `0..n + 8`, so backward branches (loops), self-branches and
/// out-of-range targets all occur — the mutated-stream space.
fn insn_from(sel: u32, raw: u32, pc: u32, n: u32) -> Instruction {
    // The last slot is an `exit` most of the time so many generated
    // programs terminate, without forcing it (truncated streams may not).
    if pc + 1 == n && !pc.is_multiple_of(3) {
        return Instruction::Syscall {
            code: SyscallCode::Exit,
        };
    }
    let reg = |r: u32| Reg::new(2 + (r % 8) as u8);
    let target = raw % (n + 8);
    match sel % 8 {
        0 | 1 => Instruction::AluI {
            op: [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::Slt][(raw % 4) as usize],
            rd: reg(raw),
            rs1: reg(raw >> 8),
            imm: (raw % 17) as i32 - 8,
        },
        2 => Instruction::Alu {
            op: [AluOp::And, AluOp::Or, AluOp::Mul, AluOp::Seq][(raw % 4) as usize],
            rd: reg(raw),
            rs1: reg(raw >> 8),
            rs2: reg(raw >> 16),
        },
        3..=5 => Instruction::Branch {
            cond: [
                BranchCond::Eq,
                BranchCond::Ne,
                BranchCond::Lt,
                BranchCond::Ge,
                BranchCond::Le,
                BranchCond::Gt,
            ][(raw % 6) as usize],
            rs1: reg(raw),
            rs2: reg(raw >> 8),
            target,
        },
        6 => Instruction::Jump { target },
        _ => {
            if raw.is_multiple_of(3) {
                Instruction::Syscall {
                    code: SyscallCode::ReadInt,
                }
            } else {
                Instruction::Nop
            }
        }
    }
}

fn build(words: &[(u32, u32)]) -> Program {
    let n = words.len() as u32;
    let mut b = ProgramBuilder::new();
    for (pc, &(sel, raw)) in words.iter().enumerate() {
        b.push(insn_from(sel, raw, pc as u32, n), pc as u32 + 1);
    }
    b.finish()
}

/// The structural invariants every enumeration must satisfy, panic-free.
fn check_invariants(set: &PrimePathSet) {
    assert!(set.feasible_count() <= set.len());
    assert_eq!(
        set.feasible_count(),
        set.paths().iter().filter(|p| p.feasible).count()
    );
    assert_eq!(
        set.max_len(),
        set.paths()
            .iter()
            .map(|p| p.blocks.len())
            .max()
            .unwrap_or(0)
    );
    assert!(
        set.block_starts().windows(2).all(|w| w[0] < w[1]),
        "block starts must be strictly ascending"
    );
    assert_eq!(set.block_path_counts().len(), set.block_starts().len());
    for p in set.paths() {
        assert!(!p.blocks.is_empty(), "prime paths are non-empty");
        // Simple path: interior blocks never repeat (a cycle repeats only
        // its endpoints).
        let interior = if p.blocks.len() > 1 && p.blocks.first() == p.blocks.last() {
            &p.blocks[..p.blocks.len() - 1]
        } else {
            &p.blocks[..]
        };
        let mut seen = interior.to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), interior.len(), "prime paths are simple");
        for &b in &p.blocks {
            assert!(
                (b as usize) < set.block_starts().len(),
                "path block out of range"
            );
        }
    }
    // Paths are in stable lexicographic order (the determinism anchor).
    assert!(set.paths().windows(2).all(|w| w[0].blocks < w[1].blocks));
}

/// What the reference enumerator computes: the observable content of a
/// [`PrimePathSet`].
#[derive(Debug, PartialEq, Eq)]
struct Reference {
    /// `(blocks, digest, feasible)` per kept path, in set order.
    paths: Vec<(Vec<u32>, u64, bool)>,
    truncated: bool,
    block_path_counts: Vec<u32>,
    digest: u64,
}

impl Reference {
    fn of(set: &PrimePathSet) -> Reference {
        Reference {
            paths: set
                .paths()
                .iter()
                .map(|p| (p.blocks.clone(), p.digest, p.feasible))
                .collect(),
            truncated: set.truncated(),
            block_path_counts: set.block_path_counts().to_vec(),
            digest: set.digest(),
        }
    }
}

/// The straightforward enumerator: a FIFO of owned paths, `contains` for
/// the simple-path check, and an exact subpath scan for maximality.
fn reference_enumerate(program: &Program, analysis: &Analysis, limits: &PathLimits) -> Reference {
    let cfg = analysis.cfg();
    let blocks = cfg.blocks();
    let nb = blocks.len();
    let mut bsuccs: Vec<Vec<u32>> = vec![Vec::new(); nb];
    for (b, block) in blocks.iter().enumerate() {
        for &s in cfg.succs(block.end - 1) {
            if s != EXIT {
                let sb = cfg.block_of(s);
                if !bsuccs[b].contains(&sb) {
                    bsuccs[b].push(sb);
                }
            }
        }
    }
    let reach = cfg.reachable(program.entry);
    let mut work: VecDeque<Vec<u32>> = (0..nb as u32)
        .filter(|&b| reach.get(blocks[b as usize].start as usize) == Some(&true))
        .map(|b| vec![b])
        .collect();
    let mut candidates: Vec<Vec<u32>> = Vec::new();
    let mut truncated = false;
    let mut budget = limits.max_work;
    while let Some(p) = work.pop_front() {
        if budget == 0 || candidates.len() >= limits.max_candidates {
            truncated = true;
            break;
        }
        budget -= 1;
        let last = *p.last().unwrap();
        let mut extended = false;
        for &s in &bsuccs[last as usize] {
            if s == p[0] {
                let mut cyc = p.clone();
                cyc.push(s);
                candidates.push(cyc);
                extended = true;
            } else if !p.contains(&s) {
                let mut q = p.clone();
                q.push(s);
                work.push_back(q);
                extended = true;
            }
        }
        if !extended {
            candidates.push(p);
        }
    }
    candidates.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    let mut kept: Vec<Vec<u32>> = Vec::new();
    let mut by_block: Vec<Vec<usize>> = vec![Vec::new(); nb];
    for c in candidates {
        if by_block[c[0] as usize]
            .iter()
            .any(|&k| kept[k].windows(c.len()).any(|w| w == c.as_slice()))
        {
            continue;
        }
        let closes = c.len() > 1 && c.first() == c.last();
        let body = if closes { &c[..c.len() - 1] } else { &c[..] };
        for &b in body {
            by_block[b as usize].push(kept.len());
        }
        kept.push(c);
    }
    kept.sort();
    if kept.len() > limits.max_paths {
        kept.truncate(limits.max_paths);
        truncated = true;
    }

    let feasible = |path: &[u32]| {
        path.iter()
            .all(|&b| analysis.constprop().reachable(blocks[b as usize].start))
            && path.windows(2).all(|w| {
                let last = blocks[w[0] as usize].end - 1;
                let start = blocks[w[1] as usize].start;
                match program.code.get(last as usize) {
                    Some(&Instruction::Branch { target, .. }) => {
                        (target == start && analysis.edge_feasible(last, BranchEdge::Taken))
                            || (last + 1 == start
                                && analysis.edge_feasible(last, BranchEdge::NotTaken))
                    }
                    _ => true,
                }
            })
    };
    let fold = |seq: &[u32]| seq.iter().fold(0, |h, b| fnv1a64(h, &b.to_le_bytes()));
    let paths: Vec<(Vec<u32>, u64, bool)> = kept
        .into_iter()
        .map(|seq| {
            let (d, f) = (fold(&seq), feasible(&seq));
            (seq, d, f)
        })
        .collect();
    let mut block_path_counts = vec![0u32; nb];
    for (seq, _, _) in &paths {
        let closes = seq.len() > 1 && seq.first() == seq.last();
        let body = if closes {
            &seq[..seq.len() - 1]
        } else {
            &seq[..]
        };
        for &b in body {
            block_path_counts[b as usize] += 1;
        }
    }
    let mut h = fnv1a64(
        fnv1a64(0, &encode_program(&program.code)),
        b"prime-path-set-v1",
    );
    h = fnv1a64(h, &(program.code.len() as u64).to_le_bytes());
    h = fnv1a64(h, &(nb as u64).to_le_bytes());
    h = fnv1a64(h, &[u8::from(truncated)]);
    for (seq, _, f) in &paths {
        h = fnv1a64(h, &(seq.len() as u32).to_le_bytes());
        for &b in seq {
            h = fnv1a64(h, &b.to_le_bytes());
        }
        h = fnv1a64(h, &[u8::from(*f)]);
    }
    Reference {
        paths,
        truncated,
        block_path_counts,
        digest: h,
    }
}

/// Limits with exactly one cap tightened from its default: `[max_paths,
/// max_candidates, max_work]` each fire on small random programs.
const ONE_TIGHT_CAP: [PathLimits; 3] = [
    PathLimits {
        max_paths: 3,
        max_candidates: 8192,
        max_work: 150_000,
    },
    PathLimits {
        max_paths: 2048,
        max_candidates: 6,
        max_work: 150_000,
    },
    PathLimits {
        max_paths: 2048,
        max_candidates: 8192,
        max_work: 24,
    },
];

/// Asserts the arena enumerator and the reference agree on `program`
/// under `limits`; returns whether the enumeration truncated.
fn agrees_with_reference(program: &Program, analysis: &Analysis, limits: &PathLimits) -> bool {
    let set = PrimePathSet::enumerate_with(program, analysis, limits);
    let want = reference_enumerate(program, analysis, limits);
    assert_eq!(Reference::of(&set), want, "limits {limits:?}");
    set.truncated()
}

#[test]
fn enumerator_matches_reference_and_every_cap_fires() {
    // Seeded random programs small enough that the default limits never
    // cut, so a truncation under a one-tight-cap limit is that cap firing.
    let mut rng = Xoshiro256::seeded(0x9A7B);
    let mut fired = [0u32; 3];
    for _ in 0..200 {
        let n = 4 + (rng.next_u64() % 36) as usize;
        let words: Vec<(u32, u32)> = (0..n)
            .map(|_| (rng.next_u64() as u32, rng.next_u64() as u32))
            .collect();
        let program = build(&words);
        let analysis = Analysis::of(&program);
        assert!(!agrees_with_reference(
            &program,
            &analysis,
            &PathLimits::default()
        ));
        for (count, limits) in fired.iter_mut().zip(&ONE_TIGHT_CAP) {
            *count += u32::from(agrees_with_reference(&program, &analysis, limits));
        }
    }
    assert!(fired.iter().all(|&c| c > 0), "caps fired {fired:?}");
}

px_prop! {
    fn enumerator_matches_reference(
        words in vec_of((any_u32(), any_u32()), 1..40),
    ) {
        let program = build(&words);
        let analysis = Analysis::of(&program);
        agrees_with_reference(&program, &analysis, &PathLimits::default());
        agrees_with_reference(
            &program,
            &analysis,
            &PathLimits { max_paths: 4, max_candidates: 8, max_work: 64 },
        );
        for limits in &ONE_TIGHT_CAP {
            agrees_with_reference(&program, &analysis, limits);
        }
    }

    fn enumeration_is_byte_deterministic(
        words in vec_of((any_u32(), any_u32()), 4..48),
    ) {
        let program = build(&words);
        let analysis = Analysis::of(&program);
        let a = PrimePathSet::enumerate(&program, &analysis);
        let b = PrimePathSet::enumerate(&program, &analysis);
        assert_eq!(a.to_json().dump(), b.to_json().dump());
        assert_eq!(a.digest(), b.digest());
        // A fresh analysis of the same bytes agrees too.
        let c = PrimePathSet::enumerate(&program, &Analysis::of(&program));
        assert_eq!(a.to_json().dump(), c.to_json().dump());
    }

    fn mutated_streams_never_panic_and_keep_invariants(
        words in vec_of((any_u32(), any_u32()), 1..64),
        cut in any_u32(),
    ) {
        // The full stream, and a truncated prefix of it (branch targets
        // now dangle past the end), both enumerate without panicking.
        let full = build(&words);
        let keep = 1 + (cut as usize) % words.len();
        let truncated = build(&words[..keep]);
        for program in [&full, &truncated] {
            let analysis = Analysis::of(program);
            let set = PrimePathSet::enumerate(program, &analysis);
            check_invariants(&set);
            let _ = set.to_json().dump();
            let _ = set.path_cover(program, &vec![false; set.len()]);
        }
    }

    fn tight_limits_truncate_deterministically(
        words in vec_of((any_u32(), any_u32()), 8..48),
    ) {
        let program = build(&words);
        let analysis = Analysis::of(&program);
        let limits = PathLimits { max_paths: 4, max_candidates: 8, max_work: 64 };
        let a = PrimePathSet::enumerate_with(&program, &analysis, &limits);
        let b = PrimePathSet::enumerate_with(&program, &analysis, &limits);
        assert_eq!(a.to_json().dump(), b.to_json().dump());
        assert!(a.len() <= limits.max_paths);
        check_invariants(&a);
        // A truncated set is a prefix-bounded subset: never *more* paths
        // than the unbounded enumeration of the same program.
        let unbounded = PrimePathSet::enumerate(&program, &analysis);
        assert!(a.len() <= unbounded.len());
    }
}
