//! Executes one manifest case and renders it as a journal [`CaseRecord`].
//!
//! [`run_case`] is the pure per-case function the campaign pool fans out:
//! `(manifest, watchdog, id) → CaseRecord`, no shared state, no ambient
//! configuration — which is what makes records byte-identical across
//! workers, runs and resumes. It does **not** catch panics; the campaign
//! driver wraps it in `catch_unwind` so a panicking case becomes a
//! [`CaseRecord::panicked`] quarantine entry instead of a dead worker.
//!
//! The `chaos` generator exists to prove exactly that: it deliberately
//! produces a seeded mixture of well-behaved, panicking and runaway cases
//! with a known ground truth ([`chaos_truth`]), which the CI campaign gate
//! checks the quarantine list against.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use pathexpander::{run_standard_memo, standard_memo_table, MemoTable, PxConfig};
use px_detect::{classify, report, Tool};
use px_isa::asm::assemble;
use px_isa::{encode_program, DecodedProgram, Program};
use px_mach::{run_baseline, IoState, MachConfig, PathPlan};
use px_util::{fnv1a64, Rng, SplitMix64};
use px_workloads::zoo::{self, ZooSpec};
use px_workloads::{CompiledProgram, Workload};

use crate::fault;
use crate::manifest::{CaseGen, Manifest};
use crate::outcome::{CaseOutcome, CaseRecord};
use crate::watchdog::Watchdog;

/// Native instruction budget for zoo cases (the watchdog clamps it).
pub const ZOO_BUDGET: u64 = 5_000_000;

/// Nominal native budget for chaos cases — far above any sane watchdog, so
/// a runaway chaos case always counts as a watchdog trip.
pub const CHAOS_BUDGET: u64 = 1_000_000_000;

/// Runs global case `id` of `manifest` under `wd`.
///
/// # Panics
///
/// Panics when `id` is outside the manifest (a driver bug, not a case
/// failure) — and whenever the case itself panics, by design: chaos cases
/// do, and the campaign driver's `catch_unwind` is the layer that turns
/// that into a quarantine record.
#[must_use]
pub fn run_case(manifest: &Manifest, wd: &Watchdog, id: u64) -> CaseRecord {
    let (gen, local) = manifest
        .locate(id)
        .unwrap_or_else(|| panic!("case id {id} outside manifest `{manifest}`"));
    let case = format!("{gen}#{local}");
    match gen {
        CaseGen::Fault { seed, mix, .. } => run_fault(id, case, *seed, local, mix, wd),
        CaseGen::Zoo { spec, .. } => {
            let tools = Tool::ALL.len() as u64;
            run_zoo(id, case, spec, local / tools + 1, tool_at(local), wd)
        }
        CaseGen::ZooRoster { quick } => {
            let roster = zoo::roster();
            let family = if *quick {
                local
            } else {
                local / Tool::ALL.len() as u64
            };
            let spec = &roster[family as usize];
            run_zoo(id, case, spec, 1, tool_at(local), wd)
        }
        CaseGen::Chaos { seed, .. } => run_chaos(id, case, *seed, local, wd),
    }
}

fn tool_at(local: u64) -> Tool {
    Tool::ALL[(local % Tool::ALL.len() as u64) as usize]
}

/// Process-wide decoded-program cache, keyed by the program's encoded-bytes
/// digest. A zoo roster re-runs each family's program once per tool and the
/// campaign pool re-runs it once per worker resume — decoding (selector
/// splits, target validation, run-length measurement) is pure per program,
/// so every case after the first reuses the same [`DecodedProgram`].
///
/// Keyed by content digest rather than family name so two specs that compile
/// to identical bytes share an entry and a spec change can never alias a
/// stale decode.
fn decoded_cache(program: &Program) -> Arc<DecodedProgram> {
    static CACHE: OnceLock<Mutex<HashMap<u64, Arc<DecodedProgram>>>> = OnceLock::new();
    let key = fnv1a64(
        fnv1a64(0, &encode_program(&program.code)),
        &program.entry.to_le_bytes(),
    );
    let mut map = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("decoded-program cache poisoned");
    Arc::clone(
        map.entry(key)
            .or_insert_with(|| Arc::new(DecodedProgram::decode(program))),
    )
}

/// Process-wide prime-path plan cache, keyed like [`decoded_cache`].
/// Enumerating prime paths (and proving their feasibility) is pure per
/// program, and the campaign pool replays each zoo program once per tool
/// and worker — so the plan is built once and every case matches against
/// the same trie, which is what makes shards mergeable.
///
/// Enumeration runs *outside* the lock, as in [`compiled_zoo`], so two
/// workers on different cold programs enumerate in parallel. Two threads
/// racing on the same cold key build identical plans; first insert wins.
fn path_plan_cache(program: &Program) -> Option<Arc<PathPlan>> {
    type Cache = Mutex<HashMap<u64, Option<Arc<PathPlan>>>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = fnv1a64(
        fnv1a64(0, &encode_program(&program.code)),
        &program.entry.to_le_bytes(),
    );
    if let Some(hit) = cache.lock().expect("path-plan cache poisoned").get(&key) {
        return hit.clone();
    }
    let set = px_analyze::Analysis::of(program).prime_paths(program);
    let plan = pathexpander::plan_paths(&set).ok().map(Arc::new);
    cache
        .lock()
        .expect("path-plan cache poisoned")
        .entry(key)
        .or_insert(plan)
        .clone()
}

/// Process-wide compiled-workload cache, keyed by the `(spec, tool)` pair
/// [`run_zoo`] is asked to run. A `zoo:<spec>*K` manifest entry repeats the
/// same spec across `K` input seeds, and a roster replays each family once
/// per tool and per worker resume — but generating the workload and
/// compiling it for a tool is pure per `(spec, tool)`, so every repetition
/// after the first reuses the same artifacts instead of rebuilding them.
///
/// The build runs *outside* the lock: a failing compile panics into the
/// case's quarantine record without poisoning the cache for sibling
/// workers. Two threads racing on a cold key both build; first insert wins.
fn compiled_zoo(spec: &ZooSpec, tool: Tool) -> Arc<(Workload, CompiledProgram)> {
    type Cache = Mutex<HashMap<String, Arc<(Workload, CompiledProgram)>>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = format!("{spec}/{}", tool.name());
    if let Some(hit) = cache
        .lock()
        .expect("compiled-workload cache poisoned")
        .get(&key)
    {
        return Arc::clone(hit);
    }
    let w = zoo::generate(spec);
    let compiled = w
        .compile_for(tool)
        .unwrap_or_else(|e| panic!("{} ({}): {e}", w.name, tool.name()));
    Arc::clone(
        cache
            .lock()
            .expect("compiled-workload cache poisoned")
            .entry(key)
            .or_insert_with(|| Arc::new((w, compiled))),
    )
}

/// Runs `f` against this worker's NT-path memo table for
/// `(program, mach, px)`, creating the table on first use. `*K` repetitions
/// of a zoo spec re-simulate the same not-taken excursions under every
/// input seed; sharing the table across repetitions lets later cases replay
/// them. Thread-local so workers never contend — and safe by construction:
/// a replay is validated against the spawn's live-ins and is
/// architecturally byte-identical to a cold simulation, so records stay
/// pure regardless of which earlier cases warmed the table.
fn with_zoo_memo<R>(
    program: &Program,
    mach: &MachConfig,
    px: &PxConfig,
    f: impl FnOnce(&mut MemoTable) -> R,
) -> R {
    thread_local! {
        static TABLES: RefCell<HashMap<u64, MemoTable>> = RefCell::new(HashMap::new());
    }
    TABLES.with(|tables| {
        let mut map = tables.borrow_mut();
        let fresh = standard_memo_table(program, mach, px);
        f(map.entry(fresh.fingerprint()).or_insert(fresh))
    })
}

fn run_fault(
    id: u64,
    case: String,
    seed: u64,
    local: u64,
    mix: &px_mach::FaultMix,
    wd: &Watchdog,
) -> CaseRecord {
    let fc = fault::run_case_budget(seed, local, mix, wd.clamp(fault::CASE_BUDGET));
    let (outcome, detail) = if !fc.violations.is_empty() {
        (CaseOutcome::Violated, fc.violations.join("; "))
    } else if wd.tripped(fault::CASE_BUDGET, &fc.exit) {
        (CaseOutcome::TimedOut, String::new())
    } else {
        (CaseOutcome::Done, String::new())
    };
    CaseRecord {
        id,
        case,
        outcome,
        exit: fc.exit,
        faults: fc.faults,
        nt_paths: fc.nt_paths,
        detections: 0,
        covered_edges: 0,
        program_key: String::new(),
        code_len: 0,
        cov_bits: Vec::new(),
        path_set: 0,
        path_feasible: 0,
        path_n: 0,
        path_bits: Vec::new(),
        detail,
    }
}

fn run_zoo(
    id: u64,
    case: String,
    spec: &ZooSpec,
    input_seed: u64,
    tool: Tool,
    wd: &Watchdog,
) -> CaseRecord {
    let shared = compiled_zoo(spec, tool);
    let (w, compiled) = (&shared.0, &shared.1);
    let plan = path_plan_cache(&compiled.program);
    let px = PxConfig::default()
        .with_max_nt_path_len(w.max_nt_path_len)
        .with_max_instructions(wd.clamp(ZOO_BUDGET))
        .with_path_plan(plan);
    let io = IoState::new(w.general_input(input_seed), input_seed);
    let dp = decoded_cache(&compiled.program);
    let mach = MachConfig::single_core();
    let r = with_zoo_memo(&compiled.program, &mach, &px, |memo| {
        run_standard_memo(&compiled.program, &dp, &mach, &px, io, memo)
    });

    let all_lines: Vec<u32> = w.bugs.iter().map(|b| w.marker_line(&b.marker)).collect();
    let dets = report(compiled, &r.monitor, tool);
    let c = classify(&dets, &all_lines, false);
    let exit = r.exit.class().to_owned();
    let outcome = if wd.tripped(ZOO_BUDGET, &exit) {
        CaseOutcome::TimedOut
    } else {
        CaseOutcome::Done
    };
    CaseRecord {
        id,
        case,
        outcome,
        exit,
        faults: 0,
        nt_paths: r.stats.spawns,
        detections: c.true_positive_lines.len() as u64,
        covered_edges: u64::from(r.total_coverage.covered_edges(&compiled.program)),
        program_key: format!("{spec}/{}", tool.name()),
        code_len: compiled.program.code.len() as u64,
        cov_bits: r.total_coverage.pack_bits(),
        path_set: r.path_coverage.as_ref().map_or(0, |c| c.set_digest()),
        path_feasible: r
            .path_coverage
            .as_ref()
            .map_or(0, |c| u64::from(c.feasible_total())),
        path_n: r
            .path_coverage
            .as_ref()
            .map_or(0, |c| u64::from(c.n_paths())),
        path_bits: r
            .path_coverage
            .as_ref()
            .map_or_else(Vec::new, px_mach::PathCoverage::pack_bits),
        detail: String::new(),
    }
}

/// The chaos case classes, drawn from one seeded roll per case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChaosKind {
    Ok,
    Panic,
    Runaway,
}

fn chaos_kind(seed: u64, local: u64) -> ChaosKind {
    let mut rng = SplitMix64::new(seed ^ local.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    match rng.next_u64() % 8 {
        0 => ChaosKind::Panic,
        1 | 2 => ChaosKind::Runaway,
        _ => ChaosKind::Ok,
    }
}

/// The ground-truth outcome of every case of `chaos:<seed>:<n>`, in local
/// order — what a campaign's quarantine must match exactly (assuming the
/// watchdog timeout is below [`CHAOS_BUDGET`], which any sane one is).
#[must_use]
pub fn chaos_truth(seed: u64, n: u64) -> Vec<CaseOutcome> {
    (0..n)
        .map(|local| match chaos_kind(seed, local) {
            ChaosKind::Ok => CaseOutcome::Done,
            ChaosKind::Panic => CaseOutcome::Panicked,
            ChaosKind::Runaway => CaseOutcome::TimedOut,
        })
        .collect()
}

fn run_chaos(id: u64, case: String, seed: u64, local: u64, wd: &Watchdog) -> CaseRecord {
    let kind = chaos_kind(seed, local);
    let src = match kind {
        ChaosKind::Panic => {
            panic!("chaos case {local} panicked by design (seed {seed})");
        }
        ChaosKind::Runaway => {
            r"
            .code
            main:
            spin:
                addi r8, r8, 1
                jmp spin
            "
        }
        ChaosKind::Ok => {
            r"
            .code
            main:
                li r4, 40
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop
                li r2, 0
                exit
            "
        }
    };
    let program = assemble(src).unwrap_or_else(|e| panic!("chaos template: {e}"));
    let io = IoState::new(Vec::new(), seed ^ local);
    let r = run_baseline(
        &program,
        &MachConfig::single_core(),
        io,
        wd.clamp(CHAOS_BUDGET),
    );
    let exit = r.exit.class().to_owned();
    let outcome = if wd.tripped(CHAOS_BUDGET, &exit) {
        CaseOutcome::TimedOut
    } else {
        CaseOutcome::Done
    };
    CaseRecord {
        id,
        case,
        outcome,
        exit,
        faults: 0,
        nt_paths: 0,
        detections: 0,
        covered_edges: 0,
        program_key: String::new(),
        code_len: 0,
        cov_bits: Vec::new(),
        path_set: 0,
        path_feasible: 0,
        path_n: 0,
        path_bits: Vec::new(),
        detail: String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn wd(timeout: u64) -> Watchdog {
        Watchdog { timeout }
    }

    #[test]
    fn fault_cases_render_as_records() {
        let m = Manifest::parse("fault:1:8").unwrap();
        let rec = run_case(&m, &Watchdog::default_budget(), 3);
        assert_eq!(rec.id, 3);
        assert_eq!(rec.case, "fault:1:8#3");
        assert_eq!(rec.outcome, CaseOutcome::Done);
        assert!(rec.program_key.is_empty());
        // Records are pure: the same id renders byte-identically.
        let again = run_case(&m, &Watchdog::default_budget(), 3);
        assert_eq!(rec.to_line(), again.to_line());
    }

    #[test]
    fn zoo_cases_carry_coverage_shards() {
        let m = Manifest::parse("zoo:parser:3*2").unwrap();
        let rec = run_case(&m, &Watchdog::default_budget(), 0);
        assert_eq!(rec.case, "zoo:parser:3*2#0");
        assert_eq!(rec.outcome, CaseOutcome::Done);
        assert_eq!(rec.program_key, "zoo:parser:3/CCured");
        assert!(rec.code_len > 0);
        assert!(!rec.cov_bits.is_empty());
        assert!(rec.covered_edges > 0, "zoo runs cover edges");
        assert!(rec.detections > 0, "cold zoo bugs are detected");
        // Zoo cases also carry a prime-path shard: a nonzero enumeration
        // digest, a bitmap sized for the enumerated set, and at least one
        // covered path (the taken trace always matches something).
        assert_ne!(rec.path_set, 0, "zoo cases carry prime-path shards");
        assert_eq!(rec.path_bits.len(), (rec.path_n as usize).div_ceil(8));
        let shard = px_mach::PathCoverage::unpack_bits(
            rec.path_set,
            u32::try_from(rec.path_feasible).unwrap(),
            u32::try_from(rec.path_n).unwrap(),
            &rec.path_bits,
        )
        .unwrap();
        assert!(shard.covered_count() > 0, "taken trace covers a path");
        assert!(shard.covered_count() <= shard.feasible_total());
        // Same family, different tool: the shard key differs.
        let other = run_case(&m, &Watchdog::default_budget(), 1);
        assert_ne!(other.program_key, rec.program_key);
    }

    #[test]
    fn chaos_matches_its_ground_truth() {
        let m = Manifest::parse("chaos:5:24").unwrap();
        let truth = chaos_truth(5, 24);
        assert!(truth.contains(&CaseOutcome::Panicked), "mix has panics");
        assert!(truth.contains(&CaseOutcome::TimedOut), "mix has runaways");
        assert!(truth.contains(&CaseOutcome::Done), "mix has clean cases");
        for (local, want) in truth.iter().enumerate() {
            let got = catch_unwind(AssertUnwindSafe(|| run_case(&m, &wd(10_000), local as u64)));
            match want {
                CaseOutcome::Panicked => assert!(got.is_err(), "case {local} must panic"),
                other => assert_eq!(got.unwrap().outcome, *other, "case {local}"),
            }
        }
    }

    #[test]
    fn roster_cases_resolve_every_family_and_tool() {
        let quick = Manifest::parse("zoo-roster:quick").unwrap();
        let rec = run_case(&quick, &Watchdog::default_budget(), 1);
        assert!(rec.case.starts_with("zoo-roster:quick#"));
        assert_eq!(rec.outcome, CaseOutcome::Done);
        assert!(!rec.program_key.is_empty());
    }

    #[test]
    fn decoded_cache_shares_byte_identical_programs() {
        let src = r"
            .code
            main:
                li r2, 0
                exit
            ";
        let a = assemble(src).unwrap();
        let b = assemble(src).unwrap();
        let da = decoded_cache(&a);
        let db = decoded_cache(&b);
        assert!(Arc::ptr_eq(&da, &db), "same bytes must share one decode");
        // A different entry point is a different program.
        let mut c = assemble(src).unwrap();
        c.entry = c.entry.wrapping_add(1);
        let dc = decoded_cache(&c);
        assert!(!Arc::ptr_eq(&da, &dc));
    }

    #[test]
    fn zoo_repetitions_share_compiled_artifacts() {
        let m = Manifest::parse("zoo:parser:3*2").unwrap();
        let (gen, _) = m.locate(0).unwrap();
        let CaseGen::Zoo { spec, .. } = gen else {
            panic!("zoo manifest must locate to a zoo generator")
        };
        // Every `*K` repetition of the same (spec, tool) resolves to one
        // generated-and-compiled workload.
        let a = compiled_zoo(spec, tool_at(0));
        let b = compiled_zoo(spec, tool_at(0));
        assert!(Arc::ptr_eq(&a, &b), "repetitions must share one compile");
        // A different tool compiles separately (markers differ per tool).
        let c = compiled_zoo(spec, tool_at(1));
        assert!(!Arc::ptr_eq(&a, &c));
        // And the warmed caches never perturb records: the same case
        // renders byte-identically however hot the tables are.
        let cold = run_case(&m, &Watchdog::default_budget(), 0);
        let hot = run_case(&m, &Watchdog::default_budget(), 0);
        assert_eq!(cold.to_line(), hot.to_line());
    }

    #[test]
    fn zoo_records_match_a_memo_off_run_at_every_repetition() {
        // The memo table is warmed across `*K` repetitions of a spec; every
        // record must still equal what a memo-free simulation of that exact
        // case produces — the campaign-level face of the replay-identity
        // guarantee.
        let wd = Watchdog::default_budget();
        for k in [1u64, 4, 16] {
            let m = Manifest::parse(&format!("zoo:parser:3*{k}")).unwrap();
            let tools = Tool::ALL.len() as u64;
            // First and last case: coldest and hottest table states.
            for id in [0, k * tools - 1] {
                let rec = run_case(&m, &wd, id);
                let (gen, local) = m.locate(id).unwrap();
                let CaseGen::Zoo { spec, .. } = gen else {
                    panic!("zoo manifest must locate to a zoo generator")
                };
                let tool = tool_at(local);
                let w = zoo::generate(spec);
                let compiled = w.compile_for(tool).unwrap();
                let px = PxConfig::default()
                    .with_max_nt_path_len(w.max_nt_path_len)
                    .with_max_instructions(wd.clamp(ZOO_BUDGET))
                    .with_path_plan(path_plan_cache(&compiled.program))
                    .with_nt_memo(false);
                let seed = local / tools + 1;
                let io = IoState::new(w.general_input(seed), seed);
                let r = pathexpander::run(&compiled.program, &MachConfig::single_core(), &px, io);
                assert_eq!(rec.exit, r.exit.class(), "case {id} of *{k}");
                assert_eq!(rec.nt_paths, r.stats.spawns, "case {id} of *{k}");
                assert_eq!(
                    rec.covered_edges,
                    u64::from(r.total_coverage.covered_edges(&compiled.program)),
                    "case {id} of *{k}"
                );
                assert_eq!(rec.cov_bits, r.total_coverage.pack_bits(), "case {id}");
                assert_eq!(
                    rec.path_bits,
                    r.path_coverage
                        .as_ref()
                        .map_or_else(Vec::new, px_mach::PathCoverage::pack_bits),
                    "case {id} of *{k}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_ids_are_a_driver_bug() {
        let m = Manifest::parse("chaos:1:2").unwrap();
        let got = catch_unwind(AssertUnwindSafe(|| {
            run_case(&m, &Watchdog::default_budget(), 99)
        }));
        assert!(got.is_err());
    }
}
