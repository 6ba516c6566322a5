//! The traced campaign: a serial rerun of a manifest that calls the
//! crates' public functions in the order the campaign runner does, with a
//! span around each layer.
//!
//! It rebuilds every [`CaseRecord`], appends it to its own journal and
//! folds it into an [`Aggregate`], so its digest must equal the untraced
//! campaign's — the proof that the trace measured the same work. Zoo cases
//! are also rerun without their path plan and without the NT replay cache
//! (the `diff.*` spans); those reruns are kept out of the traced total.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use pathexpander::{
    plan_paths, run_standard_decoded, run_standard_memo, standard_memo_table, PxConfig,
};
use px_analyze::Analysis;
use px_campaign::fault::{self, ENGINES};
use px_campaign::journal::{Journal, JournalMeta};
use px_campaign::outcome::CaseRecord;
use px_campaign::runner::ZOO_BUDGET;
use px_campaign::{run_only, Aggregate, CampaignError, CaseGen, CaseOutcome, Manifest, Watchdog};
use px_detect::{classify, report, Tool};
use px_isa::{encode_program, DecodedProgram, Program};
use px_mach::{IoState, MachConfig, MemoTable, PathPlan};
use px_util::{fnv1a64, MemoCounters};
use px_workloads::zoo::{self, ZooSpec};
use px_workloads::{CompiledProgram, Workload};

use crate::trace::Trace;

/// Checkpoint cadence of the campaign driver's default configuration.
const CHECKPOINT_EVERY: u64 = 64;

/// Counts the traced run gathers beside its spans.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Prime paths enumerated, over every planned program.
    pub prime_paths: u64,
    /// Programs whose enumeration hit its limits.
    pub truncated: u64,
    /// NT-paths spawned by the standard engine.
    pub spawns: u64,
    /// Instructions retired by the standard engine, taken plus NT.
    pub instructions: u64,
    /// Of those, NT-path instructions.
    pub nt_instructions: u64,
    /// Spawns the CMP engine refused because `MaxNumNTPaths` were
    /// outstanding.
    pub skipped: u64,
    /// NT replay-cache counters, summed over every table.
    pub memo: MemoCounters,
}

/// What the traced campaign produced.
#[derive(Debug)]
pub struct Decomposed {
    /// The fold of every rebuilt record.
    pub aggregate: Aggregate,
    /// Layer counts.
    pub counts: Counts,
}

type Compiled = Arc<(Workload, CompiledProgram)>;

/// Per-process caches, mirrored from the campaign runner so the trace pays
/// each set-up cost exactly where the runner does: on a key's first case.
#[derive(Default)]
struct Caches {
    compiled: HashMap<String, Compiled>,
    plans: HashMap<u64, Option<Arc<PathPlan>>>,
    decoded: HashMap<u64, Arc<DecodedProgram>>,
    memo: HashMap<u64, MemoTable>,
    memo_no_plan: HashMap<u64, MemoTable>,
}

fn program_key(program: &Program) -> u64 {
    fnv1a64(
        fnv1a64(0, &encode_program(&program.code)),
        &program.entry.to_le_bytes(),
    )
}

/// Runs `manifest` serially under `tr`, journaling to `journal`. Zoo cases
/// are also rerun without plan and without memo, in `diff.*` spans.
///
/// # Errors
///
/// Journal I/O failures and unmergeable coverage shards.
pub fn run(manifest: &Manifest, journal: &Path, tr: &Trace) -> Result<Decomposed, CampaignError> {
    let wd = Watchdog::default_budget();
    let total = manifest.total();
    let mut j = Journal::create(
        journal,
        &JournalMeta {
            manifest: manifest.to_string(),
            timeout: wd.timeout,
            total,
        },
    )?;
    let mut agg = Aggregate::default();
    let mut caches = Caches::default();
    let mut counts = Counts::default();
    let mut since_ckpt = 0;
    tr.span("trace", || -> Result<(), CampaignError> {
        for id in 0..total {
            tr.set_case(id);
            let rec = tr.span("campaign.case", || {
                run_case(manifest, &wd, id, &mut caches, &mut counts, tr)
            });
            tr.span("campaign.journal_append", || j.case(&rec))?;
            tr.span("campaign.fold", || agg.absorb(&rec))?;
            since_ckpt += 1;
            if since_ckpt >= CHECKPOINT_EVERY {
                tr.span("campaign.journal_fsync", || j.ckpt(agg.total, &agg))?;
                since_ckpt = 0;
            }
        }
        if since_ckpt > 0 || total == 0 {
            tr.span("campaign.journal_fsync", || j.ckpt(agg.total, &agg))?;
        }
        Ok(())
    })?;
    for table in caches.memo.values() {
        let c = &table.counters;
        counts.memo.hits += c.hits;
        counts.memo.misses += c.misses;
        counts.memo.invalidations += c.invalidations;
    }
    Ok(Decomposed {
        aggregate: agg,
        counts,
    })
}

fn run_case(
    manifest: &Manifest,
    wd: &Watchdog,
    id: u64,
    caches: &mut Caches,
    counts: &mut Counts,
    tr: &Trace,
) -> CaseRecord {
    let (gen, local) = manifest.locate(id).expect("ids come from the manifest");
    let case = format!("{gen}#{local}");
    let tools = Tool::ALL.len() as u64;
    let tool_at = |l: u64| Tool::ALL[(l % tools) as usize];
    match gen {
        CaseGen::Fault { seed, mix, .. } => fault_case(id, case, *seed, local, mix, wd, tr),
        CaseGen::Zoo { spec, .. } => {
            let zc = ZooCase {
                id,
                case,
                spec,
                input_seed: local / tools + 1,
                tool: tool_at(local),
            };
            zoo_case(&zc, wd, caches, counts, tr)
        }
        CaseGen::ZooRoster { quick } => {
            let roster = zoo::roster();
            let family = if *quick { local } else { local / tools };
            let zc = ZooCase {
                id,
                case,
                spec: &roster[family as usize],
                input_seed: 1,
                tool: tool_at(local),
            };
            zoo_case(&zc, wd, caches, counts, tr)
        }
        CaseGen::Chaos { .. } => tr.span("campaign.other", || run_only(manifest, wd.timeout, id)),
    }
}

fn fault_span(engine: &str) -> &'static str {
    match engine {
        "baseline" => "campaign.fault_case.baseline",
        "standard" => "campaign.fault_case.standard",
        "cmp" => "campaign.fault_case.cmp",
        _ => "campaign.fault_case.feasibility",
    }
}

fn fault_case(
    id: u64,
    case: String,
    seed: u64,
    local: u64,
    mix: &px_mach::FaultMix,
    wd: &Watchdog,
    tr: &Trace,
) -> CaseRecord {
    let engine = ENGINES[(local % ENGINES.len() as u64) as usize];
    let fc = tr.span(fault_span(engine), || {
        fault::run_case_budget(seed, local, mix, wd.clamp(fault::CASE_BUDGET))
    });
    tr.span("campaign.record", || {
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
    })
}

struct ZooCase<'a> {
    id: u64,
    case: String,
    spec: &'a ZooSpec,
    input_seed: u64,
    tool: Tool,
}

fn zoo_case(
    zc: &ZooCase<'_>,
    wd: &Watchdog,
    caches: &mut Caches,
    counts: &mut Counts,
    tr: &Trace,
) -> CaseRecord {
    let (spec, tool) = (zc.spec, zc.tool);
    let key = format!("{spec}/{}", tool.name());
    let shared = Arc::clone(caches.compiled.entry(key.clone()).or_insert_with(|| {
        let w = tr.span("workloads.generate", || zoo::generate(spec));
        let compiled = tr
            .span("lang.compile", || w.compile_for(tool))
            .unwrap_or_else(|e| panic!("{} ({}): {e}", w.name, tool.name()));
        Arc::new((w, compiled))
    }));
    let (w, compiled) = (&shared.0, &shared.1);
    let program = &compiled.program;
    let pkey = program_key(program);
    let plan = caches
        .plans
        .entry(pkey)
        .or_insert_with(|| {
            let analysis = tr.span("analyze.cfg", || Analysis::of(program));
            let set = tr.span("analyze.prime_paths", || analysis.prime_paths(program));
            counts.prime_paths += set.len() as u64;
            counts.truncated += u64::from(set.truncated());
            tr.span("core.plan_paths", || plan_paths(&set))
                .ok()
                .map(Arc::new)
        })
        .clone();
    let px = PxConfig::default()
        .with_max_nt_path_len(w.max_nt_path_len)
        .with_max_instructions(wd.clamp(ZOO_BUDGET))
        .with_path_plan(plan);
    let input = w.general_input(zc.input_seed);
    let dp =
        Arc::clone(caches.decoded.entry(pkey).or_insert_with(|| {
            Arc::new(tr.span("isa.decode", || DecodedProgram::decode(program)))
        }));
    let mach = MachConfig::single_core();

    // The two reruns alternate sides with the measured run, so neither
    // always finds the host caches warm.
    let rerun_first = zc.id % 2 == 1;
    if rerun_first {
        reruns(program, &dp, &mach, &px, &input, zc.input_seed, caches, tr);
    }
    let fresh = tr.span("core.memo_table", || {
        standard_memo_table(program, &mach, &px)
    });
    let memo = caches.memo.entry(fresh.fingerprint()).or_insert(fresh);
    let io = IoState::new(input.clone(), zc.input_seed);
    let r = tr.span("core.standard", || {
        run_standard_memo(program, &dp, &mach, &px, io, memo)
    });
    if !rerun_first {
        reruns(program, &dp, &mach, &px, &input, zc.input_seed, caches, tr);
    }
    counts.spawns += r.stats.spawns;
    counts.instructions += r.stats.taken_instructions + r.stats.nt_instructions;
    counts.nt_instructions += r.stats.nt_instructions;

    let c = tr.span("detect.classify", || {
        let all_lines: Vec<u32> = w.bugs.iter().map(|b| w.marker_line(&b.marker)).collect();
        let dets = report(compiled, &r.monitor, tool);
        classify(&dets, &all_lines, false)
    });
    tr.span("campaign.record", || {
        let exit = r.exit.class().to_owned();
        let outcome = if wd.tripped(ZOO_BUDGET, &exit) {
            CaseOutcome::TimedOut
        } else {
            CaseOutcome::Done
        };
        CaseRecord {
            id: zc.id,
            case: zc.case.clone(),
            outcome,
            exit,
            faults: 0,
            nt_paths: r.stats.spawns,
            detections: c.true_positive_lines.len() as u64,
            covered_edges: u64::from(r.total_coverage.covered_edges(program)),
            program_key: key,
            code_len: program.code.len() as u64,
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
    })
}

/// The differential reruns of one zoo case: without its path plan (memo
/// on, against a table warmed by the same case sequence) and without the
/// NT replay cache (plan on).
#[allow(clippy::too_many_arguments)]
fn reruns(
    program: &Program,
    dp: &DecodedProgram,
    mach: &MachConfig,
    px: &PxConfig,
    input: &[u8],
    input_seed: u64,
    caches: &mut Caches,
    tr: &Trace,
) {
    let no_plan = px.clone().with_path_plan(None);
    let fresh = standard_memo_table(program, mach, &no_plan);
    let memo = caches
        .memo_no_plan
        .entry(fresh.fingerprint())
        .or_insert(fresh);
    let io = IoState::new(input.to_vec(), input_seed);
    tr.span("diff.no_plan", || {
        std::hint::black_box(run_standard_memo(program, dp, mach, &no_plan, io, memo))
    });
    let memo_off = px.clone().with_nt_memo(false);
    let io = IoState::new(input.to_vec(), input_seed);
    tr.span("diff.memo_off", || {
        std::hint::black_box(run_standard_decoded(program, dp, mach, &memo_off, io))
    });
}
