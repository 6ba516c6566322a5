//! Fixed-budget engine runs: baseline, standard, CMP and software
//! PathExpander on a workload's programs, with no path plan.
//!
//! The engine-matrix workload is these runs alone; the campaign workloads
//! run them for a share of the run on their own programs, so every
//! workload reports simulated MIPS per engine.

use std::sync::Arc;

use pathexpander::{run_cmp_decoded, run_standard_decoded, PxConfig, PxRunResult};
use px_campaign::fault::CASE_BUDGET;
use px_campaign::runner::ZOO_BUDGET;
use px_campaign::Watchdog;
use px_detect::{classify, report, Tool};
use px_isa::DecodedProgram;
use px_mach::{run_baseline, IoState, MachConfig};
use px_soft::{run_soft, SoftConfig};
use px_util::fnv1a64;
use px_workloads::zoo::{self, ZooSpec};
use px_workloads::CompiledProgram;

use crate::trace::Trace;
use crate::workload::{engine_input_seed, Workload};

/// E13's per-run instruction budget.
const MATRIX_BUDGET: u64 = 1_500_000;

/// E13's common-op count for budget-saturating zoo input streams.
const MATRIX_OPS: u32 = 60_000;

/// The four engines, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Plain monitored run, no NT-paths.
    Baseline,
    /// Standard PathExpander (NT-paths inline on one core).
    Standard,
    /// CMP PathExpander (NT-paths on idle cores of a 4-core machine).
    Cmp,
    /// Software PathExpander (standard engine plus instrumentation model).
    Software,
}

impl Engine {
    /// Every engine.
    pub const ALL: [Engine; 4] = [
        Engine::Baseline,
        Engine::Standard,
        Engine::Cmp,
        Engine::Software,
    ];

    /// Report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Engine::Baseline => "baseline",
            Engine::Standard => "standard",
            Engine::Cmp => "cmp",
            Engine::Software => "software",
        }
    }

    /// The span the traced run records around this engine's call.
    #[must_use]
    pub fn span(self) -> &'static str {
        match self {
            Engine::Baseline => "mach.baseline",
            Engine::Standard => "core.standard",
            Engine::Cmp => "core.cmp",
            Engine::Software => "soft.run",
        }
    }
}

/// One program prepared for engine runs.
#[derive(Debug)]
pub struct Prepared {
    /// `<spec>/<tool>`.
    pub key: String,
    /// The compiled program (markers for detection).
    pub compiled: CompiledProgram,
    /// Its decode.
    pub dp: DecodedProgram,
    /// Input bytes.
    pub input: Vec<u8>,
    /// I/O seed.
    pub io_seed: u64,
    /// The program's general input (input seed 1), as a campaign case
    /// runs it.
    pub general: Vec<u8>,
    /// Source lines of every seeded bug (the campaign runner classifies
    /// against all of them).
    pub bug_lines: Vec<u32>,
}

/// A workload's engine runs: configuration plus prepared programs.
#[derive(Debug)]
pub struct EngineSet {
    /// PathExpander configuration (no path plan).
    pub px: PxConfig,
    /// Instruction budget of every run.
    pub budget: u64,
    /// The programs.
    pub runs: Vec<Prepared>,
}

/// Runs `f`, inside a span when tracing.
pub fn timed<R>(tr: Option<&Trace>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// The E13 PathExpander configuration.
#[must_use]
fn matrix_px(budget: u64) -> PxConfig {
    PxConfig::default()
        .with_max_instructions(budget)
        .with_counter_threshold(1)
        .with_counter_reset_interval(64)
        .with_max_nt_path_len(2_000)
}

/// The PathExpander configuration of a zoo campaign case, minus its plan.
#[must_use]
fn zoo_case_px() -> PxConfig {
    PxConfig::default()
        .with_max_nt_path_len(zoo::MAX_NT_PATH_LEN)
        .with_max_instructions(Watchdog::default_budget().clamp(ZOO_BUDGET))
}

impl EngineSet {
    /// Generates, compiles and decodes the workload's engine programs.
    ///
    /// # Panics
    ///
    /// When a generated program fails to compile (a workspace bug).
    #[must_use]
    pub fn build(w: Workload, seed: u64, tr: Option<&Trace>) -> EngineSet {
        let (px, budget) = match w {
            Workload::EngineMatrix => (matrix_px(MATRIX_BUDGET), MATRIX_BUDGET),
            Workload::FaultSwarm => (matrix_px(CASE_BUDGET), CASE_BUDGET),
            Workload::RosterCold | Workload::RosterRepeat => {
                let px = zoo_case_px();
                let budget = px.max_instructions;
                (px, budget)
            }
        };
        let zoo_inputs = w.plans();
        let runs = w
            .programs(seed)
            .into_iter()
            .map(|(spec, tool)| prepare(&spec, tool, zoo_inputs, seed, tr))
            .collect();
        EngineSet { px, budget, runs }
    }
}

fn prepare(
    spec: &ZooSpec,
    tool: Tool,
    zoo_inputs: bool,
    seed: u64,
    tr: Option<&Trace>,
) -> Prepared {
    let w = timed(tr, "workloads.generate", || zoo::generate(spec));
    let compiled = timed(tr, "lang.compile", || w.compile_for(tool))
        .unwrap_or_else(|e| panic!("{} ({}): {e}", w.name, tool.name()));
    let dp = timed(tr, "isa.decode", || {
        DecodedProgram::decode(&compiled.program)
    });
    let general = w.general_input(1);
    let (input, io_seed) = if zoo_inputs {
        (general.clone(), 1)
    } else {
        let s = engine_input_seed(seed);
        (
            timed(tr, "workloads.generate", || {
                zoo::input_bytes_n(spec, s, MATRIX_OPS)
            }),
            s,
        )
    };
    Prepared {
        key: format!("{spec}/{}", tool.name()),
        bug_lines: w.bugs.iter().map(|b| w.marker_line(&b.marker)).collect(),
        compiled,
        dp,
        input,
        io_seed,
        general,
    }
}

/// The architectural summary of one engine run — what its row digest
/// covers (the same fields, in the same order, as E13's throughput rows).
#[derive(Debug, Clone)]
pub struct Arch {
    /// Exit class.
    pub exit: &'static str,
    /// Instructions retired, taken path plus NT-paths.
    pub instructions: u64,
    /// NT-path instructions.
    pub nt_instructions: u64,
    /// Simulated cycles.
    pub sim_cycles: u64,
    /// Completed NT-paths.
    pub nt_paths: u64,
    /// NT-paths spawned.
    pub spawns: u64,
    /// Spawns refused because `MaxNumNTPaths` were outstanding (CMP).
    pub skipped_outstanding: u64,
    /// Monitor records.
    pub monitor_len: usize,
    /// Covered branch edges.
    pub covered_edges: u32,
    /// Program output.
    pub io_output: Vec<u8>,
}

impl Arch {
    /// E13's row digest.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = fnv1a64(0, self.exit.as_bytes());
        for n in [
            self.instructions,
            self.sim_cycles,
            self.nt_paths,
            self.monitor_len as u64,
            self.spawns,
            u64::from(self.covered_edges),
        ] {
            h = fnv1a64(h, &n.to_le_bytes());
        }
        fnv1a64(h, &self.io_output)
    }

    fn of_px(p: &Prepared, r: &PxRunResult) -> Arch {
        Arch {
            exit: r.exit.class(),
            instructions: r.stats.taken_instructions + r.stats.nt_instructions,
            nt_instructions: r.stats.nt_instructions,
            sim_cycles: r.cycles,
            nt_paths: r.stats.paths.len() as u64,
            spawns: r.stats.spawns,
            skipped_outstanding: r.stats.skipped_outstanding,
            monitor_len: r.monitor.len(),
            covered_edges: r.total_coverage.covered_edges(&p.compiled.program),
            io_output: r.io.output().to_vec(),
        }
    }
}

/// Runs one engine on one program.
#[must_use]
pub fn run(engine: Engine, set: &EngineSet, p: &Prepared) -> Arch {
    let program = &p.compiled.program;
    let io = IoState::new(p.input.clone(), p.io_seed);
    match engine {
        Engine::Baseline => {
            let r = run_baseline(program, &MachConfig::single_core(), io, set.budget);
            Arch {
                exit: r.exit.class(),
                instructions: r.instructions,
                nt_instructions: 0,
                sim_cycles: r.cycles,
                nt_paths: 0,
                spawns: 0,
                skipped_outstanding: 0,
                monitor_len: 0,
                covered_edges: r.coverage.covered_edges(program),
                io_output: r.io.output().to_vec(),
            }
        }
        Engine::Standard => {
            let r = run_standard_decoded(program, &p.dp, &MachConfig::single_core(), &set.px, io);
            Arch::of_px(p, &r)
        }
        Engine::Cmp => {
            let px = set.px.clone().cmp();
            let r = run_cmp_decoded(program, &p.dp, &MachConfig::default(), &px, io);
            Arch::of_px(p, &r)
        }
        Engine::Software => {
            let r = run_soft(program, &set.px, &SoftConfig::default(), io);
            Arch::of_px(p, &r.run)
        }
    }
}

/// Modelled results of a standard-engine run with a prime-path plan, summed
/// over the set's programs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Modelled {
    /// True-positive bug lines detected.
    pub bugs: u64,
    /// Covered branch edges.
    pub covered_edges: u64,
    /// Static branch edges.
    pub static_edges: u64,
    /// Covered feasible prime paths.
    pub prime_covered: u64,
    /// Feasible prime paths.
    pub prime_feasible: u64,
}

impl Modelled {
    /// Covered edges over static edges.
    #[must_use]
    pub fn edge_coverage(&self) -> f64 {
        self.covered_edges as f64 / self.static_edges.max(1) as f64
    }

    /// Covered prime paths over feasible prime paths.
    #[must_use]
    pub fn prime_path_coverage(&self) -> f64 {
        self.prime_covered as f64 / self.prime_feasible.max(1) as f64
    }
}

/// Runs each program once as a campaign zoo case would — standard engine,
/// prime-path plan, general input — and sums detections and coverage.
/// Untimed: it only fixes the modelled results the timed runs must not
/// change. (The budget-cut engine runs are not used here: they report no
/// covered prime path at all.)
#[must_use]
pub fn modelled(set: &EngineSet) -> Modelled {
    let mut m = Modelled::default();
    for p in &set.runs {
        let program = &p.compiled.program;
        let plan =
            pathexpander::plan_paths(&px_analyze::Analysis::of(program).prime_paths(program))
                .ok()
                .map(Arc::new);
        let px = zoo_case_px().with_path_plan(plan);
        let io = IoState::new(p.general.clone(), 1);
        let r = run_standard_decoded(program, &p.dp, &MachConfig::single_core(), &px, io);
        let tool = tool_of(&p.key);
        let dets = report(&p.compiled, &r.monitor, tool);
        m.bugs += classify(&dets, &p.bug_lines, false)
            .true_positive_lines
            .len() as u64;
        m.covered_edges += u64::from(r.total_coverage.covered_edges(program));
        m.static_edges += u64::from(program.static_edge_count());
        if let Some(c) = &r.path_coverage {
            m.prime_covered += u64::from(c.covered_count());
            m.prime_feasible += u64::from(c.feasible_total());
        }
    }
    m
}

/// The tool a `<spec>/<tool>` key was compiled for.
#[must_use]
pub fn tool_of(key: &str) -> Tool {
    let name = key.rsplit('/').next().unwrap_or("");
    Tool::ALL
        .into_iter()
        .find(|t| t.name() == name)
        .expect("keys end in a tool name")
}
