//! The baseline runner: a monitored run *without* PathExpander.
//!
//! This is the paper's "Baseline" column — the program executes once on one
//! core with full timing, coverage tracking and checker monitoring, but no
//! NT-path exploration.

use px_isa::{DecodedProgram, Program};

use crate::btb::{Btb, Edge};
use crate::cache::{Hierarchy, COMMITTED};
use crate::config::MachConfig;
use crate::core::CoreState;
use crate::coverage::Coverage;
use crate::exec::{StepEnv, StepEvent};
use crate::fault::{FaultHook, SimError, MAX_MEM_BYTES};
use crate::io::IoState;
use crate::memory::{CrashKind, Memory};
use crate::monitor::{MonitorArea, MonitorRecord, PathKind, RecordKind};
use crate::paths::{PathCoverage, PathPlan, PathTrail};
use crate::uexec::{run_simple, step_uop, uop_cost_table};
use crate::watch::WatchTable;

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// Clean `exit` system call with this code.
    Exited(i32),
    /// The taken path crashed.
    Crashed(CrashKind),
    /// The instruction budget was exhausted.
    BudgetExhausted,
    /// The *simulator* (not the simulated program) rejected the run: bad
    /// configuration, malformed program, or a broken engine invariant.
    EngineFault(SimError),
}

impl RunExit {
    /// Whether the program exited cleanly with code 0.
    #[must_use]
    pub fn is_success(&self) -> bool {
        matches!(self, RunExit::Exited(0))
    }

    /// A short class name for histograms and JSON summaries.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            RunExit::Exited(_) => "exited",
            RunExit::Crashed(_) => "crashed",
            RunExit::BudgetExhausted => "budget",
            RunExit::EngineFault(_) => "engine-fault",
        }
    }
}

/// Result of a baseline run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// How the run ended.
    pub exit: RunExit,
    /// Instructions retired.
    pub instructions: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Taken-path branch coverage.
    pub coverage: Coverage,
    /// Checker records (the monitor memory area).
    pub monitor: MonitorArea,
    /// Final I/O state (program output, remaining input).
    pub io: IoState,
    /// Final memory (for test inspection).
    pub memory: Memory,
    /// Final core state (registers and pc) — the committed register file
    /// the containment checker compares against PathExpander runs.
    pub core: CoreState,
    /// Prime-path coverage, when [`run_baseline_traced`] was given a plan.
    pub path_coverage: Option<PathCoverage>,
}

/// Runs `program` to completion (or `max_instructions`) without PathExpander.
///
/// The run uses core 0 of `cfg`, warms nothing, and is fully deterministic
/// given the input bytes and seed in `io`.
#[must_use]
pub fn run_baseline(
    program: &Program,
    cfg: &MachConfig,
    io: IoState,
    max_instructions: u64,
) -> RunResult {
    run_baseline_with(program, cfg, io, max_instructions, None)
}

/// [`run_baseline`] with an optional fault injector. Baseline has no
/// sandbox, so injected core-level faults are *architectural* — they
/// corrupt the run exactly as a real fault would; deferred (cache-level)
/// faults are PathExpander-specific and are ignored here. Configuration
/// and program problems surface as [`RunExit::EngineFault`].
#[must_use]
pub fn run_baseline_with(
    program: &Program,
    cfg: &MachConfig,
    io: IoState,
    max_instructions: u64,
    fault: Option<&mut dyn FaultHook>,
) -> RunResult {
    run_baseline_traced(program, cfg, io, max_instructions, fault, None)
}

/// [`run_baseline_with`] plus optional prime-path tracking: with a
/// [`PathPlan`], the result carries a [`PathCoverage`] of the prime paths
/// the taken path traversed. Tracking is purely observational — the
/// architectural run (exit, coverage, cycles, digests) is byte-identical
/// with or without a plan.
#[must_use]
pub fn run_baseline_traced(
    program: &Program,
    cfg: &MachConfig,
    io: IoState,
    max_instructions: u64,
    mut fault: Option<&mut dyn FaultHook>,
    plan: Option<&PathPlan>,
) -> RunResult {
    let fail = |exit: SimError, io: IoState| RunResult {
        exit: RunExit::EngineFault(exit),
        instructions: 0,
        cycles: 0,
        coverage: Coverage::for_program(program),
        monitor: MonitorArea::new(),
        io,
        memory: Memory::new(0),
        core: CoreState::default(),
        path_coverage: None,
    };
    if let Err(e) = cfg.validate() {
        return fail(e, io);
    }
    if program.mem_size > MAX_MEM_BYTES {
        return fail(
            SimError::ProgramTooLarge {
                mem_size: program.mem_size,
            },
            io,
        );
    }
    let mut memory = Memory::new(cfg.mem_size.max(program.mem_size));
    for item in &program.data {
        if let Err(e) = memory.try_load_blob(item.addr, &item.bytes) {
            return fail(e, io);
        }
    }
    let mut core = CoreState::at_entry(program.entry, memory.size());
    let mut caches = Hierarchy::new(cfg);
    let mut btb = Btb::new(cfg.btb_entries, cfg.btb_assoc);
    let mut watches = WatchTable::new();
    let mut coverage = Coverage::for_program(program);
    let mut monitor = MonitorArea::new();
    let mut io = io;
    let mut tracking: Option<(&PathPlan, PathTrail, PathCoverage)> =
        plan.map(|p| (p, PathTrail::default(), p.new_coverage()));
    if let Some((p, trail, cov)) = &mut tracking {
        trail.enter_pc(p, cov, program.entry);
    }

    let dp = DecodedProgram::decode(program);
    let cost_table = uop_cost_table(&cfg.costs);
    // Simple runs batch only in the production configuration: a fault hook
    // must be consulted before every instruction.
    let batching = fault.is_none();

    let mut cycles: u64 = 0;
    let mut instructions: u64 = 0;
    let exit = loop {
        if instructions >= max_instructions {
            break RunExit::BudgetExhausted;
        }
        if batching {
            let run = dp.simple_run(core.pc);
            if run > 0 {
                let pc0 = core.pc;
                let n = u64::from(run).min(max_instructions - instructions) as u32;
                cycles += run_simple(&dp, &mut core, n, &cost_table);
                instructions += u64::from(n);
                if let Some((p, trail, cov)) = &mut tracking {
                    trail.enter_range(p, cov, pc0, n);
                }
                continue;
            }
        }
        let mut env = StepEnv {
            io: &mut io,
            watches: &mut watches,
            suppress_syscalls: false,
            now_cycles: cycles,
            costs: &cfg.costs,
            fault: fault.as_mut().map(|h| &mut **h as &mut dyn FaultHook),
        };
        let s = step_uop(program, &dp, &mut core, &mut memory, &mut env);
        instructions += 1;
        cycles += u64::from(s.base_cost);
        if let Some(access) = s.access {
            let a = caches.access(0, access.addr, access.write, COMMITTED);
            cycles += u64::from(a.cycles);
        }
        match s.event {
            StepEvent::Branch { pc, taken, .. } => {
                let edge = Edge::from_taken(taken);
                btb.exercise(pc, edge);
                coverage.record(pc, edge);
            }
            StepEvent::CheckFailed { kind, site, pc } => monitor.push(MonitorRecord {
                kind: RecordKind::Check(kind),
                site,
                pc,
                cycle: cycles,
                path: PathKind::Taken,
            }),
            StepEvent::WatchHit {
                tag,
                addr,
                is_write,
                pc,
            } => monitor.push(MonitorRecord {
                kind: RecordKind::Watch {
                    tag,
                    addr,
                    is_write,
                },
                site: tag,
                pc,
                cycle: cycles,
                path: PathKind::Taken,
            }),
            StepEvent::Exit { code } => break RunExit::Exited(code),
            StepEvent::Crash { kind, .. } => break RunExit::Crashed(kind),
            StepEvent::Syscall { .. } | StepEvent::None => {}
            StepEvent::UnsafeEvent { .. } => {
                break RunExit::EngineFault(SimError::Invariant(
                    "baseline never suppresses system calls",
                ));
            }
        }
        // Control arrived at the new pc (surviving events fall through to
        // here; exits and crashes broke out above).
        if let Some((p, trail, cov)) = &mut tracking {
            trail.enter_pc(p, cov, core.pc);
        }
    };

    RunResult {
        exit,
        instructions,
        cycles,
        coverage,
        monitor,
        io,
        memory,
        core,
        path_coverage: tracking.map(|(_, _, cov)| cov),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_isa::asm::assemble;

    #[test]
    fn baseline_runs_to_exit_with_coverage() {
        let program = assemble(
            r"
            .code
            main:
                li r1, 3
            loop:
                subi r1, r1, 1
                bgt r1, zero, loop
                li r2, 0
                exit
            ",
        )
        .unwrap();
        let r = run_baseline(
            &program,
            &MachConfig::single_core(),
            IoState::default(),
            1_000,
        );
        assert_eq!(r.exit, RunExit::Exited(0));
        // Loop branch: taken twice, not-taken once => both edges covered.
        assert_eq!(r.coverage.covered_edges(&program), 2);
        assert!((r.coverage.branch_coverage(&program) - 1.0).abs() < 1e-12);
        assert!(
            r.cycles > r.instructions,
            "memoryless ALU still costs >= 1 cycle each"
        );
    }

    #[test]
    fn baseline_reports_crash() {
        let program = assemble(".code\nmain:\n  lw r1, 0(zero)\n").unwrap();
        let r = run_baseline(
            &program,
            &MachConfig::single_core(),
            IoState::default(),
            100,
        );
        assert!(matches!(
            r.exit,
            RunExit::Crashed(CrashKind::NullDeref { .. })
        ));
    }

    #[test]
    fn baseline_respects_budget() {
        let program = assemble(".code\nmain:\n  jmp main\n").unwrap();
        let r = run_baseline(&program, &MachConfig::single_core(), IoState::default(), 50);
        assert_eq!(r.exit, RunExit::BudgetExhausted);
        assert_eq!(r.instructions, 50);
    }

    #[test]
    fn baseline_collects_monitor_records() {
        let program = assemble(
            r"
            .code
            main:
                li r1, 0
                assert r1, #4
                exit
            ",
        )
        .unwrap();
        let r = run_baseline(
            &program,
            &MachConfig::single_core(),
            IoState::default(),
            100,
        );
        assert_eq!(r.monitor.len(), 1);
        assert_eq!(r.monitor.records()[0].site, 4);
        assert_eq!(r.monitor.records()[0].path, PathKind::Taken);
    }

    #[test]
    fn bad_config_is_an_engine_fault_not_a_panic() {
        let program = assemble(".code\nmain:\n  exit\n").unwrap();
        let mut cfg = MachConfig::single_core();
        cfg.cores = 0;
        let r = run_baseline(&program, &cfg, IoState::default(), 100);
        assert_eq!(
            r.exit,
            RunExit::EngineFault(crate::fault::SimError::NoCores)
        );
        assert_eq!(r.exit.class(), "engine-fault");
    }

    #[test]
    fn malformed_program_is_an_engine_fault() {
        // Data item far beyond the data memory: a malformed (or garbage)
        // program must be rejected, not panic the loader.
        let mut program = assemble(".code\nmain:\n  exit\n").unwrap();
        program.data.push(px_isa::DataItem {
            addr: u32::MAX - 2,
            bytes: vec![1, 2, 3, 4],
        });
        let r = run_baseline(
            &program,
            &MachConfig::single_core(),
            IoState::default(),
            100,
        );
        assert!(matches!(
            r.exit,
            RunExit::EngineFault(crate::fault::SimError::BlobOutOfBounds { .. })
        ));

        let mut program = assemble(".code\nmain:\n  exit\n").unwrap();
        program.mem_size = u32::MAX;
        let r = run_baseline(
            &program,
            &MachConfig::single_core(),
            IoState::default(),
            100,
        );
        assert!(matches!(
            r.exit,
            RunExit::EngineFault(crate::fault::SimError::ProgramTooLarge { .. })
        ));
    }

    #[test]
    fn injected_faults_never_panic_the_baseline() {
        use crate::fault::FaultPlan;
        let program = assemble(
            r"
            .code
            main:
                li r1, 50
            loop:
                subi r1, r1, 1
                sw r1, 0x40(zero)
                bgt r1, zero, loop
                exit
            ",
        )
        .unwrap();
        // Note 0x40(zero) is in the guard page: the program crashes on its
        // own; with aggressive injection it may crash differently or exit.
        for seed in 0..20 {
            let mut plan = FaultPlan::uniform(seed, 2);
            let r = run_baseline_with(
                &program,
                &MachConfig::single_core(),
                IoState::default(),
                10_000,
                Some(&mut plan),
            );
            assert!(
                !matches!(r.exit, RunExit::EngineFault(_)),
                "architectural faults only: {:?}",
                r.exit
            );
        }
    }

    #[test]
    fn io_flows_through() {
        let program = assemble(
            r"
            .code
            main:
                readi
                mv r2, r1
                addi r2, r2, 1
                printi
                li r2, 0
                exit
            ",
        )
        .unwrap();
        let io = IoState::new(b"41".to_vec(), 1);
        let r = run_baseline(&program, &MachConfig::single_core(), io, 100);
        assert_eq!(r.io.output_string(), "42");
    }
}
