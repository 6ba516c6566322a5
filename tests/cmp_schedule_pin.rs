//! Full-result pins of the CMP engine's schedule.
//!
//! The E13 row digests fold exit, counts, cycles, monitor *length*, edges
//! and output. They do not see the order of monitor records, the order in
//! which NT-paths stopped, or final memory — exactly what a scheduler that
//! reorders work across cores could silently change. These pins fold every
//! field of the complete [`PxRunResult`] explicitly (no `Debug` strings):
//! exit, cycles, each monitor record, every `PxStats` counter, each
//! `NtPathRecord` in completion order, both coverage bitmaps, prime-path
//! bits, I/O output, registers and memory.
//!
//! * (a) the first six E15 roster specs × 3 tools × 12 configurations that
//!   reach every scheduler regime: default, path plan, E13 budget cut, E13
//!   memo off, 2 cores with 4 outstanding, 512 outstanding, a 64-byte L1
//!   (forced commits), OS sandbox + random factor + watchdog 64,
//!   explore-NT-from-NT, and three fault seeds;
//! * (b) a budget sweep, 3000..=3300 instructions, on both E13 zoo
//!   programs, where the budget cut lands on every core in turn;
//! * (c) E13's asm workloads, `nt-heavy` and `taken-stride`, at the E13
//!   budget with K ∈ {1, 4, 16}, with and without a prime-path plan.
//!
//! The pinned values of (a) and (b) were derived on the engine before
//! lookahead scheduling, and (c) on the engine that still replayed about
//! 99% of `nt-heavy`'s NT-paths from a memo cache; now every path is
//! simulated live, under lookahead. None may ever move: any change to them
//! is a change in what the CMP engine computes.

use std::sync::Arc;

use pathexpander::{plan_paths, run_cmp, run_cmp_with, NtStop, PxConfig, PxRunResult};
use px_bench::experiments::perf::{RUN_BUDGET, WORKLOADS};
use px_detect::Tool;
use px_isa::{Program, Reg};
use px_mach::{
    CacheConfig, CrashKind, FaultPlan, IoState, MachConfig, PathKind, RecordKind, RunExit,
};
use px_util::fnv1a64;
use px_workloads::zoo::{self, ZooSpec};

const PIN_MATRIX: u64 = 0x7407_e076_1008_a027;
const PIN_BUDGET_SWEEP: u64 = 0x9d8c_770a_38c4_5696;
const PIN_E13_ASM: u64 = 0x921f_84fa_fc31_efe6;

fn mix(h: u64, v: u64) -> u64 {
    fnv1a64(h, &v.to_le_bytes())
}

fn crash_code(k: CrashKind) -> (u64, u64) {
    match k {
        CrashKind::NullDeref { addr } => (1, u64::from(addr)),
        CrashKind::OutOfBounds { addr } => (2, u64::from(addr)),
        CrashKind::DivByZero => (3, 0),
        CrashKind::BadPc { pc } => (4, u64::from(pc)),
    }
}

fn exit_code(e: &RunExit) -> (u64, u64) {
    match e {
        RunExit::Exited(c) => (1, u64::from(*c as u32)),
        RunExit::Crashed(k) => {
            let (t, v) = crash_code(*k);
            (2 + 16 * t, v)
        }
        RunExit::BudgetExhausted => (3, 0),
        RunExit::EngineFault(_) => (4, 0),
    }
}

fn stop_code(s: NtStop) -> (u64, u64) {
    match s {
        NtStop::MaxLength => (1, 0),
        NtStop::Crash(k) => {
            let (t, v) = crash_code(k);
            (2 + 16 * t, v)
        }
        NtStop::Unsafe(c) => (3, c as u64),
        NtStop::ProgramEnd => (4, 0),
        NtStop::SandboxOverflow => (5, 0),
        NtStop::ForcedCommit => (6, 0),
        NtStop::RunCutShort => (7, 0),
        NtStop::Watchdog => (8, 0),
    }
}

/// Folds the complete run result into `h`.
fn fold(mut h: u64, r: &PxRunResult) -> u64 {
    let (t, v) = exit_code(&r.exit);
    h = mix(mix(mix(h, t), v), r.cycles);
    h = mix(h, r.monitor.len() as u64);
    for rec in r.monitor.records() {
        let (kind, a, b) = match rec.kind {
            RecordKind::Check(k) => (1, k as u64, 0),
            RecordKind::Watch {
                tag,
                addr,
                is_write,
            } => (2 + u64::from(is_write), u64::from(tag), u64::from(addr)),
        };
        let origin = match rec.path {
            PathKind::Taken => u64::MAX,
            PathKind::NtPath { spawn_pc } => u64::from(spawn_pc),
        };
        for x in [
            kind,
            a,
            b,
            u64::from(rec.site),
            u64::from(rec.pc),
            rec.cycle,
            origin,
        ] {
            h = mix(h, x);
        }
    }
    let s = &r.stats;
    for x in [
        s.spawns,
        s.skipped_hot,
        s.skipped_checker,
        s.skipped_outstanding,
        s.skipped_static,
        s.taken_instructions,
        s.nt_instructions,
        s.dyn_branches,
        s.nt_writes,
        s.counter_resets,
        s.random_spawns,
        s.nt_syscalls_sandboxed,
        s.faults_injected,
        s.paths.len() as u64,
    ] {
        h = mix(h, x);
    }
    for p in &s.paths {
        let (t, v) = stop_code(p.stop);
        for x in [u64::from(p.spawn_pc), u64::from(p.executed), t, v] {
            h = mix(h, x);
        }
    }
    h = fnv1a64(h, &r.taken_coverage.pack_bits());
    h = fnv1a64(h, &r.total_coverage.pack_bits());
    match &r.path_coverage {
        Some(c) => h = fnv1a64(mix(h, c.set_digest()), &c.pack_bits()),
        None => h = mix(h, 0),
    }
    h = fnv1a64(mix(h, r.io.output().len() as u64), r.io.output());
    h = mix(h, r.io.remaining_input() as u64);
    for i in 0..Reg::COUNT {
        h = mix(h, u64::from(r.core.regs.get(Reg::new(i as u8)) as u32));
    }
    h = mix(mix(h, u64::from(r.core.pc)), u64::from(r.core.pred));
    // Memory is folded a word at a time: byte-wise FNV over 1 MiB per run
    // would dominate the suite's debug-build time.
    let mem = r.memory.slice(0, r.memory.size());
    h = mix(h, mem.len() as u64);
    for w in mem.chunks(8) {
        let mut b = [0u8; 8];
        b[..w.len()].copy_from_slice(w);
        h = (h ^ u64::from_le_bytes(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The E13 configuration (`bench_report`'s `px_config`) at `budget`.
fn e13(budget: u64) -> PxConfig {
    PxConfig::default()
        .with_max_instructions(budget)
        .with_counter_threshold(1)
        .with_counter_reset_interval(64)
        .with_max_nt_path_len(2_000)
        .cmp()
}

#[test]
fn config_matrix_full_results_are_pinned() {
    let mut h = 0u64;
    let mut runs = 0u32;
    for spec in zoo::roster().into_iter().take(6) {
        let w = zoo::generate(&spec);
        for tool in Tool::ALL {
            let compiled = w.compile_for(tool).unwrap();
            let program: &Program = &compiled.program;
            let general = w.general_input(1);
            let stream = zoo::input_bytes_n(&spec, 7, 2_000);
            let base = w.px_config().cmp().with_max_instructions(60_000);
            let plan = plan_paths(&px_analyze::Analysis::of(program).prime_paths(program))
                .ok()
                .map(Arc::new);
            let small_l1 = MachConfig {
                l1: CacheConfig {
                    size_bytes: 64,
                    assoc: 2,
                    line_bytes: 16,
                    hit_cycles: 3,
                },
                ..MachConfig::default()
            };
            let two_cores = MachConfig {
                cores: 2,
                ..MachConfig::default()
            };
            let four = MachConfig::default();
            let configs: [(&MachConfig, PxConfig, &[u8]); 9] = [
                (&four, base.clone(), &general),
                (&four, base.clone().with_path_plan(plan), &general),
                (&four, e13(20_000), &stream),
                (&four, e13(20_000).with_nt_memo(false), &stream),
                (&two_cores, base.clone().with_max_outstanding(4), &general),
                (&four, base.clone().with_max_outstanding(512), &general),
                (&small_l1, base.clone(), &general),
                (
                    &four,
                    base.clone()
                        .with_os_sandbox(true)
                        .with_random_factor(Some(3))
                        .with_nt_watchdog(64),
                    &general,
                ),
                (&four, base.clone().with_explore_nt_from_nt(true), &general),
            ];
            for (mach, px, input) in &configs {
                let r = run_cmp(program, mach, px, IoState::new(input.to_vec(), 11));
                assert!(
                    !matches!(r.exit, RunExit::EngineFault(_)),
                    "{spec}/{}: {:?}",
                    tool.name(),
                    r.exit
                );
                h = fold(h, &r);
                runs += 1;
            }
            for seed in [1u64, 2, 3] {
                let mut plan = FaultPlan::uniform(seed, 40);
                let r = run_cmp_with(
                    program,
                    &four,
                    &base,
                    IoState::new(general.clone(), 11),
                    Some(&mut plan),
                );
                h = fold(h, &r);
                runs += 1;
            }
        }
    }
    assert_eq!(runs, 216);
    assert_eq!(
        h, PIN_MATRIX,
        "CMP full-result matrix fold moved: {h:#018x}"
    );
}

#[test]
fn budget_sweep_full_results_are_pinned() {
    let mut h = 0u64;
    for name in ["zoo:interpreter:1", "zoo:state-machine:1"] {
        let spec = ZooSpec::parse(name).unwrap();
        let compiled = zoo::generate(&spec).compile_for(Tool::Assertions).unwrap();
        let input = zoo::input_bytes_n(&spec, 0xC0FFEE, 2_000);
        for budget in 3_000..=3_300 {
            let r = run_cmp(
                &compiled.program,
                &MachConfig::default(),
                &e13(budget),
                IoState::new(input.clone(), 0xC0FFEE),
            );
            h = fold(h, &r);
        }
    }
    assert_eq!(
        h, PIN_BUDGET_SWEEP,
        "CMP budget-sweep fold moved: {h:#018x}"
    );
}

#[test]
fn e13_asm_full_results_are_pinned() {
    let mut h = 0u64;
    for (name, src) in WORKLOADS {
        let program = px_isa::asm::assemble(src).unwrap();
        let plan = plan_paths(&px_analyze::Analysis::of(&program).prime_paths(&program))
            .map(Arc::new)
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
        for k in [1u8, 4, 16] {
            for plan in [None, Some(plan.clone())] {
                let px = e13(RUN_BUDGET)
                    .with_counter_threshold(k)
                    .with_path_plan(plan);
                let r = run_cmp(
                    &program,
                    &MachConfig::default(),
                    &px,
                    IoState::new(Vec::new(), 0xC0FFEE),
                );
                h = fold(h, &r);
            }
        }
    }
    assert_eq!(h, PIN_E13_ASM, "CMP E13 asm fold moved: {h:#018x}");
}
