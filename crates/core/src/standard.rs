//! The PathExpander **standard configuration** (paper §4.2, Figure 4(a)).
//!
//! One core runs the program. When a branch resolves and the *non-taken*
//! edge's exercise counter is below `NTPathCounterThreshold`, the engine:
//!
//! 1. bumps the non-taken edge's counter (counters are updated "during
//!    taken-path execution and at the entry of an NT-Path", §4.2(1)),
//! 2. checkpoints the registers and program counter,
//! 3. sets the NT-entry predicate (so the compiler's variable-fixing
//!    instructions at the edge head execute) and redirects the PC to the
//!    non-taken target,
//! 4. runs the NT-path with memory writes sandboxed in L1 (volatile tag) and
//!    system calls suppressed,
//! 5. on termination — `MaxNTPathLength`, crash, unsafe event, program end,
//!    or sandbox overflow — gang-invalidates the volatile lines, restores the
//!    checkpoint and resumes the taken path.
//!
//! Checker records produced on the NT-path go to the monitor memory area and
//! survive the squash.

use std::sync::Arc;

use px_isa::{DecodedProgram, MicroOp, Program, SyscallCode};
use px_mach::{
    memo_fingerprint, run_simple, simple_cost_until, step_uop, uop_cost_table, Btb, Checkpoint,
    CoreState, Coverage, Edge, FaultHook, Hierarchy, IoState, MachConfig, MemoEntry, MemoNote,
    MemoRecorder, MemoStep, MemoTable, Memory, MonitorArea, MonitorRecord, PathCoverage, PathKind,
    PathPlan, PathTrail, RecordKind, RunExit, Sandbox, SandboxView, SimError, StepEnv, StepEvent,
    WatchTable, COMMITTED, MAX_MEM_BYTES,
};

use crate::config::PxConfig;
use crate::inject::{apply_deferred, CountingHook};
use crate::stats::{NtPathRecord, NtStop, PxRunResult, PxStats};

/// Volatile tag used for NT-path lines in the standard configuration — the
/// paper's single-bit Vtag.
const NT_VTAG: u8 = 1;

struct NtContext {
    spawn_pc: u32,
    executed: u32,
    checkpoint: Checkpoint,
    /// §3.2 OS-sandbox extension: a disposable I/O snapshot the NT-path's
    /// system calls run against (discarded at squash).
    scratch_io: Option<IoState>,
    /// Memoization recorder for this path (absent when the memo is off or
    /// the spawn is not memoizable).
    rec: Option<MemoRecorder>,
}

/// How the taken loop handed off: a live NT-path to simulate, or a memo hit
/// to replay.
// The Live variant is the hot path: boxing it to shrink the enum would add a
// heap allocation per spawn, and the value lives only across the handoff.
#[allow(clippy::large_enum_variant)]
enum Spawned {
    Live(NtContext),
    Replay {
        spawn_pc: u32,
        entry: Arc<MemoEntry>,
    },
}

/// Runs `program` under the standard PathExpander configuration.
///
/// `cfg.mode` is ignored — this function *is* the standard engine; the
/// [`crate::cmp`] module implements the CMP optimization.
#[must_use]
pub fn run_standard(
    program: &Program,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
) -> PxRunResult {
    run_standard_inner(program, None, mach, px, io, None, None)
}

/// [`run_standard`] with a caller-supplied [`DecodedProgram`], so repeated
/// runs of the same program (campaigns, benchmarks) decode once. `dp` must
/// be `DecodedProgram::decode(program)` — checked in debug builds.
#[must_use]
pub fn run_standard_decoded(
    program: &Program,
    dp: &DecodedProgram,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
) -> PxRunResult {
    run_standard_inner(program, Some(dp), mach, px, io, None, None)
}

/// [`run_standard_decoded`] with a caller-held NT-path memo table, so
/// repeated runs of the same program (campaign repetitions) replay each
/// other's NT paths. The table must come from [`standard_memo_table`] for
/// the same program and configuration — a mismatched fingerprint makes the
/// run ignore the table.
#[must_use]
pub fn run_standard_memo(
    program: &Program,
    dp: &DecodedProgram,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
    memo: &mut MemoTable,
) -> PxRunResult {
    run_standard_inner(program, Some(dp), mach, px, io, None, Some(memo))
}

/// An empty memo table bound to this program + configuration, for
/// [`run_standard_memo`].
#[must_use]
pub fn standard_memo_table(program: &Program, mach: &MachConfig, px: &PxConfig) -> MemoTable {
    MemoTable::new(table_fingerprint(program, mach, px))
}

/// The fingerprint a memo table for this program + configuration carries.
fn table_fingerprint(program: &Program, mach: &MachConfig, px: &PxConfig) -> u64 {
    memo_fingerprint(
        &program.code,
        px.max_nt_path_len,
        px.nt_watchdog,
        px.apply_fixes,
        &mach.costs,
    )
}

/// [`run_standard`] with an optional fault injector.
///
/// The hook is consulted only while an NT-path is stepping, so every
/// injected fault lands inside the sandbox: the committed memory, register
/// file and I/O must still match a plain baseline run (the containment
/// property [`crate::contain::check_containment`] verifies). Bad
/// configurations and malformed programs surface as
/// [`RunExit::EngineFault`] instead of panicking.
#[must_use]
pub fn run_standard_with(
    program: &Program,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
    fault: Option<&mut dyn FaultHook>,
) -> PxRunResult {
    run_standard_inner(program, None, mach, px, io, fault, None)
}

fn run_standard_inner(
    program: &Program,
    decoded: Option<&DecodedProgram>,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
    fault: Option<&mut dyn FaultHook>,
    shared_memo: Option<&mut MemoTable>,
) -> PxRunResult {
    let fail = |e: SimError, io: IoState| PxRunResult {
        exit: RunExit::EngineFault(e),
        cycles: 0,
        taken_coverage: Coverage::for_program(program),
        total_coverage: Coverage::for_program(program),
        monitor: MonitorArea::new(),
        io,
        memory: Memory::new(0),
        core: CoreState::default(),
        stats: PxStats::default(),
        path_coverage: None,
    };
    if let Err(e) = mach.validate() {
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
    let mut memory = Memory::new(mach.mem_size.max(program.mem_size));
    for item in &program.data {
        if let Err(e) = memory.try_load_blob(item.addr, &item.bytes) {
            return fail(e, io);
        }
    }
    let mut fault = fault.map(|inner| CountingHook { inner, fired: 0 });
    let mut core = CoreState::at_entry(program.entry, memory.size());
    let mut caches = Hierarchy::new(mach);
    let mut btb = Btb::new(mach.btb_entries, mach.btb_assoc);
    let mut watches = WatchTable::new();
    let mut taken_cov = Coverage::for_program(program);
    let mut nt_cov = Coverage::for_program(program);
    let mut monitor = MonitorArea::new();
    let mut stats = PxStats::default();
    let mut io = io;
    let mut sandbox = Sandbox::new();
    // Prime-path tracking (opt-in, purely observational): one trail follows
    // the taken path, a second follows the live NT-path, both recording into
    // a single shared coverage.
    let mut paths: Option<(&PathPlan, PathTrail, PathTrail, PathCoverage)> =
        px.path_plan.as_deref().map(|p| {
            (
                p,
                PathTrail::default(),
                PathTrail::default(),
                p.new_coverage(),
            )
        });
    if let Some((p, taken_trail, _, cov)) = &mut paths {
        taken_trail.enter_pc(p, cov, program.entry);
    }

    // Decode once (or take the caller's cached decode): the hot loops
    // dispatch pre-decoded micro-ops and batch simple straight-line runs.
    let owned_dp;
    let dp: &DecodedProgram = match decoded {
        Some(dp) => {
            debug_assert_eq!(
                dp.len(),
                program.code.len(),
                "decode of a different program"
            );
            dp
        }
        None => {
            owned_dp = DecodedProgram::decode(program);
            &owned_dp
        }
    };
    let cost_table = uop_cost_table(&mach.costs);
    // NT-path batching requires the production configuration: a fault hook
    // must be consulted before every instruction. (The taken path never
    // sees the hook, so it always batches.)
    let nt_batching = fault.is_none();
    let in_checker =
        |pc: u32| -> bool { dp.op(pc).is_some_and(|u| u.a & MicroOp::BR_IN_CHECKER != 0) };

    // NT-path memoization: only when every NT path is a pure function of
    // its read set — no fault injector (faults key off absolute instruction
    // counts), no OS-sandboxed syscalls (they mutate a scratch I/O state),
    // no NT-from-NT exploration (it reads the BTB mid-path).
    let mut local_memo: Option<MemoTable> = None;
    let mut memo: Option<&mut MemoTable> =
        if px.nt_memo && fault.is_none() && !px.os_sandbox_unsafe && !px.explore_nt_from_nt {
            let fp = table_fingerprint(program, mach, px);
            match shared_memo {
                Some(t) if t.fingerprint() == fp => Some(t),
                // A mismatched shared table would replay another program's
                // bundles; ignore it rather than corrupt the run.
                Some(_) => None,
                None => Some(local_memo.insert(MemoTable::new(fp))),
            }
        } else {
            None
        };

    let mut cycles: u64 = 0;
    let mut instructions: u64 = 0;
    let mut taken_since_reset: u64 = 0;
    // Deterministic source for the §7.1(2) random spawn factor.
    let mut spawn_rng: u64 = 0x9E37_79B9_7F4A_7C15 ^ (program.code.len() as u64 + 1);
    // Static NT-spawn veto mask, precomputed once per run (the analysis is
    // pure; `None` keeps the paper's dynamic-only selection untouched).
    let static_veto = px
        .static_nt_filter
        .map(|k| px_analyze::Analysis::of(program).veto_mask(program, k));
    let vetoed = |mask: &Option<Vec<[bool; 2]>>, pc: u32, edge: Edge| -> bool {
        mask.as_ref().is_some_and(|m| {
            m.get(pc as usize)
                .is_some_and(|e| e[usize::from(edge == Edge::NotTaken)])
        })
    };

    // The run alternates between two modal inner loops — taken-path and
    // NT-path — instead of re-deciding the mode on every instruction. Each
    // inner loop hoists everything its mode never needs (the taken loop has
    // no sandbox, overflow or watchdog checks; the NT loop builds its
    // sandbox view once per path and skips the counter-reset check), which
    // is worth a double-digit percentage of the simulation's wall time.
    //
    // How an NT segment ended: either a normal stop (squash, resume taken
    // path) or the instruction budget ran out mid-path (squash as cut
    // short, then end the whole run).
    enum SegEnd {
        Stop(NtStop),
        Budget,
    }

    let exit = 'run: loop {
        // ---- Taken-path mode (no NT-path live). ----
        let spawned = 'taken: loop {
            if instructions >= px.max_instructions {
                break 'run RunExit::BudgetExhausted;
            }

            // Batch a simple straight-line run (no events, no memory, no
            // branches): retire it in one tight loop, then replay the
            // per-instruction counter-reset protocol in closed form. The
            // taken path never sees the fault hook, so this is always safe.
            let run = dp.simple_run(core.pc);
            if run > 0 {
                let n = u64::from(run).min(px.max_instructions - instructions);
                instructions += n;
                let resets =
                    catch_up_counter_resets(&mut taken_since_reset, px.counter_reset_interval, n);
                for _ in 0..resets {
                    btb.reset_counters();
                }
                stats.counter_resets += resets;
                let pc0 = core.pc;
                cycles += run_simple(dp, &mut core, n as u32, &cost_table);
                if let Some((p, taken_trail, _, cov)) = &mut paths {
                    taken_trail.enter_range(p, cov, pc0, n as u32);
                }
                stats.taken_instructions += n;
                continue;
            }

            instructions += 1;

            // Periodic exercise-counter reset (per CounterResetInterval
            // taken-path instructions, §4.2(1)).
            if taken_since_reset >= px.counter_reset_interval {
                btb.reset_counters();
                stats.counter_resets += 1;
                taken_since_reset = 0;
            }

            let s = {
                let mut env = StepEnv {
                    io: &mut io,
                    watches: &mut watches,
                    suppress_syscalls: false,
                    now_cycles: cycles,
                    costs: &mach.costs,
                    // Faults are injected only into NT-paths: the taken path
                    // is the reference the containment checker diffs against.
                    fault: None,
                };
                step_uop(program, dp, &mut core, &mut memory, &mut env)
            };

            cycles += u64::from(s.base_cost);
            if let Some(action) = s.deferred {
                apply_deferred(
                    action,
                    &mut caches,
                    0,
                    NT_VTAG,
                    &mut monitor,
                    cycles,
                    PathKind::Taken,
                    core.pc,
                );
            }
            if let Some(access) = s.access {
                let a = caches.access(0, access.addr, access.write, COMMITTED);
                cycles += u64::from(a.cycles);
            }

            stats.taken_instructions += 1;
            taken_since_reset += 1;

            match s.event {
                StepEvent::Branch {
                    pc,
                    taken,
                    taken_target,
                    not_taken_target,
                    ..
                } => {
                    stats.dyn_branches += 1;
                    let edge = Edge::from_taken(taken);
                    btb.exercise(pc, edge);
                    taken_cov.record(pc, edge);
                    // NT-path spawn decision.
                    let nt_edge = edge.other();
                    let hot = btb.edge_count(pc, nt_edge) >= px.counter_threshold;
                    let random_admit = hot
                        && px.random_factor.is_some_and(|n| {
                            spawn_rng ^= spawn_rng << 13;
                            spawn_rng ^= spawn_rng >> 7;
                            spawn_rng ^= spawn_rng << 17;
                            spawn_rng.is_multiple_of(u64::from(n))
                        });
                    if in_checker(pc) {
                        stats.skipped_checker += 1;
                    } else if vetoed(&static_veto, pc, nt_edge) {
                        stats.skipped_static += 1;
                    } else if hot && !random_admit {
                        stats.skipped_hot += 1;
                    } else {
                        if random_admit {
                            stats.random_spawns += 1;
                        }
                        // Spawn: counter bump at NT entry, checkpoint,
                        // redirect.
                        btb.exercise(pc, nt_edge);
                        nt_cov.record(pc, nt_edge);
                        stats.spawns += 1;
                        cycles += u64::from(mach.spawn_cycles);
                        let nt_target = if taken {
                            not_taken_target
                        } else {
                            taken_target
                        };
                        debug_assert_eq!(sandbox.written_bytes(), 0);
                        if let Some((p, taken_trail, nt_trail, cov)) = &mut paths {
                            // The NT trail forks from the taken trail *at the
                            // branch* (before either successor block), then
                            // each trail enters its own target: the taken
                            // trail the architectural one, the NT trail the
                            // redirected pc.
                            nt_trail.copy_from(taken_trail);
                            let arch = if taken {
                                taken_target
                            } else {
                                not_taken_target
                            };
                            taken_trail.enter_pc(p, cov, arch);
                            nt_trail.enter_pc(p, cov, nt_target);
                        }
                        // Memo probe: a hit replays the recorded bundle
                        // without checkpointing or redirecting the core —
                        // the branch handler already left the pc on the
                        // architectural successor.
                        if let Some(entry) = memo
                            .as_deref_mut()
                            .and_then(|t| t.probe(pc, nt_target, &watches, &core.regs, &memory))
                        {
                            break 'taken Spawned::Replay {
                                spawn_pc: pc,
                                entry,
                            };
                        }
                        let rec = memo.as_deref_mut().and_then(|t| {
                            t.should_record(pc, nt_target)
                                .then(|| MemoRecorder::new(pc, nt_target, &watches, px.apply_fixes))
                        });
                        let checkpoint = Checkpoint::take(&core);
                        core.pc = nt_target;
                        core.pred = px.apply_fixes;
                        watches.begin_log();
                        let scratch_io = px.os_sandbox_unsafe.then(|| io.clone());
                        break 'taken Spawned::Live(NtContext {
                            spawn_pc: pc,
                            executed: 0,
                            checkpoint,
                            scratch_io,
                            rec,
                        });
                    }
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
                StepEvent::UnsafeEvent { .. } => {
                    break 'run RunExit::EngineFault(SimError::Invariant(
                        "unsafe events only occur in NT-paths",
                    ));
                }
                StepEvent::Crash { kind, .. } => break 'run RunExit::Crashed(kind),
                StepEvent::Exit { code } => break 'run RunExit::Exited(code),
                StepEvent::Syscall { .. } | StepEvent::None => {}
            }
            // Control arrived at the new pc (surviving events fall through;
            // crashes, exits and spawns broke out above — spawns record both
            // successors themselves).
            if let Some((p, taken_trail, _, cov)) = &mut paths {
                taken_trail.enter_pc(p, cov, core.pc);
            }
        };
        let mut ctx = match spawned {
            Spawned::Live(ctx) => ctx,
            Spawned::Replay { spawn_pc, entry } => {
                // ---- Memo replay: re-apply the recorded bundle. ----
                // Cache accesses, budget/watchdog/length caps and overflow
                // are recomputed against *live* state, in the recorded
                // order, so cycles and stops are byte-identical to a real
                // simulation of this path — only the interpreter work is
                // skipped. Core, sandbox, watch table and I/O are never
                // touched, so no checkpoint/rollback is needed at the end.
                let path = PathKind::NtPath { spawn_pc };
                let mut executed: u32 = 0;
                let mut end: Option<NtStop> = None;
                let mut budget = false;
                'replay: for step in entry.steps.iter() {
                    match *step {
                        MemoStep::Run { pc: pc0, n: total } => {
                            // Re-chunk the batched region exactly as the NT
                            // loop would: one grant per live-loop iteration,
                            // capped by budget, watchdog and MaxLength.
                            let mut off: u32 = 0;
                            while off < total {
                                if instructions >= px.max_instructions {
                                    budget = true;
                                    break 'replay;
                                }
                                let n = u64::from(total - off)
                                    .min(px.max_instructions - instructions)
                                    .min(px.nt_watchdog - u64::from(executed))
                                    .min(u64::from(px.max_nt_path_len - executed));
                                debug_assert!(n > 0, "caps would already have stopped the path");
                                instructions += n;
                                let (granted, cost) = simple_cost_until(
                                    dp,
                                    pc0 + off,
                                    n as u32,
                                    &cost_table,
                                    0,
                                    u64::MAX,
                                );
                                debug_assert_eq!(granted, n as u32);
                                cycles += cost;
                                if let Some((p, _, nt_trail, cov)) = &mut paths {
                                    nt_trail.enter_range(p, cov, pc0 + off, n as u32);
                                }
                                stats.nt_instructions += n;
                                executed += n as u32;
                                if u64::from(executed) >= px.nt_watchdog {
                                    end = Some(NtStop::Watchdog);
                                    break 'replay;
                                } else if executed >= px.max_nt_path_len {
                                    end = Some(NtStop::MaxLength);
                                    break 'replay;
                                }
                                off += n as u32;
                            }
                        }
                        MemoStep::One {
                            base,
                            next_pc,
                            access,
                            note,
                        } => {
                            if instructions >= px.max_instructions {
                                budget = true;
                                break 'replay;
                            }
                            instructions += 1;
                            cycles += u64::from(base);
                            let mut overflow = false;
                            if let Some((addr, write)) = access {
                                let vtag = if write {
                                    stats.nt_writes += 1;
                                    NT_VTAG
                                } else {
                                    COMMITTED
                                };
                                let a = caches.access(0, addr, write, vtag);
                                cycles += u64::from(a.cycles);
                                if a.volatile_evicted == Some(NT_VTAG) {
                                    overflow = true;
                                }
                            }
                            stats.nt_instructions += 1;
                            match note {
                                MemoNote::None => {}
                                MemoNote::Branch { pc, taken } => {
                                    stats.dyn_branches += 1;
                                    nt_cov.record(pc, Edge::from_taken(taken));
                                }
                                MemoNote::Check { kind, site, pc } => {
                                    monitor.push(MonitorRecord {
                                        kind: RecordKind::Check(kind),
                                        site,
                                        pc,
                                        cycle: cycles,
                                        path,
                                    });
                                }
                                MemoNote::Watch {
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
                                    path,
                                }),
                                MemoNote::Stop(ms) => {
                                    // Terminal step: no trail entry, no
                                    // executed tick — exactly like the live
                                    // loop's event-stop breaks.
                                    end = Some(NtStop::from_memo(ms));
                                    break 'replay;
                                }
                            }
                            if let Some((p, _, nt_trail, cov)) = &mut paths {
                                nt_trail.enter_pc(p, cov, next_pc);
                            }
                            executed += 1;
                            if overflow {
                                end = Some(NtStop::SandboxOverflow);
                                break 'replay;
                            } else if u64::from(executed) >= px.nt_watchdog {
                                end = Some(NtStop::Watchdog);
                                break 'replay;
                            } else if executed >= px.max_nt_path_len {
                                end = Some(NtStop::MaxLength);
                                break 'replay;
                            }
                        }
                    }
                }
                let stop = if budget {
                    NtStop::RunCutShort
                } else {
                    debug_assert!(end.is_some(), "recorded bundles end on a stop");
                    end.unwrap_or(NtStop::from_memo(entry.stop))
                };
                // Replay squash: the charged penalty and volatile-line
                // invalidation of a real squash, without the (no-op)
                // checkpoint restore, watch rollback and sandbox clear.
                cycles += u64::from(mach.squash_cycles);
                caches.squash_path(0, NT_VTAG);
                stats.paths.push(NtPathRecord {
                    spawn_pc,
                    executed,
                    stop,
                });
                if let Some((_, _, nt_trail, _)) = &mut paths {
                    nt_trail.reset();
                }
                if budget {
                    break 'run RunExit::BudgetExhausted;
                }
                continue 'run;
            }
        };

        // ---- NT-path mode: one segment per spawned path. ----
        let path = PathKind::NtPath {
            spawn_pc: ctx.spawn_pc,
        };
        // Resolve the path's I/O once per segment, not once per
        // instruction: the OS-sandbox scratch snapshot (when enabled) or
        // the real I/O (which an NT-path can then only reach through
        // suppressed system calls).
        let mut scratch_io = ctx.scratch_io.take();
        let end = 'nt: {
            let mut view = SandboxView::new(&memory, &mut sandbox);
            let io_ref: &mut IoState = match scratch_io.as_mut() {
                Some(scratch) => scratch,
                None => &mut io,
            };
            loop {
                if instructions >= px.max_instructions {
                    // A budget hit mid-NT-path must not leave speculative
                    // state behind: squash so the committed state is the
                    // same one a shorter, NT-free run would have reached.
                    break 'nt SegEnd::Budget;
                }

                // Batch a simple run inside the NT-path. Simple micro-ops
                // never touch the sandbox (no overflow), raise no events and
                // are invisible to the watch log; the cap keeps the budget,
                // watchdog and MaxLength stops on their exact instruction.
                if nt_batching {
                    let run = dp.simple_run(core.pc);
                    if run > 0 {
                        let n = u64::from(run)
                            .min(px.max_instructions - instructions)
                            .min(px.nt_watchdog - u64::from(ctx.executed))
                            .min(u64::from(px.max_nt_path_len - ctx.executed));
                        if n > 0 {
                            instructions += n;
                            let pc0 = core.pc;
                            if let Some(r) = ctx.rec.as_mut() {
                                r.note_run(dp, pc0, n as u32, &core.regs);
                            }
                            cycles += run_simple(dp, &mut core, n as u32, &cost_table);
                            if let Some((p, _, nt_trail, cov)) = &mut paths {
                                nt_trail.enter_range(p, cov, pc0, n as u32);
                            }
                            stats.nt_instructions += n;
                            ctx.executed += n as u32;
                            if u64::from(ctx.executed) >= px.nt_watchdog {
                                break 'nt SegEnd::Stop(NtStop::Watchdog);
                            } else if ctx.executed >= px.max_nt_path_len {
                                break 'nt SegEnd::Stop(NtStop::MaxLength);
                            }
                            continue;
                        }
                    }
                }

                instructions += 1;

                if let Some(r) = ctx.rec.as_mut() {
                    // Pre-step: an unwritten register still holds its spawn
                    // value, so the current file supplies exact live-ins;
                    // loads record the committed bytes they are about to
                    // read (none if the access will crash).
                    if let Some(u) = dp.op(core.pc) {
                        r.note_uop(u, &core.regs, view.sandbox(), view.committed());
                    }
                }

                let s = {
                    let mut env = StepEnv {
                        io: &mut *io_ref,
                        watches: &mut watches,
                        suppress_syscalls: !px.os_sandbox_unsafe,
                        now_cycles: cycles,
                        costs: &mach.costs,
                        fault: fault.as_mut().map(|h| h as &mut dyn FaultHook),
                    };
                    step_uop(program, dp, &mut core, &mut view, &mut env)
                };

                cycles += u64::from(s.base_cost);
                if let Some(action) = s.deferred {
                    apply_deferred(
                        action,
                        &mut caches,
                        0,
                        NT_VTAG,
                        &mut monitor,
                        cycles,
                        path,
                        core.pc,
                    );
                }
                let mut overflow = false;
                if let Some(access) = s.access {
                    let vtag = if access.write {
                        stats.nt_writes += 1;
                        NT_VTAG
                    } else {
                        COMMITTED
                    };
                    let a = caches.access(0, access.addr, access.write, vtag);
                    cycles += u64::from(a.cycles);
                    if a.volatile_evicted == Some(NT_VTAG) {
                        overflow = true;
                    }
                }

                stats.nt_instructions += 1;

                if let Some(r) = ctx.rec.as_mut() {
                    let note = match s.event {
                        StepEvent::Branch { pc, taken, .. } => MemoNote::Branch { pc, taken },
                        StepEvent::CheckFailed { kind, site, pc } => {
                            MemoNote::Check { kind, site, pc }
                        }
                        StepEvent::WatchHit {
                            tag,
                            addr,
                            is_write,
                            pc,
                        } => MemoNote::Watch {
                            tag,
                            addr,
                            is_write,
                            pc,
                        },
                        StepEvent::UnsafeEvent { code } => {
                            MemoNote::Stop(if code == SyscallCode::Exit {
                                px_mach::MemoStop::ProgramEnd
                            } else {
                                px_mach::MemoStop::Unsafe(code)
                            })
                        }
                        StepEvent::Crash { kind, .. } => {
                            MemoNote::Stop(px_mach::MemoStop::Crash(kind))
                        }
                        StepEvent::Exit { .. } => MemoNote::Stop(px_mach::MemoStop::ProgramEnd),
                        StepEvent::Syscall { .. } | StepEvent::None => MemoNote::None,
                    };
                    r.push_one(
                        s.base_cost,
                        core.pc,
                        s.access.map(|a| (a.addr, a.write)),
                        note,
                    );
                }

                match s.event {
                    StepEvent::Branch {
                        pc,
                        taken,
                        taken_target,
                        not_taken_target,
                        ..
                    } => {
                        stats.dyn_branches += 1;
                        let edge = Edge::from_taken(taken);
                        nt_cov.record(pc, edge);
                        // Ablation D2: force the non-taken edge from inside
                        // an NT-path when it has never been exercised.
                        if px.explore_nt_from_nt {
                            let other = edge.other();
                            if btb.edge_count(pc, other) < px.counter_threshold
                                && !in_checker(pc)
                                && !vetoed(&static_veto, pc, other)
                            {
                                btb.exercise(pc, other);
                                nt_cov.record(pc, other);
                                core.pc = if taken {
                                    not_taken_target
                                } else {
                                    taken_target
                                };
                            }
                        }
                    }
                    StepEvent::CheckFailed { kind, site, pc } => monitor.push(MonitorRecord {
                        kind: RecordKind::Check(kind),
                        site,
                        pc,
                        cycle: cycles,
                        path,
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
                        path,
                    }),
                    StepEvent::UnsafeEvent { code } => {
                        break 'nt SegEnd::Stop(if code == SyscallCode::Exit {
                            NtStop::ProgramEnd
                        } else {
                            NtStop::Unsafe(code)
                        });
                    }
                    StepEvent::Crash { kind, .. } => {
                        break 'nt SegEnd::Stop(NtStop::Crash(kind));
                    }
                    StepEvent::Exit { .. } => {
                        // Only reachable under the OS-sandbox extension: the
                        // NT-path reached the end of the program.
                        break 'nt SegEnd::Stop(NtStop::ProgramEnd);
                    }
                    StepEvent::Syscall { .. } => {
                        if px.os_sandbox_unsafe {
                            stats.nt_syscalls_sandboxed += 1;
                        }
                    }
                    StepEvent::None => {}
                }
                if let Some((p, _, nt_trail, cov)) = &mut paths {
                    nt_trail.enter_pc(p, cov, core.pc);
                }

                // NT-path bookkeeping: length limit, sandbox overflow and
                // the watchdog (which outranks MaxLength when configured
                // tighter — redirect faults can stretch a path's wall time,
                // and the watchdog guarantees the taken path always regains
                // the core).
                ctx.executed += 1;
                if overflow {
                    break 'nt SegEnd::Stop(NtStop::SandboxOverflow);
                } else if u64::from(ctx.executed) >= px.nt_watchdog {
                    break 'nt SegEnd::Stop(NtStop::Watchdog);
                } else if ctx.executed >= px.max_nt_path_len {
                    break 'nt SegEnd::Stop(NtStop::MaxLength);
                }
            }
        };
        let stop = match end {
            SegEnd::Stop(stop) => stop,
            SegEnd::Budget => NtStop::RunCutShort,
        };
        if let Some(rec) = ctx.rec.take() {
            if let Some(t) = memo.as_deref_mut() {
                match stop.as_memo() {
                    Some(ms) => match rec.finish(ctx.executed, ms) {
                        Some(entry) => t.store(entry),
                        // Recorder aborted over a cap: fall back to real
                        // simulation for this shape of path.
                        None => t.bypass(),
                    },
                    // Overflow / cut-short stops depend on live machine
                    // state and are never stored.
                    None => t.bypass(),
                }
            }
        }
        squash(
            ctx,
            stop,
            &mut core,
            &mut caches,
            &mut watches,
            &mut sandbox,
            &mut stats,
            &mut cycles,
            mach,
        );
        if let Some((_, _, nt_trail, _)) = &mut paths {
            nt_trail.reset();
        }
        if matches!(end, SegEnd::Budget) {
            break 'run RunExit::BudgetExhausted;
        }
    };

    if let Some(h) = &fault {
        stats.faults_injected = h.fired;
    }
    let mut total_coverage = taken_cov.clone();
    let exit = match total_coverage.merge(&nt_cov) {
        Ok(()) => exit,
        Err(e) => RunExit::EngineFault(e),
    };
    PxRunResult {
        exit,
        cycles,
        taken_coverage: taken_cov,
        total_coverage,
        monitor,
        io,
        memory,
        core,
        stats,
        path_coverage: paths.map(|(_, _, _, cov)| cov),
    }
}

/// Advances the taken-path counter-reset protocol by `n` instructions in
/// closed form, returning how many resets fired. Exactly equivalent to `n`
/// iterations of the per-instruction protocol:
///
/// ```text
/// if tsr >= interval { reset; tsr = 0 }
/// <execute instruction>
/// tsr += 1
/// ```
///
/// Used by the simple-run batch path, where no `btb.exercise` can occur
/// between resets (simple runs contain no branches), so replaying the
/// resets after the batch is state-identical to interleaving them.
pub(crate) fn catch_up_counter_resets(tsr: &mut u64, interval: u64, n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    if interval == 0 {
        *tsr = 1;
        return n;
    }
    if *tsr < interval {
        // The first reset completes on iteration `gap + 1` (1-based); `gap`
        // may be `u64::MAX` (interval `u64::MAX`, counter 0), so compare
        // against it rather than materializing `gap + 1`.
        let gap = interval - *tsr;
        if n <= gap {
            *tsr += n;
            return 0;
        }
        let rest = n - gap - 1;
        *tsr = (rest % interval) + 1;
        1 + rest / interval
    } else {
        let rest = n - 1;
        *tsr = (rest % interval) + 1;
        1 + rest / interval
    }
}

#[allow(clippy::too_many_arguments)]
fn squash(
    ctx: NtContext,
    stop: NtStop,
    core: &mut CoreState,
    caches: &mut Hierarchy,
    watches: &mut WatchTable,
    sandbox: &mut Sandbox,
    stats: &mut PxStats,
    cycles: &mut u64,
    mach: &MachConfig,
) {
    *cycles += u64::from(mach.squash_cycles);
    caches.squash_path(0, NT_VTAG);
    sandbox.clear();
    watches.rollback();
    ctx.checkpoint.restore(core);
    stats.paths.push(NtPathRecord {
        spawn_pc: ctx.spawn_pc,
        executed: ctx.executed,
        stop,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_isa::asm::assemble;
    use px_mach::CrashKind;

    fn run(src: &str, px: &PxConfig) -> PxRunResult {
        let program = assemble(src).unwrap();
        run_standard(&program, &MachConfig::single_core(), px, IoState::default())
    }

    /// A branch with one direction never exercised by the input, plus a loop
    /// whose exit edge spawns a few NT-paths.
    const HIDDEN_BUG: &str = r"
        .code
        main:
            li r1, 1          ; condition variable: always 1
            beq r1, zero, ok  ; never taken with this input
            jmp ok
            nop
        ok:
            li r4, 5
        loop:
            subi r4, r4, 1
            bgt r4, zero, loop
            li r2, 0
            exit
        ";

    #[test]
    fn spawns_nt_paths_and_terminates_cleanly() {
        let px = PxConfig::default().with_max_nt_path_len(50);
        let r = run(HIDDEN_BUG, &px);
        assert_eq!(r.exit, RunExit::Exited(0));
        assert!(r.stats.spawns >= 1, "at least the beq edge spawns");
        assert_eq!(r.stats.paths.len(), r.stats.spawns as usize);
        // Taken path and total coverage differ.
        let p = assemble(HIDDEN_BUG).unwrap();
        assert!(
            r.total_coverage.covered_edges(&p) > r.taken_coverage.covered_edges(&p),
            "NT-paths added coverage"
        );
    }

    #[test]
    fn nt_path_detects_bug_on_non_taken_edge() {
        // Bug: assertion failure reachable only when the branch goes the
        // never-taken way.
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok   ; always taken; fall-through is buggy
                li r3, 0
                assert r3, #77     ; the hidden bug
                jmp ok
            ok:
                li r2, 0
                exit
            ";
        let base = run(src, &PxConfig::default());
        assert_eq!(base.monitor.nt_records().count(), 1, "bug found on NT-path");
        let rec = base.monitor.nt_records().next().unwrap();
        assert_eq!(rec.site, 77);
        assert_eq!(rec.path, PathKind::NtPath { spawn_pc: 1 });
        // And the taken path itself never reports it.
        assert_eq!(
            base.monitor
                .records()
                .iter()
                .filter(|r| !r.path.is_nt())
                .count(),
            0
        );
    }

    #[test]
    fn nt_crash_is_contained() {
        // The non-taken edge dereferences null: the NT-path crashes, the
        // program still exits 0.
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok
                lw r5, 0(zero)     ; NT-path crashes here
                jmp ok
            ok:
                li r2, 0
                exit
            ";
        let r = run(src, &PxConfig::default());
        assert_eq!(r.exit, RunExit::Exited(0));
        assert_eq!(r.stats.stops_of("crash"), 1);
    }

    #[test]
    fn nt_unsafe_event_stops_the_path_without_side_effects() {
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok
                li r2, 88          ; 'X'
                putc               ; unsafe in NT-path
                jmp ok
            ok:
                li r2, 0
                exit
            ";
        let r = run(src, &PxConfig::default());
        assert_eq!(r.exit, RunExit::Exited(0));
        assert_eq!(r.stats.stops_of("unsafe"), 1);
        assert!(r.io.output().is_empty(), "the putc never happened");
    }

    #[test]
    fn nt_writes_roll_back() {
        let src = r"
            .data
            g: .word 7
            .code
            main:
                li r1, 1
                bne r1, zero, ok
                la r5, g
                li r6, 999
                sw r6, 0(r5)       ; sandboxed write
                jmp ok
            ok:
                la r5, g
                lw r2, 0(r5)
                printi             ; prints committed value
                li r2, 0
                exit
            ";
        let r = run(src, &PxConfig::default());
        assert_eq!(r.io.output_string(), "7", "NT store must not leak");
    }

    #[test]
    fn max_length_bounds_nt_paths() {
        // Non-taken edge leads into an infinite loop.
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok
            spin:
                jmp spin
            ok:
                li r2, 0
                exit
            ";
        let px = PxConfig::default().with_max_nt_path_len(30);
        let r = run(src, &px);
        assert_eq!(r.exit, RunExit::Exited(0));
        assert_eq!(r.stats.stops_of("max-length"), 1);
        let path = &r.stats.paths[0];
        assert_eq!(path.executed, 30);
    }

    #[test]
    fn counter_threshold_limits_spawns_per_edge() {
        // The loop branch's exit edge is non-taken for 9 iterations; with
        // threshold 5 only 5 NT-paths spawn from it.
        let src = r"
            .code
            main:
                li r4, 10
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop
                li r2, 0
                exit
            ";
        let px = PxConfig::default().with_counter_threshold(5);
        let r = run(src, &px);
        // Spawns: 5 from the loop-exit edge (plus 1 from the final
        // not-taken iteration whose other edge is `taken`... that edge was
        // exercised 9 times, so it is hot). Exactly 5.
        assert_eq!(r.stats.spawns, 5);
        assert!(r.stats.skipped_hot >= 4);
    }

    #[test]
    fn static_nt_filter_vetoes_doomed_spawns_without_perturbing_the_run() {
        // The non-taken edge of the guard branch funnels straight into an
        // exit syscall: every NT-path spawned there dies within 2
        // instructions. The static filter (threshold 10) proves that and
        // vetoes the spawn; everything the taken path does is unchanged.
        let src = r"
            .code
            main:
                li r4, 6
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop ; non-taken edge falls into the exit
                li r2, 0
                exit
            ";
        let base = run(src, &PxConfig::default());
        let filtered = run(src, &PxConfig::default().with_static_nt_filter(Some(10)));
        assert!(base.stats.spawns > 0, "baseline must spawn NT-paths");
        assert_eq!(filtered.stats.spawns, 0, "every spawn here is doomed");
        assert_eq!(filtered.stats.skipped_static, base.stats.spawns);
        assert_eq!(base.stats.skipped_static, 0, "off by default");
        // The taken path is untouched by the veto.
        assert_eq!(filtered.exit, base.exit);
        assert_eq!(filtered.io.output_string(), base.io.output_string());
        assert_eq!(
            filtered.taken_coverage, base.taken_coverage,
            "taken-path coverage identical with and without the filter"
        );
    }

    #[test]
    fn fixes_execute_only_with_apply_fixes() {
        // The non-taken edge asserts on the condition variable; the
        // predicated fix at the edge head repairs it.
        let src = r"
            .code
            main:
                li r1, 5
                bne r1, zero, ok   ; non-taken edge semantically needs r1 == 0
                pli r1, 0          ; compiler's fix: set r1 = 0 (boundary)
                seq r3, r1, zero   ; r3 = (r1 == 0)
                assert r3, #50     ; false positive unless fixed
                jmp ok
            ok:
                li r2, 0
                exit
            ";
        let fixed = run(src, &PxConfig::default().with_fixes(true));
        assert_eq!(fixed.monitor.len(), 0, "fix removes the false positive");
        let unfixed = run(src, &PxConfig::default().with_fixes(false));
        assert_eq!(unfixed.monitor.len(), 1, "without fixing the check fires");
    }

    #[test]
    fn taken_path_crash_still_faults() {
        let src = ".code\nmain:\n  lw r1, 0(zero)\n";
        let r = run(src, &PxConfig::default());
        assert!(matches!(
            r.exit,
            RunExit::Crashed(CrashKind::NullDeref { .. })
        ));
    }

    #[test]
    fn counter_reset_reenables_spawning() {
        // Two passes over the same branch; with a tiny reset interval the
        // edge counter clears between them.
        let src = r"
            .code
            main:
                li r7, 2           ; outer passes
            outer:
                li r4, 8
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop
                subi r7, r7, 1
                bgt r7, zero, outer
                li r2, 0
                exit
            ";
        let no_reset = run(
            src,
            &PxConfig::default()
                .with_counter_threshold(1)
                .with_counter_reset_interval(u64::MAX),
        );
        let with_reset = run(
            src,
            &PxConfig::default()
                .with_counter_threshold(1)
                .with_counter_reset_interval(20),
        );
        assert!(with_reset.stats.counter_resets > 0);
        assert!(
            with_reset.stats.spawns > no_reset.stats.spawns,
            "resets re-enable exploration: {} vs {}",
            with_reset.stats.spawns,
            no_reset.stats.spawns
        );
    }

    #[test]
    fn os_sandbox_extension_lets_nt_paths_run_past_syscalls() {
        // §3.2 future work: with OS support, the putc is executed against a
        // disposable I/O snapshot instead of stopping the path, and the
        // output still never leaks.
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok
                li r2, 88
                putc                ; sandboxed under the extension
                li r3, 0
                assert r3, #66      ; bug past the unsafe event
                jmp ok
            ok:
                li r2, 0
                exit
            ";
        let plain = run(src, &PxConfig::default());
        assert_eq!(plain.stats.stops_of("unsafe"), 1);
        assert_eq!(plain.monitor.len(), 0, "bug unreachable without OS support");

        let os = run(src, &PxConfig::default().with_os_sandbox(true));
        assert_eq!(os.stats.stops_of("unsafe"), 0);
        assert_eq!(os.stats.nt_syscalls_sandboxed, 1);
        assert_eq!(os.monitor.len(), 1, "the path now reaches the bug");
        assert!(os.io.output().is_empty(), "sandboxed putc must not leak");
        assert_eq!(os.exit, RunExit::Exited(0));
    }

    #[test]
    fn random_factor_spawns_from_hot_edges() {
        // A loop branch whose exit edge saturates the threshold: with the
        // §7.1(2) random factor, occasional extra spawns still happen.
        let src = r"
            .code
            main:
                li r4, 400
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop
                li r2, 0
                exit
            ";
        let plain = run(src, &PxConfig::default().with_counter_threshold(1));
        let random = run(
            src,
            &PxConfig::default()
                .with_counter_threshold(1)
                .with_random_factor(Some(16)),
        );
        assert_eq!(plain.stats.random_spawns, 0);
        assert!(random.stats.random_spawns > 0, "hot edges re-explored");
        assert!(random.stats.spawns > plain.stats.spawns);
        // Determinism.
        let again = run(
            src,
            &PxConfig::default()
                .with_counter_threshold(1)
                .with_random_factor(Some(16)),
        );
        assert_eq!(again.stats.random_spawns, random.stats.random_spawns);
    }

    #[test]
    fn watchdog_outranks_max_length() {
        // Non-taken edge leads into an infinite loop; the watchdog is set
        // tighter than MaxNTPathLength and must cut the cascade first.
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok
            spin:
                jmp spin
            ok:
                li r2, 0
                exit
            ";
        let px = PxConfig::default()
            .with_max_nt_path_len(10_000)
            .with_nt_watchdog(25);
        let r = run(src, &px);
        assert_eq!(r.exit, RunExit::Exited(0));
        assert_eq!(r.stats.stops_of("watchdog"), 1);
        assert_eq!(r.stats.paths[0].executed, 25);
    }

    #[test]
    fn budget_hit_mid_nt_path_squashes_cleanly() {
        // The budget lands while an NT-path is live: the path must be cut
        // short and the committed io/registers must reflect only taken work.
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok
            spin:
                jmp spin
            ok:
                li r2, 0
                exit
            ";
        let px = PxConfig::default()
            .with_max_nt_path_len(100_000)
            .with_nt_watchdog(1_000_000)
            .with_max_instructions(20);
        let r = run(src, &px);
        assert_eq!(r.exit, RunExit::BudgetExhausted);
        assert_eq!(r.stats.stops_of("cut-short"), 1);
        assert!(r.io.output().is_empty());
    }

    #[test]
    fn bad_config_and_malformed_program_are_engine_faults() {
        let program = assemble(HIDDEN_BUG).unwrap();
        let mut mach = MachConfig::single_core();
        mach.l1.assoc = 0;
        let r = run_standard(&program, &mach, &PxConfig::default(), IoState::default());
        assert_eq!(r.exit.class(), "engine-fault");

        let mut garbage = assemble(HIDDEN_BUG).unwrap();
        garbage.data.push(px_isa::DataItem {
            addr: u32::MAX - 1,
            bytes: vec![0xAA; 8],
        });
        let r = run_standard(
            &garbage,
            &MachConfig::single_core(),
            &PxConfig::default(),
            IoState::default(),
        );
        assert!(matches!(
            r.exit,
            RunExit::EngineFault(SimError::BlobOutOfBounds { .. })
        ));

        let mut huge = assemble(HIDDEN_BUG).unwrap();
        huge.mem_size = u32::MAX;
        let r = run_standard(
            &huge,
            &MachConfig::single_core(),
            &PxConfig::default(),
            IoState::default(),
        );
        assert!(matches!(
            r.exit,
            RunExit::EngineFault(SimError::ProgramTooLarge { .. })
        ));
    }

    #[test]
    fn injected_faults_are_counted_and_contained() {
        use px_mach::{FaultMix, FaultPlan};
        let clean = run(HIDDEN_BUG, &PxConfig::default());
        for seed in [1u64, 7, 42] {
            let program = assemble(HIDDEN_BUG).unwrap();
            let mut plan = FaultPlan::new(seed, FaultMix::uniform(), 2);
            let r = run_standard_with(
                &program,
                &MachConfig::single_core(),
                &PxConfig::default(),
                IoState::default(),
                Some(&mut plan),
            );
            assert_eq!(r.exit, clean.exit, "taken path unaffected (seed {seed})");
            assert_eq!(r.io.output(), clean.io.output());
            if r.stats.nt_instructions > 0 {
                assert_eq!(r.stats.faults_injected, plan.stats.total());
            }
        }
    }

    #[test]
    fn counter_reset_catch_up_matches_the_naive_loop() {
        // The closed form must agree with the per-instruction protocol for
        // every (start, interval, length) — including interval 0 and starts
        // at or past the interval.
        for interval in [0u64, 1, 2, 3, 5, 64, 1000] {
            for start in [0u64, 1, 2, 3, 4, 63, 64, 65, 999, 1000, 1001] {
                for n in [0u64, 1, 2, 3, 5, 63, 64, 65, 127, 128, 129, 5000] {
                    let mut naive_tsr = start;
                    let mut naive_resets = 0u64;
                    for _ in 0..n {
                        if naive_tsr >= interval {
                            naive_resets += 1;
                            naive_tsr = 0;
                        }
                        naive_tsr += 1;
                    }
                    let mut tsr = start;
                    let resets = catch_up_counter_resets(&mut tsr, interval, n);
                    assert_eq!(
                        (resets, tsr),
                        (naive_resets, naive_tsr),
                        "interval={interval} start={start} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn decoded_entry_point_is_identical() {
        let program = assemble(HIDDEN_BUG).unwrap();
        let dp = px_isa::DecodedProgram::decode(&program);
        let px = PxConfig::default().with_max_nt_path_len(50);
        let plain = run_standard(
            &program,
            &MachConfig::single_core(),
            &px,
            IoState::default(),
        );
        let decoded = run_standard_decoded(
            &program,
            &dp,
            &MachConfig::single_core(),
            &px,
            IoState::default(),
        );
        assert_eq!(decoded.exit, plain.exit);
        assert_eq!(decoded.cycles, plain.cycles);
        assert_eq!(decoded.stats.spawns, plain.stats.spawns);
        assert_eq!(decoded.io.output(), plain.io.output());
    }

    #[test]
    fn explore_nt_from_nt_widens_coverage() {
        // Inside the NT region there is a second branch whose non-taken edge
        // is otherwise never explored (NT-paths follow actual conditions).
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok   ; spawn point
                ; --- NT region ---
                li r5, 1
                bne r5, zero, sub_ok  ; inner branch: always taken inside NT
                nop                   ; inner non-taken edge
            sub_ok:
                jmp ok
            ok:
                li r2, 0
                exit
            ";
        let p = assemble(src).unwrap();
        let plain = run(src, &PxConfig::default());
        let ablate = run(src, &PxConfig::default().with_explore_nt_from_nt(true));
        assert!(ablate.total_coverage.covered_edges(&p) > plain.total_coverage.covered_edges(&p));
    }
}
