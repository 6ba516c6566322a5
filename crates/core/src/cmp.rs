//! The PathExpander **CMP optimization** (paper §4.3, Figure 4(b)).
//!
//! The taken path runs on the primary core; each spawned NT-path is copied
//! (register context) onto an idle core and executes concurrently, sandboxed
//! in that core's L1 under its own 8-bit path ID. When no core is idle the
//! NT-path is queued in a free thread context; spawning stops entirely at
//! `MaxNumNTPaths` outstanding paths.
//!
//! Data dependences follow the tree of Figure 6(c): an NT-path reads the
//! memory image from its spawn point — realized with a copy-on-write
//! snapshot fed by the primary core's later stores — and its own writes stay
//! in its sandbox.
//!
//! Commit/squash tokens are modeled through the cache version tags: primary
//! stores issued while any NT-path is live are tagged with a speculative
//! *segment* tag; if such a line is displaced from the primary L1 the segment
//! is forced to commit, which squashes the oldest live NT-path (its
//! squash-token is claimed early, paper §4.3), and the segment's lines are
//! lazily retagged as committed.
//!
//! The run's cost is the primary core's finish time: NT-path work overlaps
//! with it, so the overhead the paper reports (< 9.9%) is spawn costs plus
//! cache interference.

use px_isa::{DecodedProgram, MicroOp, Program, SyscallCode, Width, UOP_KIND_COUNT};
use px_mach::{
    run_simple, simple_steps_until, step_uop, uop_cost_table, Btb, Checkpoint, CoreState, Coverage,
    Edge, FaultHook, Hierarchy, IoState, MachConfig, MemView, Memory, MonitorArea, MonitorRecord,
    PathCoverage, PathKind, PathPlan, PathTrail, RecordKind, RunExit, Sandbox, SandboxView,
    SimError, Step, StepEnv, StepEvent, UopProfile, WatchTable, COMMITTED, MAX_MEM_BYTES,
};

use crate::config::PxConfig;
use crate::inject::{apply_deferred, CountingHook};
use crate::stats::{NtPathRecord, NtStop, PxRunResult, PxStats};

/// Version tag for the primary core's speculative taken-path segment lines.
const SEGMENT_VTAG: u8 = 255;

/// A live or queued NT-path.
struct NtPath {
    id: u8,
    spawn_pc: u32,
    executed: u32,
    core: Option<usize>,
    state: CoreState,
    sandbox: Sandbox,
    /// §3.2 OS-sandbox extension: the NT-path's disposable I/O snapshot.
    scratch_io: IoState,
    /// The path's disposable view of the watch table, cloned at spawn:
    /// watch hits must fire on NT-paths exactly as on the taken path
    /// (iWatcher's whole mechanism), but registrations made inside the
    /// path must not leak into committed state.
    scratch_watches: WatchTable,
    /// Monotonic spawn order, used to pick the "oldest" for forced commits.
    seq: u64,
    /// Prime-path trail, forked from the taken trail at spawn. `None` unless
    /// the run carries a `PxConfig::path_plan`.
    trail: Option<PathTrail>,
    /// A step whose functional half ran ahead of the min-ready order but
    /// whose tail touches shared state: it waits, with the core's clock at
    /// the step's start, until the core is the exact winner.
    pending: Option<Step>,
}

/// A primary step whose functional half has run: the step, plus — for a
/// branch the veto chain left open — whether the random factor admitted a
/// hot edge (`Some(_)` means the tail attempts a spawn).
struct PrimaryTail {
    s: Step,
    attempt: Option<bool>,
}

impl PrimaryTail {
    /// Whether the tail touches shared state: an L1 miss (the L2 is
    /// shared), a monitor record, a spawn attempt (it reads the path
    /// table), or the end of the program.
    fn is_shared(&self, caches: &Hierarchy) -> bool {
        self.attempt.is_some()
            || !matches!(
                self.s.event,
                StepEvent::None | StepEvent::Syscall { .. } | StepEvent::Branch { .. }
            )
            || self
                .s
                .access
                .is_some_and(|a| !caches.l1_would_hit(0, a.addr))
    }
}

/// What a profiled CMP run observed: the micro-op histogram plus the
/// scheduler's own counters.
#[derive(Debug, Clone, Default)]
pub struct CmpProfile {
    /// Retired micro-ops and charged base cycles per kind.
    pub uops: UopProfile,
    /// Min-ready scans, each granting one core the slot.
    pub grants: u64,
    /// Steps whose shared tail waited for its core's exact turn.
    pub parked: u64,
}

/// One slot of the copy-on-write memo (see [`PrimaryView`]).
#[derive(Clone, Copy)]
struct CowEntry {
    addr: u32,
    bytes: u8,
    epoch: u64,
}

/// Direct-mapped slots in the copy-on-write memo.
const COW_SLOTS: usize = 64;

/// A [`MemView`] for the primary core that preserves overwritten bytes into
/// every live NT-path's snapshot before committing the store (the
/// copy-on-write realization of the tree data dependence).
///
/// Borrows the path table directly — building a `Vec<&mut Sandbox>` here per
/// primary step used to dominate the CMP engine's dispatch cost.
///
/// The memo skips the preserve sweep entirely for a store that already swept
/// the same address and width with no spawn in between (`epoch` counts
/// spawns): `preserve` keeps only the earliest value per byte, so re-sweeping
/// the same path set is a no-op — and path *removals* cannot invalidate a
/// covered entry. Exact, not heuristic.
struct PrimaryView<'a> {
    memory: &'a mut Memory,
    live: &'a mut [NtPath],
    cow_memo: &'a mut [CowEntry; COW_SLOTS],
    spawn_epoch: u64,
}

impl MemView for PrimaryView<'_> {
    fn load(&mut self, addr: u32, width: Width) -> Result<i32, px_mach::CrashKind> {
        self.memory.load(addr, width)
    }

    fn store(&mut self, addr: u32, value: i32, width: Width) -> Result<(), px_mach::CrashKind> {
        self.memory.check(addr, width.bytes())?;
        if !self.live.is_empty() {
            let slot = ((addr >> 2) as usize) % COW_SLOTS;
            let e = self.cow_memo[slot];
            if e.addr != addr || u32::from(e.bytes) != width.bytes() || e.epoch != self.spawn_epoch
            {
                let n = width.bytes() as usize;
                let mut old = [0u8; 4];
                for (i, b) in old.iter_mut().enumerate().take(n) {
                    *b = self.memory.byte(addr + i as u32);
                }
                for p in self.live.iter_mut() {
                    p.sandbox.preserve_span(addr, &old[..n]);
                }
                self.cow_memo[slot] = CowEntry {
                    addr,
                    bytes: width.bytes() as u8,
                    epoch: self.spawn_epoch,
                };
            }
        }
        self.memory.store(addr, value, width)
    }
}

/// Runs `program` under the CMP-optimized PathExpander.
///
/// A machine with fewer than 2 cores (the CMP option needs at least one idle
/// core), a bad geometry, or a malformed program surfaces as
/// [`RunExit::EngineFault`].
#[must_use]
pub fn run_cmp(program: &Program, mach: &MachConfig, px: &PxConfig, io: IoState) -> PxRunResult {
    run_cmp_inner::<false>(
        program,
        None,
        mach,
        px,
        io,
        None,
        &mut CmpProfile::default(),
    )
}

/// [`run_cmp`] against a pre-decoded program (see
/// [`DecodedProgram::decode`]); `dp` must be the decode of `program`.
/// Architecturally identical to [`run_cmp`] — decoding is deterministic —
/// but skips the per-run decode, which matters when one program is run many
/// times (fault campaigns, zoo rosters).
#[must_use]
pub fn run_cmp_decoded(
    program: &Program,
    dp: &DecodedProgram,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
) -> PxRunResult {
    run_cmp_inner::<false>(
        program,
        Some(dp),
        mach,
        px,
        io,
        None,
        &mut CmpProfile::default(),
    )
}

/// [`run_cmp`] with an optional fault injector; the hook is consulted only
/// for NT-path steps, so every fault lands in some path's sandbox and the
/// primary core's committed state stays bit-identical to a plain baseline.
#[must_use]
pub fn run_cmp_with(
    program: &Program,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
    fault: Option<&mut dyn FaultHook>,
) -> PxRunResult {
    run_cmp_inner::<false>(
        program,
        None,
        mach,
        px,
        io,
        fault,
        &mut CmpProfile::default(),
    )
}

/// [`run_cmp`] plus a per-handler micro-op histogram (counts and charged
/// base cycles per [`px_isa::UopKind`]) and the scheduler's grant and park
/// counts, for `bench_report --profile`. The run itself is architecturally
/// identical to [`run_cmp`]: the profile observes simulated work and feeds
/// nothing back.
#[must_use]
pub fn run_cmp_profiled(
    program: &Program,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
) -> (PxRunResult, CmpProfile) {
    let mut profile = CmpProfile::default();
    let result = run_cmp_inner::<true>(program, None, mach, px, io, None, &mut profile);
    (result, profile)
}

fn run_cmp_inner<const PROFILE: bool>(
    program: &Program,
    decoded: Option<&DecodedProgram>,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
    fault: Option<&mut dyn FaultHook>,
    profile: &mut CmpProfile,
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
    if mach.cores < 2 {
        return fail(SimError::NeedsTwoCores, io);
    }
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
    let mut primary = CoreState::at_entry(program.entry, memory.size());
    let mut caches = Hierarchy::new(mach);
    let mut btb = Btb::new(mach.btb_entries, mach.btb_assoc);
    let mut taken_cov = Coverage::for_program(program);
    let mut nt_cov = Coverage::for_program(program);
    let mut monitor = MonitorArea::new();
    let mut stats = PxStats::default();
    let mut io = io;
    // NT-paths must not mutate the real watch table; they get a disposable
    // clone at spawn. The primary's table is authoritative.
    let mut watches = WatchTable::new();
    // Prime-path tracking (opt-in, purely observational): the taken trail
    // follows the primary core; every NT-path carries its own trail, forked
    // from the taken trail at spawn. All record into one shared coverage.
    let mut tracking: Option<(&PathPlan, PathTrail, PathCoverage)> = px
        .path_plan
        .as_deref()
        .map(|p| (p, PathTrail::default(), p.new_coverage()));
    if let Some((p, taken_trail, cov)) = &mut tracking {
        taken_trail.enter_pc(p, cov, program.entry);
    }

    // Decode once; every core dispatches pre-decoded micro-ops.
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
    let in_checker =
        |pc: u32| -> bool { dp.op(pc).is_some_and(|u| u.a & MicroOp::BR_IN_CHECKER != 0) };
    // Whether any primary L1 line may carry `SEGMENT_VTAG`: set on tagged
    // stores, cleared by every `commit_path(0, SEGMENT_VTAG)`. Skipping the
    // commit scan while clean is exact — committing a clean cache retags
    // nothing — and avoids a full L1 walk after every primary step.
    let mut segment_dirty = false;

    let cost_table = uop_cost_table(&mach.costs);
    // NT-paths may batch simple runs only in the production configuration:
    // a fault hook must be consulted before every instruction. The primary
    // core never sees the hook, so it always batches.
    let nt_batching = fault.is_none();
    // Recycled per-path contexts: squashed sandboxes clear in O(1) (their
    // shadow pages go stale by generation bump and are revived lazily), and
    // pooled watch-table clones reuse their allocations. Architecturally
    // identical to fresh allocations per spawn.
    let mut pool: Vec<(Sandbox, WatchTable)> = Vec::new();

    let mut paths: Vec<NtPath> = Vec::new();
    // `(path index, core)` for every path currently ON a core, sorted by
    // path index: the per-instruction min-ready scan walks these few entries
    // in the path table's order (the tie-break order) instead of striding
    // over up to `max_outstanding` full `NtPath` structs, most of them
    // queued and irrelevant to the scan.
    let mut hosted: Vec<(usize, usize)> = Vec::new();
    // Counts spawns; versions the copy-on-write memo (see [`PrimaryView`]).
    let mut spawn_epoch: u64 = 1;
    let mut cow_memo = [CowEntry {
        addr: 0,
        bytes: 0,
        epoch: 0,
    }; COW_SLOTS];
    let mut core_busy: Vec<bool> = vec![false; mach.cores]; // index 0 = primary
    core_busy[0] = true;
    let mut next_seq: u64 = 0;
    let mut next_id: u8 = 1;

    // Per-core ready times (discrete event clock).
    let mut ready: Vec<u64> = vec![0; mach.cores];
    let mut primary_done: Option<RunExit> = None;
    let mut instructions: u64 = 0;
    let mut taken_since_reset: u64 = 0;
    let mut spawn_rng: u64 = 0x9E37_79B9_7F4A_7C15 ^ (program.code.len() as u64 + 1);
    // Static NT-spawn veto mask (see `standard.rs`; `None` = paper mode).
    let static_veto = px
        .static_nt_filter
        .map(|k| px_analyze::Analysis::of(program).veto_mask(program, k));
    let vetoed = |mask: &Option<Vec<[bool; 2]>>, pc: u32, edge: Edge| -> bool {
        mask.as_ref().is_some_and(|m| {
            m.get(pc as usize)
                .is_some_and(|e| e[usize::from(edge == Edge::NotTaken)])
        })
    };

    // Lookahead scheduling (DESIGN.md §8): the min-ready order matters only
    // for step tails that touch shared state, so a core keeps running ops
    // with core-private tails past its exact deadline, up to a horizon no
    // shared op can invalidate. That is provable only when every op costs at
    // least one cycle (the budget bound counts ops by cycles) and the
    // functional half reads no shared state: a fault hook draws from one RNG
    // in global step order, and NT-from-NT exploration uses the shared BTB.
    let lookahead = fault.is_none() && !px.explore_nt_from_nt && cost_table.iter().all(|&c| c > 0);
    // The primary's parked step, and the start cycle of its last retired op.
    let mut pending0: Option<PrimaryTail> = None;
    let mut primary_last_start: u64 = 0;

    'event_loop: loop {
        if instructions >= px.max_instructions
            && primary_done.is_none()
            // A parked step already counts against the budget and lies
            // within it: its tail runs before the cut.
            && pending0.is_none()
            && paths.iter().all(|p| p.pending.is_none())
        {
            primary_done = Some(RunExit::BudgetExhausted);
        }
        if primary_done.is_some() {
            // Program over: cut the surviving NT-paths short.
            for mut p in paths.drain(..) {
                finish_path(
                    &mut p,
                    NtStop::RunCutShort,
                    &mut caches,
                    &mut stats,
                    &mut pool,
                );
            }
            break 'event_loop;
        }

        // Pick the lowest-ready-time active core (primary is always active),
        // remembering which path it hosts — one scan serves both decisions.
        let mut who: usize = 0;
        let mut who_path: Option<usize> = None;
        let mut best = ready[0];
        for &(i, c) in &hosted {
            if ready[c] < best {
                best = ready[c];
                who = c;
                who_path = Some(i);
            }
        }
        if PROFILE {
            profile.grants += 1;
        }

        match who_path {
            None => {
                // ---- Primary core: keep stepping while it keeps winning ----
                //
                // The primary wins the scan at ties, so it holds the slot while
                // `ready[0]` stays at or below every hosted core's ready time.
                // That bound is a constant for as long as no other core advances
                // and the hosted set stays put, so the inner loop retires
                // instruction after instruction against a fixed `deadline`
                // instead of re-entering the scheduler per instruction — an
                // identity transformation of the min-ready schedule. Past the
                // deadline it keeps going while its tails stay private, up to
                // the budget horizon. Any structural event (spawn, forced
                // commit) edits the hosted set and breaks back out to a fresh
                // scan.
                let mut deadline = u64::MAX;
                for &(_, c) in &hosted {
                    deadline = deadline.min(ready[c]);
                }
                let reach = if lookahead {
                    deadline.max(budget_horizon(
                        &ready,
                        &core_busy,
                        instructions,
                        px.max_instructions,
                    ))
                } else {
                    deadline
                };
                loop {
                    let t = match pending0.take() {
                        // A parked step: the primary is the exact winner now.
                        Some(t) => t,
                        None => {
                            // Simple micro-ops are register-only: they raise no
                            // events, touch no memory or caches and contain no
                            // branches, so batching them is invisible to every
                            // other core; `simple_steps_until` cuts the batch
                            // at the horizon.
                            let run = dp.simple_run(primary.pc);
                            if run > 0 {
                                // A commit left pending by the last NT-path's
                                // death must land here, exactly where the
                                // per-step epilogue would have placed it: before
                                // the next cache access.
                                if segment_dirty && paths.is_empty() {
                                    caches.commit_path(0, SEGMENT_VTAG);
                                    segment_dirty = false;
                                }
                                let max_n =
                                    u64::from(run).min(px.max_instructions - instructions) as u32;
                                let n = simple_steps_until(
                                    dp,
                                    primary.pc,
                                    max_n,
                                    &cost_table,
                                    ready[0],
                                    reach,
                                );
                                if PROFILE {
                                    profile.uops.record_batch(dp, primary.pc, n, &cost_table);
                                }
                                let resets = crate::standard::catch_up_counter_resets(
                                    &mut taken_since_reset,
                                    px.counter_reset_interval,
                                    u64::from(n),
                                );
                                for _ in 0..resets {
                                    btb.reset_counters();
                                }
                                stats.counter_resets += resets;
                                let pc0 = primary.pc;
                                ready[0] += run_simple(dp, &mut primary, n, &cost_table);
                                primary_last_start =
                                    ready[0] - last_op_cost(dp, pc0, n, &cost_table);
                                if let Some((p, taken_trail, cov)) = &mut tracking {
                                    taken_trail.enter_range(p, cov, pc0, n);
                                }
                                instructions += u64::from(n);
                                stats.taken_instructions += u64::from(n);
                                if n < run
                                    || instructions >= px.max_instructions
                                    || ready[0] > reach
                                {
                                    break;
                                }
                                continue;
                            }

                            // ---- Primary step, functional half ----
                            instructions += 1;
                            if taken_since_reset >= px.counter_reset_interval {
                                btb.reset_counters();
                                stats.counter_resets += 1;
                                taken_since_reset = 0;
                            }
                            let mut env = StepEnv {
                                io: &mut io,
                                watches: &mut watches,
                                suppress_syscalls: false,
                                now_cycles: ready[0],
                                costs: &mach.costs,
                                // The primary core is the containment reference:
                                // never inject into it.
                                fault: None,
                            };
                            let profiled_kind = if PROFILE {
                                dp.op(primary.pc).map(|u| u.kind)
                            } else {
                                None
                            };
                            let s = {
                                let mut view = PrimaryView {
                                    memory: &mut memory,
                                    live: &mut paths,
                                    cow_memo: &mut cow_memo,
                                    spawn_epoch,
                                };
                                step_uop(program, dp, &mut primary, &mut view, &mut env)
                            };
                            if let Some(kind) = profiled_kind {
                                profile.uops.record(kind, s.base_cost);
                            }
                            stats.taken_instructions += 1;
                            taken_since_reset += 1;
                            // The BTB, taken coverage, spawn RNG and veto chain
                            // are the primary's own; only an admission attempt
                            // reads the path table.
                            let mut attempt = None;
                            if let StepEvent::Branch { pc, taken, .. } = s.event {
                                stats.dyn_branches += 1;
                                let edge = Edge::from_taken(taken);
                                btb.exercise(pc, edge);
                                taken_cov.record(pc, edge);
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
                                    attempt = Some(random_admit);
                                }
                            }
                            let t = PrimaryTail { s, attempt };
                            if ready[0] > deadline && t.is_shared(&caches) {
                                if PROFILE {
                                    profile.parked += 1;
                                }
                                pending0 = Some(t);
                                break;
                            }
                            t
                        }
                    };

                    // ---- Primary step, tail ----
                    let PrimaryTail { s, attempt } = t;
                    primary_last_start = ready[0];
                    ready[0] += u64::from(s.base_cost);
                    // Set when this step edits the hosted set (spawn, forced
                    // commit): the inner loop's deadline is stale then.
                    let mut structural = false;
                    if let Some(access) = s.access {
                        // Primary stores made while NT-paths are live are speculative
                        // segment data (they still need their sibling's squash token).
                        let vtag = if access.write && !paths.is_empty() {
                            segment_dirty = true;
                            SEGMENT_VTAG
                        } else {
                            COMMITTED
                        };
                        let a = caches.access(0, access.addr, access.write, vtag);
                        ready[0] += u64::from(a.cycles);
                        if a.volatile_evicted == Some(SEGMENT_VTAG) {
                            // Forced commit: squash the oldest live NT-path, commit
                            // the segment's lines.
                            structural = true;
                            if let Some(idx) = oldest_live(&paths) {
                                let last = paths.len() - 1;
                                let mut victim = paths.swap_remove(idx);
                                hosted_after_swap_remove(&mut hosted, idx, last);
                                finish_path(
                                    &mut victim,
                                    NtStop::ForcedCommit,
                                    &mut caches,
                                    &mut stats,
                                    &mut pool,
                                );
                                if let Some(c) = victim.core {
                                    core_busy[c] = false;
                                    if let Some(started) = start_queued(
                                        &mut paths,
                                        &mut core_busy,
                                        &mut ready,
                                        c,
                                        mach,
                                    ) {
                                        hosted.push((started, c));
                                        hosted.sort_unstable();
                                    }
                                }
                            }
                            caches.commit_path(0, SEGMENT_VTAG);
                            segment_dirty = false;
                        }
                    }

                    match s.event {
                        StepEvent::Branch {
                            pc,
                            taken,
                            taken_target,
                            not_taken_target,
                            ..
                        } => {
                            if let Some(random_admit) = attempt {
                                let nt_edge = Edge::from_taken(taken).other();
                                if paths.len() as u32 >= px.max_outstanding {
                                    stats.skipped_outstanding += 1;
                                } else {
                                    if random_admit {
                                        stats.random_spawns += 1;
                                    }
                                    structural = true;
                                    btb.exercise(pc, nt_edge);
                                    nt_cov.record(pc, nt_edge);
                                    let nt_target = if taken {
                                        not_taken_target
                                    } else {
                                        taken_target
                                    };
                                    admit_spawn(AdmitSpawn {
                                        pc,
                                        target: nt_target,
                                        primary: &primary,
                                        stats: &mut stats,
                                        ready: &mut ready,
                                        px,
                                        mach,
                                        io: &io,
                                        watches: &watches,
                                        pool: &mut pool,
                                        paths: &mut paths,
                                        hosted: &mut hosted,
                                        core_busy: &mut core_busy,
                                        next_id: &mut next_id,
                                        next_seq: &mut next_seq,
                                        spawn_epoch: &mut spawn_epoch,
                                    });
                                    if let Some((p, taken_trail, cov)) = &mut tracking {
                                        if let Some(path) = paths.last_mut() {
                                            // Fork the NT trail *at the branch*
                                            // (before either successor block) and
                                            // enter the redirected target; the
                                            // uniform post-step entry below puts
                                            // the architectural target on the
                                            // taken trail.
                                            let trail =
                                                path.trail.get_or_insert_with(PathTrail::default);
                                            trail.copy_from(taken_trail);
                                            trail.enter_pc(p, cov, path.state.pc);
                                        }
                                    }
                                }
                            }
                        }
                        StepEvent::CheckFailed { kind, site, pc } => monitor.push(MonitorRecord {
                            kind: RecordKind::Check(kind),
                            site,
                            pc,
                            cycle: ready[0],
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
                            cycle: ready[0],
                            path: PathKind::Taken,
                        }),
                        StepEvent::Exit { code } => primary_done = Some(RunExit::Exited(code)),
                        StepEvent::Crash { kind, .. } => {
                            primary_done = Some(RunExit::Crashed(kind))
                        }
                        StepEvent::UnsafeEvent { .. } => {
                            primary_done = Some(RunExit::EngineFault(SimError::Invariant(
                                "primary never suppresses system calls",
                            )));
                        }
                        StepEvent::Syscall { .. } | StepEvent::None => {}
                    }
                    // Control arrived at the primary's new pc, unless this
                    // very step ended the program.
                    if primary_done.is_none() {
                        if let Some((p, taken_trail, cov)) = &mut tracking {
                            taken_trail.enter_pc(p, cov, primary.pc);
                        }
                    }

                    // When the last NT-path died earlier, the segment lines are no
                    // longer speculative. The scan runs only when segment lines can
                    // exist at all.
                    if segment_dirty && paths.is_empty() {
                        caches.commit_path(0, SEGMENT_VTAG);
                        segment_dirty = false;
                    }
                    if structural
                        || primary_done.is_some()
                        || instructions >= px.max_instructions
                        || ready[0] > reach
                    {
                        break;
                    }
                }
            }
            // ---- NT-path on core `who`: keep stepping while it wins ----
            //
            // Selection tie-breaking is scan order (primary, then paths in
            // table order): to keep winning, this core must stay strictly
            // below everything scanned before it and at-or-below everything
            // scanned after. That bound is a constant while only this core
            // advances, so — exactly like the primary arm — the inner loop
            // retires instructions against a fixed `deadline` and breaks out
            // on the path's death (which edits the hosted set) or on losing
            // the slot.
            Some(idx) => {
                let mut before = ready[0];
                let mut after = u64::MAX;
                for &(j, c) in &hosted {
                    if j == idx {
                        continue;
                    }
                    if j < idx {
                        before = before.min(ready[c]);
                    } else {
                        after = after.min(ready[c]);
                    }
                }
                let deadline = before.saturating_sub(1).min(after);
                // A live path may run private ops past the deadline too, but
                // only ops that start before the primary's clock: the
                // primary's next op may be shared and kill the path (forced
                // commit, exit, crash, budget cut), and it wins ties.
                let reach = if lookahead {
                    let h = budget_horizon(&ready, &core_busy, instructions, px.max_instructions);
                    deadline.max(h.min(ready[0].saturating_sub(1)))
                } else {
                    deadline
                };
                loop {
                    let p = &mut paths[idx];
                    let run = if nt_batching && p.pending.is_none() {
                        dp.simple_run(p.state.pc)
                    } else {
                        0
                    };
                    // Ops left before the path reaches a length cap.
                    let cap = u64::from(px.max_nt_path_len.saturating_sub(p.executed))
                        .min(px.nt_watchdog - u64::from(p.executed));
                    let max_n = u64::from(run)
                        .min(px.max_instructions - instructions)
                        .min(cap) as u32;
                    // One grant retires one or more of the path's ops. It
                    // yields the stop (when the path died), the start cycle
                    // of its last op, and whether the core keeps the slot.
                    let (stop, last_start, keep) = if max_n > 0 {
                        let mut n = simple_steps_until(
                            dp,
                            p.state.pc,
                            max_n,
                            &cost_table,
                            ready[who],
                            reach,
                        );
                        // The op that reaches a cap ends the path: a shared
                        // tail, left to the exact winner when it would
                        // start past the deadline.
                        if u64::from(n) == cap
                            && (ready[who] > deadline
                                || n > simple_steps_until(
                                    dp,
                                    p.state.pc,
                                    n,
                                    &cost_table,
                                    ready[who],
                                    deadline,
                                ))
                        {
                            n -= 1;
                            if n == 0 {
                                if PROFILE {
                                    profile.parked += 1;
                                }
                                break;
                            }
                        }
                        if PROFILE {
                            profile.uops.record_batch(dp, p.state.pc, n, &cost_table);
                        }
                        let pc0 = p.state.pc;
                        ready[who] += run_simple(dp, &mut p.state, n, &cost_table);
                        let last_start = ready[who] - last_op_cost(dp, pc0, n, &cost_table);
                        if let Some((plan, _, cov)) = &mut tracking {
                            if let Some(trail) = p.trail.as_mut() {
                                trail.enter_range(plan, cov, pc0, n);
                            }
                        }
                        instructions += u64::from(n);
                        stats.nt_instructions += u64::from(n);
                        p.executed += n;
                        let stop = if u64::from(p.executed) >= px.nt_watchdog {
                            Some(NtStop::Watchdog)
                        } else if p.executed >= px.max_nt_path_len {
                            Some(NtStop::MaxLength)
                        } else {
                            None
                        };
                        if stop.is_some() {
                            ready[who] += u64::from(mach.squash_cycles);
                        }
                        (
                            stop,
                            last_start,
                            n == run && instructions < px.max_instructions && ready[who] <= reach,
                        )
                    } else {
                        let now = ready[who];
                        let s = match p.pending.take() {
                            // A parked step: this core is the exact winner now.
                            Some(s) => s,
                            None => {
                                instructions += 1;
                                let s = nt_exec::<PROFILE>(
                                    program,
                                    dp,
                                    p,
                                    &memory,
                                    px,
                                    mach,
                                    now,
                                    fault.as_mut().map(|h| h as &mut dyn FaultHook),
                                    &mut profile.uops,
                                );
                                if now > deadline && !nt_tail_is_private(&s, p, who, &caches, px) {
                                    if PROFILE {
                                        profile.parked += 1;
                                    }
                                    p.pending = Some(s);
                                    break;
                                }
                                s
                            }
                        };
                        let (stop, cost) = nt_tail(
                            s,
                            now,
                            dp,
                            p,
                            who,
                            &mut caches,
                            &mut monitor,
                            &mut btb,
                            &mut nt_cov,
                            &mut stats,
                            px,
                            mach,
                            static_veto.as_deref(),
                            tracking.as_mut().map(|(plan, _, cov)| (*plan, cov)),
                        );
                        ready[who] += u64::from(cost);
                        stats.nt_instructions += 1;
                        (
                            stop,
                            now,
                            instructions < px.max_instructions && ready[who] <= reach,
                        )
                    };
                    if let Some(stop) = stop {
                        let last = paths.len() - 1;
                        let mut victim = paths.swap_remove(idx);
                        hosted_after_swap_remove(&mut hosted, idx, last);
                        finish_path(&mut victim, stop, &mut caches, &mut stats, &mut pool);
                        core_busy[who] = false;
                        if let Some(started) =
                            start_queued(&mut paths, &mut core_busy, &mut ready, who, mach)
                        {
                            hosted.push((started, who));
                            hosted.sort_unstable();
                        }
                        // The primary's epilogue after its first op past this
                        // death commits the segment. If that op already ran
                        // ahead (privately, so it left no eviction to notice),
                        // the commit is owed now.
                        if segment_dirty && paths.is_empty() && primary_last_start > last_start {
                            caches.commit_path(0, SEGMENT_VTAG);
                            segment_dirty = false;
                        }
                        break;
                    }
                    if !keep {
                        break;
                    }
                }
            }
        }
    }

    let exit = primary_done.unwrap_or(RunExit::EngineFault(SimError::Invariant(
        "loop exits only when done",
    )));
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
        cycles: ready[0],
        taken_coverage: taken_cov,
        total_coverage,
        monitor,
        io,
        memory,
        core: primary,
        stats,
        path_coverage: tracking.map(|(_, _, cov)| cov),
    }
}

/// The latest start cycle `h` at which an op is sure to lie within the
/// instruction budget in the exact min-ready order. Every op costs at least
/// one cycle, so core `c` has at most `h + 1 - lb_c` ops left that start by
/// `h`, where `lb_c` bounds its next start (`ready[c]`, or the primary's
/// clock for an idle core, whose next path is spawned no earlier). Keeping
/// the sum within `max - done` gives `h = min lb + (max - done) / cores - 1`.
fn budget_horizon(ready: &[u64], core_busy: &[bool], done: u64, max: u64) -> u64 {
    let lb = ready
        .iter()
        .zip(core_busy)
        .map(|(&r, &busy)| if busy { r } else { r.max(ready[0]) })
        .min()
        .unwrap_or(0);
    lb.saturating_add(max.saturating_sub(done) / ready.len() as u64)
        .saturating_sub(1)
}

/// Table cost of the last op of the `n`-op simple run at `pc0`: the run's
/// end clock minus this is the last op's start.
fn last_op_cost(dp: &DecodedProgram, pc0: u32, n: u32, cost_table: &[u32; UOP_KIND_COUNT]) -> u64 {
    debug_assert!(n > 0, "a granted run retires at least one op");
    let last = dp.ops()[(pc0 + n - 1) as usize];
    u64::from(cost_table[last.kind as usize])
}

/// Updates the hosted-core list after `paths.swap_remove(removed)`: drops
/// the removed path's entry (if hosted) and re-points the entry of the path
/// that moved from index `last` into the hole, restoring path-index order.
fn hosted_after_swap_remove(hosted: &mut Vec<(usize, usize)>, removed: usize, last: usize) {
    hosted.retain(|&(i, _)| i != removed);
    if removed != last {
        for e in hosted.iter_mut() {
            if e.0 == last {
                e.0 = removed;
            }
        }
        hosted.sort_unstable();
    }
}

/// Everything the spawn path needs from `run_cmp_inner`'s locals. Bundled in
/// a struct so the call site stays one expression.
struct AdmitSpawn<'a> {
    pc: u32,
    /// The not-taken target the new path starts from.
    target: u32,
    primary: &'a CoreState,
    stats: &'a mut PxStats,
    ready: &'a mut Vec<u64>,
    px: &'a PxConfig,
    mach: &'a MachConfig,
    io: &'a IoState,
    watches: &'a WatchTable,
    pool: &'a mut Vec<(Sandbox, WatchTable)>,
    paths: &'a mut Vec<NtPath>,
    hosted: &'a mut Vec<(usize, usize)>,
    core_busy: &'a mut Vec<bool>,
    next_id: &'a mut u8,
    next_seq: &'a mut u64,
    spawn_epoch: &'a mut u64,
}

/// Admits a new NT-path: checkpoints the primary, allocates an id, recycles
/// a pooled context (or builds a fresh one), and hosts the path on an idle
/// core if any. Kept out of the hot primary-step loop (`#[inline(never)]`)
/// so its considerable frame — checkpoint copy, pool bookkeeping — does not
/// inflate the loop's register pressure; spawns are rare relative to steps.
#[inline(never)]
fn admit_spawn(s: AdmitSpawn<'_>) {
    s.stats.spawns += 1;
    s.ready[0] += u64::from(s.mach.spawn_cycles);
    let mut state = Checkpoint::take(s.primary).state();
    state.pc = s.target;
    state.pred = s.px.apply_fixes;
    let id = *s.next_id;
    *s.next_id = if *s.next_id >= SEGMENT_VTAG - 1 {
        1
    } else {
        *s.next_id + 1
    };
    let scratch_io = if s.px.os_sandbox_unsafe {
        s.io.clone()
    } else {
        IoState::default()
    };
    // Recycle a squashed path's context when one exists: `clear` stales the
    // sandbox's pages in O(1) and `copy_from` reuses the watch vectors'
    // allocations.
    let (sandbox, scratch_watches) = match s.pool.pop() {
        Some((mut sb, mut wt)) => {
            sb.clear();
            wt.copy_from(s.watches);
            (sb, wt)
        }
        None => (Sandbox::new(), s.watches.clone()),
    };
    let mut path = NtPath {
        id,
        spawn_pc: s.pc,
        executed: 0,
        core: None,
        state,
        sandbox,
        scratch_io,
        scratch_watches,
        seq: *s.next_seq,
        trail: None,
        pending: None,
    };
    *s.next_seq += 1;
    if let Some(c) = (1..s.mach.cores).find(|&c| !s.core_busy[c]) {
        s.core_busy[c] = true;
        path.core = Some(c);
        // The register copy lands when the primary issued it; the idle core
        // can start then.
        s.ready[c] = s.ready[c].max(s.ready[0]);
    }
    if let Some(c) = path.core {
        // Appending the highest path index keeps `hosted` sorted.
        s.hosted.push((s.paths.len(), c));
    }
    s.paths.push(path);
    *s.spawn_epoch += 1;
}

fn oldest_live(paths: &[NtPath]) -> Option<usize> {
    paths
        .iter()
        .enumerate()
        .filter(|(_, p)| p.core.is_some())
        .min_by_key(|(_, p)| p.seq)
        .map(|(i, _)| i)
}

/// Starts the oldest queued path on `freed_core`, returning its index in the
/// path table so callers can update the `path_cores` mirror.
fn start_queued(
    paths: &mut [NtPath],
    core_busy: &mut [bool],
    ready: &mut [u64],
    freed_core: usize,
    mach: &MachConfig,
) -> Option<usize> {
    let idx = paths
        .iter()
        .enumerate()
        .filter(|(_, p)| p.core.is_none())
        .min_by_key(|(_, p)| p.seq)
        .map(|(i, _)| i)?;
    paths[idx].core = Some(freed_core);
    core_busy[freed_core] = true;
    // Register copy onto the freed core.
    ready[freed_core] += u64::from(mach.spawn_cycles);
    Some(idx)
}

fn finish_path(
    path: &mut NtPath,
    stop: NtStop,
    caches: &mut Hierarchy,
    stats: &mut PxStats,
    pool: &mut Vec<(Sandbox, WatchTable)>,
) {
    debug_assert!(path.pending.is_none(), "a parked step precedes every kill");
    if let Some(c) = path.core {
        caches.squash_path(c, path.id);
    }
    // The sandbox is returned to the spawn pool as-is (its pages are staled
    // by the O(1) `clear` on reuse), along with the scratch watch table.
    pool.push((
        std::mem::take(&mut path.sandbox),
        std::mem::take(&mut path.scratch_watches),
    ));
    stats.paths.push(NtPathRecord {
        spawn_pc: path.spawn_pc,
        executed: path.executed,
        stop,
    });
}

/// The functional half of one NT-path step: the interpreter step against
/// the path's own view (registers, sandbox over the spawn-time memory
/// image, scratch I/O and watch table) and the profile record. Touches
/// nothing another core can observe.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn nt_exec<const PROFILE: bool>(
    program: &Program,
    dp: &DecodedProgram,
    path: &mut NtPath,
    memory: &Memory,
    px: &PxConfig,
    mach: &MachConfig,
    now: u64,
    fault: Option<&mut dyn FaultHook>,
    profile: &mut UopProfile,
) -> Step {
    // NT-paths run against their spawn-time clone of the watch table
    // (mutations must not leak; hits must still fire); under the OS-sandbox
    // extension their system calls run against the path's I/O snapshot
    // instead of stopping the path.
    let mut env = StepEnv {
        io: &mut path.scratch_io,
        watches: &mut path.scratch_watches,
        suppress_syscalls: !px.os_sandbox_unsafe,
        now_cycles: now,
        costs: &mach.costs,
        fault,
    };
    let profiled_kind = if PROFILE {
        dp.op(path.state.pc).map(|u| u.kind)
    } else {
        None
    };
    let s = {
        let mut view = SandboxView::new(memory, &mut path.sandbox);
        step_uop(program, dp, &mut path.state, &mut view, &mut env)
    };
    if let Some(kind) = profiled_kind {
        profile.record(kind, s.base_cost);
    }
    s
}

/// Whether the tail of NT step `s` is core-private: no cache access or an
/// L1 hit (the L2 is shared), no monitor record or stop, no deferred fault,
/// and not the op that reaches a length cap. Such a tail commutes with
/// every other core's work, so it may run ahead of the min-ready order.
/// (A branch tail reads the shared BTB only under NT-from-NT exploration,
/// which runs without lookahead.)
fn nt_tail_is_private(
    s: &Step,
    path: &NtPath,
    core: usize,
    caches: &Hierarchy,
    px: &PxConfig,
) -> bool {
    s.deferred.is_none()
        && matches!(
            s.event,
            StepEvent::None | StepEvent::Syscall { .. } | StepEvent::Branch { .. }
        )
        && path.executed + 1 < px.max_nt_path_len
        && u64::from(path.executed) + 1 < px.nt_watchdog
        && s.access.is_none_or(|a| caches.l1_would_hit(core, a.addr))
}

/// The tail of one NT-path step `s` that started at cycle `now`: deferred
/// faults, the cache access, coverage, monitor records and the stop checks.
/// Returns the stop (when the path dies here) and the step's cost.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn nt_tail(
    s: Step,
    now: u64,
    dp: &DecodedProgram,
    path: &mut NtPath,
    core: usize,
    caches: &mut Hierarchy,
    monitor: &mut MonitorArea,
    btb: &mut Btb,
    nt_cov: &mut Coverage,
    stats: &mut PxStats,
    px: &PxConfig,
    mach: &MachConfig,
    static_veto: Option<&[[bool; 2]]>,
    tracking: Option<(&PathPlan, &mut PathCoverage)>,
) -> (Option<NtStop>, u32) {
    let mut cost = s.base_cost;
    if let Some(action) = s.deferred {
        apply_deferred(
            action,
            caches,
            core,
            path.id,
            monitor,
            now,
            PathKind::NtPath {
                spawn_pc: path.spawn_pc,
            },
            path.state.pc,
        );
    }
    let mut overflow = false;
    if let Some(access) = s.access {
        if access.write {
            stats.nt_writes += 1;
        }
        let vtag = if access.write { path.id } else { COMMITTED };
        let a = caches.access(core, access.addr, access.write, vtag);
        cost += a.cycles;
        if a.volatile_evicted == Some(path.id) {
            overflow = true;
        }
    }
    path.executed += 1;

    let stop = match s.event {
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
            if px.explore_nt_from_nt {
                let other = edge.other();
                if btb.edge_count(pc, other) < px.counter_threshold
                    && dp.op(pc).is_none_or(|u| u.a & MicroOp::BR_IN_CHECKER == 0)
                    && !static_veto.is_some_and(|m| {
                        m.get(pc as usize)
                            .is_some_and(|e| e[usize::from(other == Edge::NotTaken)])
                    })
                {
                    btb.exercise(pc, other);
                    nt_cov.record(pc, other);
                    path.state.pc = if taken {
                        not_taken_target
                    } else {
                        taken_target
                    };
                }
            }
            None
        }
        StepEvent::CheckFailed { kind, site, pc } => {
            monitor.push(MonitorRecord {
                kind: RecordKind::Check(kind),
                site,
                pc,
                cycle: now,
                path: PathKind::NtPath {
                    spawn_pc: path.spawn_pc,
                },
            });
            None
        }
        StepEvent::WatchHit {
            tag,
            addr,
            is_write,
            pc,
        } => {
            monitor.push(MonitorRecord {
                kind: RecordKind::Watch {
                    tag,
                    addr,
                    is_write,
                },
                site: tag,
                pc,
                cycle: now,
                path: PathKind::NtPath {
                    spawn_pc: path.spawn_pc,
                },
            });
            None
        }
        StepEvent::UnsafeEvent { code } => Some(if code == SyscallCode::Exit {
            NtStop::ProgramEnd
        } else {
            NtStop::Unsafe(code)
        }),
        StepEvent::Crash { kind, .. } => Some(NtStop::Crash(kind)),
        StepEvent::Exit { .. } => Some(NtStop::ProgramEnd),
        StepEvent::Syscall { .. } => {
            stats.nt_syscalls_sandboxed += 1;
            None
        }
        StepEvent::None => None,
    };
    // Control arrived at the path's new pc unless the step itself stopped it
    // (crash, unsafe event, program end); length- and overflow-stops below
    // still count the entry, mirroring the standard engine.
    if stop.is_none() {
        if let Some((p, cov)) = tracking {
            if let Some(trail) = path.trail.as_mut() {
                trail.enter_pc(p, cov, path.state.pc);
            }
        }
    }
    let stop = stop.or({
        if overflow {
            Some(NtStop::SandboxOverflow)
        } else if u64::from(path.executed) >= px.nt_watchdog {
            Some(NtStop::Watchdog)
        } else if path.executed >= px.max_nt_path_len {
            Some(NtStop::MaxLength)
        } else {
            None
        }
    });
    if stop.is_some() {
        cost += mach.squash_cycles;
    }
    (stop, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_isa::asm::assemble;

    fn run(src: &str, px: &PxConfig) -> PxRunResult {
        let program = assemble(src).unwrap();
        run_cmp(&program, &MachConfig::default(), px, IoState::default())
    }

    const HIDDEN_BUG: &str = r"
        .code
        main:
            li r1, 1
            bne r1, zero, ok
            li r3, 0
            assert r3, #77
            li r6, 500
        ntspin:
            subi r6, r6, 1
            bgt r6, zero, ntspin
            jmp ok
        ok:
            li r4, 200
        loop:
            subi r4, r4, 1
            bgt r4, zero, loop
            li r2, 0
            exit
        ";

    #[test]
    fn cmp_detects_nt_bug_concurrently() {
        let r = run(HIDDEN_BUG, &PxConfig::default().cmp());
        assert_eq!(r.exit, RunExit::Exited(0));
        assert!(r.monitor.nt_records().any(|rec| rec.site == 77));
    }

    #[test]
    fn cmp_overhead_is_small_compared_to_standard() {
        let program = assemble(HIDDEN_BUG).unwrap();
        let base = px_mach::run_baseline(
            &program,
            &MachConfig::default(),
            IoState::default(),
            1_000_000,
        );
        let std_r = crate::standard::run_standard(
            &program,
            &MachConfig::single_core(),
            &PxConfig::default(),
            IoState::default(),
        );
        let cmp_r = run(HIDDEN_BUG, &PxConfig::default().cmp());
        // NT work overlaps in CMP: primary finish time must beat the
        // standard configuration's serial execution.
        assert!(cmp_r.cycles < std_r.cycles);
        // And it should be close to baseline (well under 2x here).
        assert!(cmp_r.cycles < base.cycles * 2);
    }

    #[test]
    fn cmp_sandboxes_roll_back() {
        let src = r"
            .data
            g: .word 7
            .code
            main:
                li r1, 1
                bne r1, zero, ok
                la r5, g
                li r6, 999
                sw r6, 0(r5)
                jmp ok
            ok:
                li r4, 50
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop
                la r5, g
                lw r2, 0(r5)
                printi
                li r2, 0
                exit
            ";
        let r = run(src, &PxConfig::default().cmp());
        assert_eq!(r.io.output_string(), "7");
    }

    #[test]
    fn nt_path_reads_spawn_time_memory_not_later_taken_path_writes() {
        // The NT-path spins a little, then reads `g`. Meanwhile the taken
        // path overwrites `g`. The NT-path must still see the spawn-time
        // value (tree data dependence) and reports it via an assert site.
        let src = r"
            .data
            g: .word 7
            .code
            main:
                li r1, 1
                bne r1, zero, ok
                ; --- NT path: delay, then check g is still 7 ---
                li r6, 30
            ntspin:
                subi r6, r6, 1
                bgt r6, zero, ntspin
                la r5, g
                lw r7, 0(r5)
                seq r8, r7, zero    ; r8 = (g == 0)?  we assert g != 0 stayed 7
                li r9, 7
                seq r8, r7, r9      ; r8 = (g == 7)
                assert r8, #55      ; fails if NT saw the taken path's write
                jmp ok
            ok:
                la r5, g
                sw zero, 0(r5)      ; taken path clobbers g immediately
                li r4, 400
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop
                li r2, 0
                exit
            ";
        let r = run(src, &PxConfig::default().cmp());
        assert_eq!(r.exit, RunExit::Exited(0));
        let nt_failures: Vec<_> = r.monitor.nt_records().collect();
        assert!(
            nt_failures.is_empty(),
            "NT-path must see spawn-time memory, got {nt_failures:?}"
        );
    }

    #[test]
    fn max_outstanding_limits_concurrency() {
        // A loop whose never-taken edge leads into a long spin: spawned
        // NT-paths occupy idle cores for MaxNTPathLength instructions.
        let src = r"
            .code
            main:
                li r4, 40
                li r9, -1000
            loop:
                subi r4, r4, 1
                blt r4, r9, spin    ; never taken: NT-paths go spin
                bgt r4, zero, loop
                li r2, 0
                exit
            spin:
                addi r8, r8, 1
                jmp spin
            ";
        let px = PxConfig::default()
            .cmp()
            .with_counter_threshold(15)
            .with_max_outstanding(2)
            .with_max_nt_path_len(10_000);
        let r = run(src, &px);
        assert!(r.stats.skipped_outstanding > 0, "outstanding cap must bite");
        assert!(r.stats.spawns >= 2);
    }

    #[test]
    fn forced_commit_squashes_the_oldest_path() {
        // A tiny primary L1 (2 lines) forces dirty-line displacement while
        // NT-paths are live, exercising the commit-token path of §4.3.
        let src = r"
            .code
            main:
                li r1, 1
                li r9, 0x2000
                li r10, 0x3000
                li r4, 120
            loop:
                bne r1, zero, work   ; spawn edge: NT spins below
                jmp work
            work:
                sw r4, 0(r9)         ; primary dirty lines in two sets
                sw r4, 0(r10)
                addi r9, r9, 32
                addi r10, r10, 32
                subi r4, r4, 1
                bgt r4, zero, loop
                li r2, 0
                exit
            ";
        let program = px_isa::asm::assemble(src).unwrap();
        let mach = MachConfig {
            l1: px_mach::CacheConfig {
                size_bytes: 64,
                assoc: 2,
                line_bytes: 32,
                hit_cycles: 3,
            },
            ..MachConfig::default()
        };
        let px = PxConfig::default()
            .with_max_nt_path_len(5_000)
            .with_counter_threshold(15);
        let r = run_cmp(&program, &mach, &px, IoState::default());
        assert!(r.exit.is_success());
        assert!(
            r.stats.stops_of("forced-commit") > 0,
            "dirty displacement must force commits: {:?}",
            r.stats.paths.iter().map(|p| p.stop).collect::<Vec<_>>()
        );
    }

    #[test]
    fn queued_paths_start_when_cores_free() {
        // More simultaneous spawn demand than idle cores: queued NT-paths
        // must still execute (spawns == completed paths).
        let src = r"
            .code
            main:
                li r4, 30
                li r9, -1
            loop:
                subi r4, r4, 1
                blt r4, r9, s1      ; never taken: spawn long NT
                blt r4, r9, s2      ; never taken: spawn long NT
                blt r4, r9, s3      ; never taken: spawn long NT
                bgt r4, zero, loop
                li r2, 0
                exit
            s1: jmp s1
            s2: jmp s2
            s3: jmp s3
            ";
        let program = px_isa::asm::assemble(src).unwrap();
        let px = PxConfig::default()
            .with_max_nt_path_len(400)
            .with_counter_threshold(3)
            .with_max_outstanding(8);
        let r = run_cmp(&program, &MachConfig::default(), &px, IoState::default());
        assert!(r.exit.is_success());
        assert_eq!(
            r.stats.paths.len() as u64,
            r.stats.spawns,
            "every spawned path completes or is cut short"
        );
        assert!(r.stats.spawns >= 6, "all three edges spawn repeatedly");
    }

    #[test]
    fn os_sandbox_works_in_cmp_mode() {
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok
                li r2, 88
                putc
                li r3, 0
                assert r3, #12
                jmp ok
            ok:
                li r4, 300
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop
                li r2, 0
                exit
            ";
        let program = px_isa::asm::assemble(src).unwrap();
        let plain = run_cmp(
            &program,
            &MachConfig::default(),
            &PxConfig::default().cmp(),
            IoState::default(),
        );
        assert_eq!(plain.monitor.len(), 0);
        let os = run_cmp(
            &program,
            &MachConfig::default(),
            &PxConfig::default().cmp().with_os_sandbox(true),
            IoState::default(),
        );
        assert!(
            !os.monitor.is_empty(),
            "the bug past the syscall is reached"
        );
        assert!(os.io.output().is_empty(), "sandboxed putc must not leak");
        assert!(os.stats.nt_syscalls_sandboxed >= 1);
    }

    #[test]
    fn one_core_machine_is_an_engine_fault_not_a_panic() {
        let program = assemble(HIDDEN_BUG).unwrap();
        let r = run_cmp(
            &program,
            &MachConfig::single_core(),
            &PxConfig::default().cmp(),
            IoState::default(),
        );
        assert_eq!(r.exit, RunExit::EngineFault(SimError::NeedsTwoCores));
    }

    #[test]
    fn cmp_watchdog_cuts_runaway_paths() {
        let src = r"
            .code
            main:
                li r1, 1
                bne r1, zero, ok
            spin:
                jmp spin
            ok:
                li r4, 500
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop
                li r2, 0
                exit
            ";
        let px = PxConfig::default()
            .cmp()
            .with_max_nt_path_len(1_000_000)
            .with_nt_watchdog(40);
        let r = run(src, &px);
        assert_eq!(r.exit, RunExit::Exited(0));
        assert!(r.stats.stops_of("watchdog") >= 1);
    }

    #[test]
    fn cmp_injected_faults_never_panic_or_leak() {
        use px_mach::{FaultMix, FaultPlan};
        let program = assemble(HIDDEN_BUG).unwrap();
        let clean = run(HIDDEN_BUG, &PxConfig::default().cmp());
        for seed in 0..8u64 {
            let mut plan = FaultPlan::new(seed, FaultMix::uniform(), 2);
            let r = run_cmp_with(
                &program,
                &MachConfig::default(),
                &PxConfig::default().cmp(),
                IoState::default(),
                Some(&mut plan),
            );
            assert_eq!(r.exit, clean.exit, "seed {seed}");
            assert_eq!(r.io.output(), clean.io.output(), "seed {seed}");
        }
    }

    #[test]
    fn private_work_runs_ahead_of_the_scan() {
        // Once their spawn edges turn hot, the primary and the NT-paths
        // only run register ops and private branches: the cores must stop
        // handing the slot back and forth every cycle, and the profiled run
        // (which counts the grants) must equal the plain one.
        let src = r"
            .code
            main:
                li r4, 3000
                li r9, -1
            loop:
                subi r4, r4, 1
                addi r5, r5, 3
                blt r4, r9, spin    ; never taken: NT-paths spin
                bgt r4, zero, loop
                li r2, 0
                exit
            spin:
                addi r8, r8, 1
                jmp spin
            ";
        let program = assemble(src).unwrap();
        let px = PxConfig::default().cmp();
        let (r, prof) = run_cmp_profiled(&program, &MachConfig::default(), &px, IoState::default());
        let plain = run_cmp(&program, &MachConfig::default(), &px, IoState::default());
        assert_eq!(r.cycles, plain.cycles);
        assert_eq!(r.stats.paths, plain.stats.paths);
        let retired = r.stats.taken_instructions + r.stats.nt_instructions;
        assert!(r.stats.nt_instructions > 5_000, "NT-paths do real work");
        assert!(
            prof.grants * 20 < retired,
            "{} grants for {retired} instructions",
            prof.grants
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(HIDDEN_BUG, &PxConfig::default().cmp());
        let b = run(HIDDEN_BUG, &PxConfig::default().cmp());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stats.spawns, b.stats.spawns);
        assert_eq!(a.monitor.len(), b.monitor.len());
    }
}
