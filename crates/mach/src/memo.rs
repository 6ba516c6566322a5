//! NT-path memoization: a read-set-keyed replay cache for not-taken paths.
//!
//! NT paths are squashed, sandboxed excursions: nothing they do survives
//! except their *reports* (coverage deltas, monitor records, stats and
//! timing charges). That makes an NT path's entire observable effect a pure
//! function of its live-in state — the registers and committed memory bytes
//! it reads plus the watch table at spawn. This module records that live-in
//! read set alongside a step-exact effect bundle the first time a path runs;
//! later spawns at the same (spawn pc, NT target) whose live-ins still match
//! *replay* the bundle instead of re-simulating, step for step.
//!
//! Only the standard engine replays; the CMP engine always simulates its
//! NT paths. Replay is *simulation-timing identical*: the engine re-issues
//! every cache access of the recorded path in order (so cycle charges and
//! sandbox-overflow squashes are recomputed live, never trusted from the
//! recording) and re-applies every budget/watchdog/length cap against its
//! live counters. What replay skips is the interpreter itself — operand
//! reads, ALU work, sandbox writes, watch lookups — which is where the
//! wall-clock time goes. Every architectural digest (taken-path, coverage,
//! timing, campaign aggregate) is byte-identical with the cache on or off;
//! `memo_gate` enforces this differentially in CI.
//!
//! Cache state is deliberately **not** part of the validated read set:
//! NT-path loads read committed memory (or their own sandbox writes, which
//! are not live-ins), so cache contents affect only timing, and timing is
//! recomputed. Paths are *not* memoized when a fault injector is attached
//! (injected faults are keyed to absolute instruction counts, not path
//! state), when the OS-sandbox extension lets syscalls mutate I/O state, or
//! when NT-from-NT exploration reads the BTB mid-path.

use std::collections::HashSet;
use std::sync::Arc;

use px_isa::{
    encode_program, CheckKind, DecodedProgram, Instruction, MicroOp, Reg, SyscallCode, UopKind,
};
use px_util::memo::{FixedMap, MemoCounters};

use crate::config::CostModel;
use crate::core::Regs;
use crate::memory::{CrashKind, Memory, Sandbox};
use crate::watch::{WatchRange, WatchTable};

/// Hard cap on recorded steps per entry; longer paths are not memoized.
/// Bounds both recording overhead and per-entry memory (a step is ~16
/// bytes). Batched simple regions count as one step, so real paths rarely
/// come close.
pub const MEMO_MAX_STEPS: usize = 4096;

/// Read-set size cap: paths that read more than this many distinct memory
/// bytes are not recorded (probing such a set would cost more than
/// re-simulating the path).
pub const MEMO_MAX_READS: usize = 1024;

/// Slot count of the memo table (distinct (spawn pc, target) keys).
pub const MEMO_SLOTS: usize = 512;

/// Entries retained per key: paths from one branch with different live-ins
/// (e.g. loop iterations touching different data) coexist up to this many.
pub const MEMO_VARIANTS: usize = 4;

/// Consecutive validation failures (with no intervening hit) after which a
/// key stops admitting new recordings: its live-ins evidently differ on
/// every spawn, so recording is pure overhead.
pub const MEMO_STRIKE_LIMIT: u8 = 3;

/// While a key is muted, every this-many-th declined recording is admitted
/// anyway, so a key whose live-ins stabilize later can re-enter the cache.
pub const MEMO_RETRY_PERIOD: u32 = 64;

/// Why a memoized NT path stopped. Mirrors the engine-level `NtStop`
/// variants that are pure functions of the path itself; stops that depend
/// on live machine state (sandbox overflow, budget exhaustion, forced
/// commit) are never stored — replay recomputes those live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoStop {
    /// Executed `MaxNTPathLength` instructions.
    MaxLength,
    /// Hit the per-cascade watchdog.
    Watchdog,
    /// Crashed inside the sandbox.
    Crash(CrashKind),
    /// Reached an unsafe event (uncontainable syscall).
    Unsafe(SyscallCode),
    /// Reached the program's exit.
    ProgramEnd,
}

/// A coverage/monitor side effect of one recorded step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoNote {
    /// No side effect beyond execution itself.
    None,
    /// A conditional branch retired on the NT path: NT coverage records the
    /// followed edge and the dynamic-branch counter ticks.
    Branch {
        /// Branch pc.
        pc: u32,
        /// Whether the branch was taken (selects the recorded edge).
        taken: bool,
    },
    /// A `Check` tripped: a monitor record is filed.
    Check {
        /// Checker kind.
        kind: CheckKind,
        /// Static site id.
        site: u32,
        /// Faulting pc.
        pc: u32,
    },
    /// A watched range was touched: a monitor record is filed.
    Watch {
        /// Watchpoint tag.
        tag: u32,
        /// Accessed address.
        addr: u32,
        /// Whether the access was a write.
        is_write: bool,
        /// Accessing pc.
        pc: u32,
    },
    /// The path terminated on this step with a recorded stop reason. A stop
    /// step files no trail entry and does not count toward the path-length
    /// caps (matching the live engines, which break before either).
    Stop(MemoStop),
}

/// One recorded step of an NT path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoStep {
    /// A batched run of `n` simple micro-ops starting at `pc`. Costs are
    /// *not* recorded: replay re-walks the static cost table so the grant
    /// can be re-chunked against live budget/watchdog/length caps without
    /// drift. Simple ops touch neither memory nor the monitor.
    Run {
        /// First pc of the region.
        pc: u32,
        /// Micro-ops in the region.
        n: u32,
    },
    /// One non-simple micro-op.
    One {
        /// Base (non-memory) cycle cost charged by the interpreter,
        /// including any watch-hit surcharge.
        base: u32,
        /// Next pc after the step (drives the prime-path trail).
        next_pc: u32,
        /// Data access to re-issue against the live cache hierarchy.
        access: Option<(u32, bool)>,
        /// Coverage/monitor side effect.
        note: MemoNote,
    },
}

/// A memoized NT path: the validated live-in read set plus the step-exact
/// effect bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoEntry {
    /// Branch the path was spawned from.
    pub spawn_pc: u32,
    /// First pc of the NT path.
    pub target: u32,
    /// Watch table at spawn (multiset of ranges; order is not
    /// architectural — rollback restores the set, not the order).
    pub watch: Vec<WatchRange>,
    /// Registers read before being written, with the value observed.
    pub reg_reads: Vec<(u8, i32)>,
    /// Committed memory bytes read before being written, with the value
    /// observed.
    pub mem_reads: Vec<(u32, u8)>,
    /// The step-exact effect bundle.
    pub steps: Vec<MemoStep>,
    /// Instructions the recording engine counted (advisory; replay counts
    /// live by its own engine's rules).
    pub executed: u32,
    /// Stop reason as recorded.
    pub stop: MemoStop,
}

/// Records one NT path's read set and effect bundle as it executes.
///
/// Register reads are noted *pre-step* (a register not yet written by the
/// path still holds its spawn value, so the current value is the live-in;
/// first-read-wins). Memory reads are noted per byte, skipping bytes the
/// path itself wrote. The recorder aborts — and the path is simply not
/// memoized — when the read set or step list exceeds its caps.
#[derive(Debug)]
pub struct MemoRecorder {
    spawn_pc: u32,
    target: u32,
    watch: Vec<WatchRange>,
    pred: bool,
    read_mask: u32,
    written_mask: u32,
    reg_reads: Vec<(u8, i32)>,
    mem_reads: Vec<(u32, u8)>,
    mem_seen: HashSet<u32>,
    steps: Vec<MemoStep>,
    aborted: bool,
}

fn in_kind_range(k: UopKind, lo: UopKind, hi: UopKind) -> bool {
    (lo as u8..=hi as u8).contains(&(k as u8))
}

impl MemoRecorder {
    /// Start recording a path spawned at `spawn_pc` toward `target`, with
    /// the given watch table and initial NT predicate.
    #[must_use]
    pub fn new(spawn_pc: u32, target: u32, watches: &WatchTable, pred: bool) -> MemoRecorder {
        MemoRecorder {
            spawn_pc,
            target,
            watch: watches.ranges().to_vec(),
            pred,
            read_mask: 0,
            written_mask: 0,
            reg_reads: Vec::new(),
            mem_reads: Vec::new(),
            mem_seen: HashSet::new(),
            steps: Vec::new(),
            aborted: false,
        }
    }

    /// Whether the recorder is still collecting (not aborted over a cap).
    #[must_use]
    pub fn live(&self) -> bool {
        !self.aborted
    }

    fn read_reg(&mut self, idx: u8, regs: &Regs) {
        // r0 is hardwired zero — never a live-in.
        if idx == 0 {
            return;
        }
        let bit = 1u32 << idx;
        if (self.read_mask | self.written_mask) & bit != 0 {
            return;
        }
        self.read_mask |= bit;
        self.reg_reads.push((idx, regs.get(Reg::new(idx))));
    }

    fn write_reg(&mut self, idx: u8) {
        if idx != 0 {
            self.written_mask |= 1u32 << idx;
        }
    }

    fn read_mem(&mut self, addr: u32, len: u32, sandbox: &Sandbox, memory: &Memory) {
        for b in addr..addr.saturating_add(len) {
            // Bytes the path already wrote are reads of its own sandbox,
            // not live-ins.
            if sandbox.written_byte(b).is_some() {
                continue;
            }
            if !self.mem_seen.insert(b) {
                continue;
            }
            self.mem_reads.push((b, memory.byte(b)));
        }
        if self.mem_reads.len() > MEMO_MAX_READS {
            self.aborted = true;
        }
    }

    /// Note the register reads/writes of one micro-op *before* it executes,
    /// and for loads that will succeed, the memory bytes it will read.
    pub fn note_uop(&mut self, u: &MicroOp, regs: &Regs, sandbox: &Sandbox, memory: &Memory) {
        if self.aborted {
            return;
        }
        let k = u.kind;
        match k {
            UopKind::Nop | UopKind::ClearWatch | UopKind::Jump | UopKind::JumpBad => {}
            UopKind::LoadByte | UopKind::LoadWord => {
                self.read_reg(u.b, regs);
                let addr = (regs.get(Reg::new(u.b)) as u32).wrapping_add(u.imm as u32);
                let len = if k == UopKind::LoadByte { 1 } else { 4 };
                if memory.check(addr, len).is_ok() {
                    self.read_mem(addr, len, sandbox, memory);
                    self.write_reg(u.a);
                }
                // A crashing load writes nothing and terminates the path.
            }
            UopKind::StoreByte | UopKind::StoreWord => {
                self.read_reg(u.a, regs);
                self.read_reg(u.b, regs);
            }
            UopKind::PStoreByte | UopKind::PStoreWord if self.pred => {
                self.read_reg(u.a, regs);
                self.read_reg(u.b, regs);
            }
            UopKind::PStoreByte | UopKind::PStoreWord => {}
            UopKind::Call => {
                self.write_reg(Reg::RA.index() as u8);
                self.pred = false;
            }
            UopKind::CallBad => {}
            UopKind::Ret => {
                self.read_reg(Reg::RA.index() as u8, regs);
                self.pred = false;
            }
            UopKind::Check => self.read_reg(u.b, regs),
            UopKind::SetWatch => {
                self.read_reg(u.a, regs);
                self.read_reg(u.b, regs);
            }
            UopKind::PMovI if self.pred => self.write_reg(u.a),
            UopKind::PMov | UopKind::PAluI if self.pred => {
                self.read_reg(u.b, regs);
                self.write_reg(u.a);
            }
            // Squashed predicated ops touch no architectural state.
            UopKind::PMovI | UopKind::PMov | UopKind::PAluI => {}
            _ if in_kind_range(k, UopKind::AddRR, UopKind::SneRR) => {
                self.read_reg(u.b, regs);
                self.read_reg(u.c, regs);
                self.write_reg(u.a);
            }
            _ if in_kind_range(k, UopKind::AddRI, UopKind::SneRI) => {
                self.read_reg(u.b, regs);
                self.write_reg(u.a);
            }
            _ if in_kind_range(k, UopKind::BranchEq, UopKind::BranchGt) => {
                self.read_reg(u.b, regs);
                self.read_reg(u.c, regs);
                self.pred = false;
            }
            // Suppressed system calls touch no architectural state.
            _ => {}
        }
    }

    /// Note a batched run of `n` simple ops starting at `pc`, using the
    /// *pre-batch* register file. Walks the ops in order so first-read-wins
    /// masks stay exact.
    pub fn note_run(&mut self, dp: &DecodedProgram, pc: u32, n: u32, regs: &Regs) {
        if self.aborted {
            return;
        }
        let ops = dp.ops();
        for i in 0..n {
            let u = &ops[(pc + i) as usize];
            debug_assert!(u.is_simple(), "batched region must be simple");
            match u.kind {
                UopKind::Nop => {}
                UopKind::PMovI => {
                    if self.pred {
                        self.write_reg(u.a);
                    }
                }
                UopKind::PMov => {
                    if self.pred {
                        self.read_reg(u.b, regs);
                        self.write_reg(u.a);
                    }
                }
                UopKind::PAluI => {
                    if self.pred {
                        self.read_reg(u.b, regs);
                        self.write_reg(u.a);
                    }
                }
                k if in_kind_range(k, UopKind::AddRR, UopKind::SneRR) => {
                    self.read_reg(u.b, regs);
                    self.read_reg(u.c, regs);
                    self.write_reg(u.a);
                }
                k if in_kind_range(k, UopKind::AddRI, UopKind::SneRI) => {
                    self.read_reg(u.b, regs);
                    self.write_reg(u.a);
                }
                _ => debug_assert!(false, "non-simple kind in simple region"),
            }
        }
        // Why pre-batch regs are correct for every op in the walk: a
        // register is recorded only if neither read nor written yet, and an
        // unwritten register still holds its spawn value — which equals its
        // pre-batch value.
        if let Some(MemoStep::Run { pc: p0, n: n0 }) = self.steps.last_mut() {
            if *p0 + *n0 == pc {
                *n0 += n;
                return;
            }
        }
        self.push_step(MemoStep::Run { pc, n });
    }

    /// Append one non-simple step's effect record.
    pub fn push_one(
        &mut self,
        base: u32,
        next_pc: u32,
        access: Option<(u32, bool)>,
        note: MemoNote,
    ) {
        if self.aborted {
            return;
        }
        self.push_step(MemoStep::One {
            base,
            next_pc,
            access,
            note,
        });
    }

    fn push_step(&mut self, step: MemoStep) {
        if self.steps.len() >= MEMO_MAX_STEPS {
            self.aborted = true;
            return;
        }
        self.steps.push(step);
    }

    /// Finish recording. Returns `None` if the recorder aborted.
    #[must_use]
    pub fn finish(self, executed: u32, stop: MemoStop) -> Option<MemoEntry> {
        if self.aborted {
            return None;
        }
        Some(MemoEntry {
            spawn_pc: self.spawn_pc,
            target: self.target,
            watch: self.watch,
            reg_reads: self.reg_reads,
            mem_reads: self.mem_reads,
            steps: self.steps,
            executed,
            stop,
        })
    }
}

/// Multiset equality of watch-range sets. `WatchTable::rollback` restores
/// the *set* of ranges but may reorder them, and order is not architectural
/// (hits report the minimum overlapping tag), so validation must ignore it.
fn watch_multiset_eq(recorded: &[WatchRange], live: &[WatchRange]) -> bool {
    if recorded.len() != live.len() {
        return false;
    }
    recorded.iter().all(|r| {
        let want = recorded.iter().filter(|x| *x == r).count();
        live.iter().filter(|x| *x == r).count() == want
    })
}

#[derive(Debug)]
struct MemoVariant {
    entry: Arc<MemoEntry>,
    uses: u64,
}

#[derive(Debug)]
struct MemoSlot {
    variants: Vec<MemoVariant>,
    /// Consecutive failed validations since the last hit. At
    /// [`MEMO_STRIKE_LIMIT`] the key stops admitting new recordings.
    strikes: u8,
    /// Recordings declined while muted; resets when the periodic retry
    /// re-admits one.
    denied: u32,
}

/// The per-run (or, via the campaign runner, per-program) NT-path replay
/// cache: a fixed-capacity map from (spawn pc, NT target) to up to
/// [`MEMO_VARIANTS`] read-set-validated entries.
#[derive(Debug)]
pub struct MemoTable {
    map: FixedMap<MemoSlot>,
    fingerprint: u64,
    /// Probe/store accounting (not part of `PxStats`, so memoization never
    /// perturbs architectural statistics).
    pub counters: MemoCounters,
}

impl MemoTable {
    /// Create an empty table bound to a configuration fingerprint.
    #[must_use]
    pub fn new(fingerprint: u64) -> MemoTable {
        MemoTable {
            map: FixedMap::new(MEMO_SLOTS, fingerprint),
            fingerprint,
            counters: MemoCounters::default(),
        }
    }

    /// The fingerprint this table is bound to. Engines refuse tables whose
    /// fingerprint does not match their program + configuration.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Total evictions (slot-level and variant-level).
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.map.evictions() + self.counters.evictions
    }

    fn key(spawn_pc: u32, target: u32) -> u64 {
        (u64::from(spawn_pc) << 32) | u64::from(target)
    }

    /// Probe for a replayable entry: same (spawn pc, target), watch-table
    /// multiset equal, and every recorded register/memory live-in matching
    /// the live machine state.
    pub fn probe(
        &mut self,
        spawn_pc: u32,
        target: u32,
        watches: &WatchTable,
        regs: &Regs,
        memory: &Memory,
    ) -> Option<Arc<MemoEntry>> {
        let Some(slot) = self.map.get_mut(Self::key(spawn_pc, target)) else {
            self.counters.misses += 1;
            return None;
        };
        let hit = slot.variants.iter().position(|v| {
            let e = &v.entry;
            watch_multiset_eq(&e.watch, watches.ranges())
                && e.reg_reads
                    .iter()
                    .all(|&(r, want)| regs.get(Reg::new(r)) == want)
                && e.mem_reads.iter().all(|&(a, want)| memory.byte(a) == want)
        });
        if let Some(i) = hit {
            slot.strikes = 0;
            let v = &mut slot.variants[i];
            v.uses += 1;
            self.counters.hits += 1;
            return Some(Arc::clone(&v.entry));
        }
        slot.strikes = slot.strikes.saturating_add(1);
        self.counters.invalidations += 1;
        None
    }

    /// Admission policy, consulted after a failed [`MemoTable::probe`]: is
    /// recording this spawn worth the cost? Unknown keys always are. A key
    /// whose entries failed validation [`MEMO_STRIKE_LIMIT`] times in a row
    /// without a hit is effectively unique-per-spawn (live-ins differ every
    /// time), so recording it is pure overhead — decline, but re-admit every
    /// [`MEMO_RETRY_PERIOD`]th decline so a key whose live-ins stabilize
    /// later can re-enter. Purely a wall-clock decision: whether a spawn is
    /// recorded never changes what the simulation computes.
    pub fn should_record(&mut self, spawn_pc: u32, target: u32) -> bool {
        let Some(slot) = self.map.get_mut(Self::key(spawn_pc, target)) else {
            return true;
        };
        if slot.strikes < MEMO_STRIKE_LIMIT {
            return true;
        }
        slot.denied += 1;
        if slot.denied >= MEMO_RETRY_PERIOD {
            slot.denied = 0;
            return true;
        }
        self.counters.skips += 1;
        false
    }

    /// Store a freshly recorded entry, displacing the least-used variant of
    /// its key when the variant list is full.
    pub fn store(&mut self, entry: MemoEntry) {
        let key = Self::key(entry.spawn_pc, entry.target);
        let variant = MemoVariant {
            entry: Arc::new(entry),
            uses: 0,
        };
        self.counters.stores += 1;
        if let Some(slot) = self.map.get_mut(key) {
            if slot.variants.len() >= MEMO_VARIANTS {
                let (victim, _) = slot
                    .variants
                    .iter()
                    .enumerate()
                    .min_by_key(|(i, v)| (v.uses, *i))
                    .expect("variant list is non-empty");
                slot.variants.remove(victim);
                self.counters.evictions += 1;
            }
            slot.variants.push(variant);
        } else {
            self.map.insert(
                key,
                MemoSlot {
                    variants: vec![variant],
                    strikes: 0,
                    denied: 0,
                },
            );
        }
    }

    /// Count a spawn that could not use the memo (recorder aborted or the
    /// stop reason is not memoizable).
    pub fn bypass(&mut self) {
        self.counters.bypasses += 1;
    }
}

/// Fingerprint binding a memo table to everything that shapes recorded
/// bundles: the program text (step pcs and base costs), the NT caps (they
/// decide where recorded paths end), the NT-entry predicate, the cost model
/// (base costs are baked into recorded steps).
///
/// Program *data* and the path plan are deliberately excluded: data live-ins
/// are validated per probe, and trails are replayed live against whatever
/// plan the run carries.
#[must_use]
pub fn memo_fingerprint(
    code: &[Instruction],
    max_nt_path_len: u32,
    nt_watchdog: u64,
    apply_fixes: bool,
    costs: &CostModel,
) -> u64 {
    let mut h = px_util::fnv1a64(0x4d45_4d4f, &encode_program(code));
    h = px_util::fnv1a64(h, &max_nt_path_len.to_le_bytes());
    h = px_util::fnv1a64(h, &nt_watchdog.to_le_bytes());
    h = px_util::fnv1a64(h, &[u8::from(apply_fixes)]);
    px_util::fnv1a64(h, format!("{costs:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachConfig;

    fn entry_with(reg_reads: Vec<(u8, i32)>, mem_reads: Vec<(u32, u8)>) -> MemoEntry {
        MemoEntry {
            spawn_pc: 4,
            target: 9,
            watch: Vec::new(),
            reg_reads,
            mem_reads,
            steps: vec![MemoStep::Run { pc: 9, n: 3 }],
            executed: 3,
            stop: MemoStop::MaxLength,
        }
    }

    #[test]
    fn probe_validates_reg_and_mem_live_ins() {
        let mut t = MemoTable::new(1);
        t.store(entry_with(vec![(5, 77)], vec![(4096, 9)]));
        let watches = WatchTable::default();
        let mut regs = Regs::default();
        let mut mem = Memory::new(8192);
        regs.set(Reg::new(5), 77);
        mem.set_byte(4096, 9);
        assert!(t.probe(4, 9, &watches, &regs, &mem).is_some());
        assert_eq!(t.counters.hits, 1);

        regs.set(Reg::new(5), 78);
        assert!(t.probe(4, 9, &watches, &regs, &mem).is_none());
        assert_eq!(t.counters.invalidations, 1);

        regs.set(Reg::new(5), 77);
        mem.set_byte(4096, 10);
        assert!(t.probe(4, 9, &watches, &regs, &mem).is_none());

        // Unknown key: a miss, not an invalidation.
        assert!(t.probe(4, 10, &watches, &regs, &mem).is_none());
        assert_eq!(t.counters.misses, 1);
        assert_eq!(t.counters.invalidations, 2);
    }

    #[test]
    fn probe_validates_watch_multiset_ignoring_order() {
        let mut watches = WatchTable::default();
        watches.set(100, 4, 1);
        watches.set(200, 4, 2);
        let mut e = entry_with(Vec::new(), Vec::new());
        // Record the ranges in the opposite order.
        let mut recorded = watches.ranges().to_vec();
        recorded.reverse();
        e.watch = recorded;
        let mut t = MemoTable::new(1);
        t.store(e);
        let regs = Regs::default();
        let mem = Memory::new(8192);
        assert!(t.probe(4, 9, &watches, &regs, &mem).is_some());

        watches.set(300, 4, 3);
        assert!(
            t.probe(4, 9, &watches, &regs, &mem).is_none(),
            "extra live range must invalidate"
        );
    }

    #[test]
    fn variant_list_evicts_least_used() {
        let mut t = MemoTable::new(1);
        for i in 0..MEMO_VARIANTS as i32 {
            t.store(entry_with(vec![(5, i)], Vec::new()));
        }
        let watches = WatchTable::default();
        let mem = Memory::new(8192);
        // Touch every variant except live-in value 0.
        for i in 1..MEMO_VARIANTS as i32 {
            let mut regs = Regs::default();
            regs.set(Reg::new(5), i);
            assert!(t.probe(4, 9, &watches, &regs, &mem).is_some());
        }
        t.store(entry_with(vec![(5, 100)], Vec::new()));
        assert_eq!(t.counters.evictions, 1);
        let mut regs = Regs::default();
        regs.set(Reg::new(5), 0);
        assert!(
            t.probe(4, 9, &watches, &regs, &mem).is_none(),
            "least-used variant was displaced"
        );
        regs.set(Reg::new(5), 100);
        assert!(t.probe(4, 9, &watches, &regs, &mem).is_some());
    }

    #[test]
    fn admission_mutes_striking_keys_and_retries_periodically() {
        let mut t = MemoTable::new(1);
        let watches = WatchTable::default();
        let mem = Memory::new(8192);
        // Unknown keys always record.
        assert!(t.should_record(4, 9));
        t.store(entry_with(vec![(5, 0)], Vec::new()));
        // Live-ins differ on every spawn: strikes accumulate, and recording
        // stays admitted until the limit.
        let mut regs = Regs::default();
        for i in 1..=i32::from(MEMO_STRIKE_LIMIT) {
            regs.set(Reg::new(5), i);
            assert!(t.probe(4, 9, &watches, &regs, &mem).is_none());
            if i < i32::from(MEMO_STRIKE_LIMIT) {
                assert!(t.should_record(4, 9), "below the strike limit");
            }
        }
        // Muted now; the periodic retry re-admits exactly one recording
        // after MEMO_RETRY_PERIOD - 1 declines.
        let mut declined = 0u32;
        while !t.should_record(4, 9) {
            declined += 1;
            assert!(declined <= MEMO_RETRY_PERIOD, "retry never happened");
        }
        assert_eq!(declined, MEMO_RETRY_PERIOD - 1);
        assert_eq!(t.counters.skips, u64::from(declined));
        // A hit clears the strikes and recording resumes immediately.
        regs.set(Reg::new(5), 0);
        assert!(t.probe(4, 9, &watches, &regs, &mem).is_some());
        assert!(t.should_record(4, 9));
        assert!(t.should_record(4, 9), "no decline counting after a hit");
    }

    #[test]
    fn recorder_first_read_wins_and_skips_written() {
        let mut regs = Regs::default();
        regs.set(Reg::new(3), 30);
        regs.set(Reg::new(4), 40);
        let watches = WatchTable::default();
        let mut r = MemoRecorder::new(0, 1, &watches, false);
        // First op reads r3, r4 and writes r3; the second re-reads r3.
        let program = px_isa::asm::assemble(".code\nmain:\n  add r3, r3, r4\n  add r5, r3, r4\n")
            .expect("assembles");
        let dp = DecodedProgram::decode(&program);
        r.note_run(&dp, 0, 2, &regs);
        let e = r.finish(2, MemoStop::MaxLength).expect("recorder live");
        // r3 and r4 recorded once each with pre-batch values; the second
        // op's r3 read is of a written register, not a live-in.
        assert_eq!(e.reg_reads, vec![(3, 30), (4, 40)]);
        assert_eq!(e.steps, vec![MemoStep::Run { pc: 0, n: 2 }]);
    }

    #[test]
    fn recorder_skips_self_written_bytes_and_caps_reads() {
        let watches = WatchTable::default();
        let mem = Memory::new(8192);
        let mut sandbox = Sandbox::default();
        sandbox.write_byte(4098, 7);
        let mut r = MemoRecorder::new(0, 1, &watches, false);
        r.read_mem(4096, 4, &sandbox, &mem);
        let e = r.finish(1, MemoStop::MaxLength).expect("under the cap");
        assert_eq!(
            e.mem_reads,
            vec![(4096, 0), (4097, 0), (4099, 0)],
            "self-written byte excluded"
        );

        // The cap counts live-in bytes only: the self-written byte lets the
        // span run one past it.
        let cap = MEMO_MAX_READS as u32;
        let mut r1 = MemoRecorder::new(0, 1, &watches, false);
        r1.read_mem(4096, cap + 1, &sandbox, &mem);
        assert!(r1.live(), "at the cap, not over");
        let mut r2 = MemoRecorder::new(0, 1, &watches, false);
        r2.read_mem(4096, cap + 2, &sandbox, &mem);
        assert!(!r2.live(), "over the read cap must abort");
        assert!(r2.finish(1, MemoStop::MaxLength).is_none());
    }

    #[test]
    fn run_steps_merge_only_when_contiguous() {
        let watches = WatchTable::default();
        let regs = Regs::default();
        let program = px_isa::asm::assemble(&format!(".code\nmain:\n{}", "  nop\n".repeat(10)))
            .expect("assembles");
        let dp = DecodedProgram::decode(&program);
        let mut r = MemoRecorder::new(0, 1, &watches, false);
        r.note_run(&dp, 0, 3, &regs);
        r.note_run(&dp, 3, 2, &regs);
        r.push_one(1, 9, None, MemoNote::None);
        r.note_run(&dp, 0, 2, &regs);
        let e = r.finish(8, MemoStop::MaxLength).expect("live");
        assert_eq!(
            e.steps,
            vec![
                MemoStep::Run { pc: 0, n: 5 },
                MemoStep::One {
                    base: 1,
                    next_pc: 9,
                    access: None,
                    note: MemoNote::None
                },
                MemoStep::Run { pc: 0, n: 2 },
            ]
        );
    }

    #[test]
    fn fingerprint_tracks_config() {
        let code = vec![Instruction::Nop; 4];
        let costs = MachConfig::default().costs;
        let base = memo_fingerprint(&code, 1000, 1 << 20, true, &costs);
        assert_eq!(base, memo_fingerprint(&code, 1000, 1 << 20, true, &costs));
        assert_ne!(base, memo_fingerprint(&code, 999, 1 << 20, true, &costs));
        assert_ne!(base, memo_fingerprint(&code, 1000, 1 << 20, false, &costs));
        let mut other = costs;
        other.div += 1;
        assert_ne!(base, memo_fingerprint(&code, 1000, 1 << 20, true, &other));
    }
}
