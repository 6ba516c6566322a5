//! # px-mach — the machine model underneath PathExpander
//!
//! This crate is the reproduction's substitute for the paper's cycle-accurate
//! SESC-derived CMP simulator (§6.1): a discrete-event, timing-approximate
//! model of a 4-core chip multiprocessor running the PXVM-32 ISA, with every
//! structure PathExpander's hardware design touches:
//!
//! * an instruction interpreter with exact architectural semantics
//!   ([`exec::step`]), shared by the baseline, both PathExpander hardware
//!   engines, the feasibility harness and the software implementation;
//! * per-core L1 / shared L2 **timing caches with volatile version tags**
//!   ([`cache::Hierarchy`]) implementing the L1 sandbox and its capacity
//!   constraint (paper §4.2(2));
//! * a **BTB with per-edge 4-bit exercise counters** ([`btb::Btb`],
//!   paper §4.1/§4.2(1));
//! * register/PC **checkpoints** ([`core::Checkpoint`], paper §4.2(2));
//! * functional memory with NT-path **sandboxes and copy-on-write snapshots**
//!   ([`memory::Sandbox`]) realizing the CMP option's tree-structured data
//!   dependences (paper Figure 6(c));
//! * the **monitor memory area** ([`monitor::MonitorArea`], paper §4.1) where
//!   checker reports survive squashes;
//! * iWatcher-style **watch ranges** with NT-rollback ([`watch::WatchTable`]);
//! * **branch coverage** tracking ([`coverage::Coverage`], the paper's §2
//!   metric) and a **baseline runner** ([`runner::run_baseline`]) for the
//!   paper's no-PathExpander columns.
//!
//! The default [`MachConfig`] reproduces the paper's Table 2 parameters.
//!
//! What is *not* modeled (and why it does not change the paper's
//! conclusions): out-of-order issue and branch prediction — PathExpander's
//! overheads are dominated by NT-path instruction counts, spawn/squash
//! penalties and memory latency, all of which are modeled with the paper's
//! own parameters. See `DESIGN.md` for the full substitution argument.

pub mod btb;
pub mod cache;
pub mod config;
pub mod core;
pub mod coverage;
pub mod exec;
pub mod fault;
pub mod io;
pub mod memo;
pub mod memory;
pub mod monitor;
pub mod paths;
pub mod runner;
pub mod uexec;
pub mod watch;

pub use btb::{Btb, Edge, COUNTER_MAX};
pub use cache::{Access, Cache, Hierarchy, HierarchyStats, Lookup, COMMITTED};
pub use config::{CacheConfig, CostModel, MachConfig};
pub use core::{Checkpoint, CoreState, Regs};
pub use coverage::Coverage;
pub use exec::{step, DataAccess, Step, StepEnv, StepEvent};
pub use fault::{
    FaultAction, FaultHook, FaultKind, FaultMix, FaultPlan, FaultStats, SimError, FAULT_KINDS,
    MAX_MEM_BYTES,
};
pub use io::IoState;
pub use memo::{
    memo_fingerprint, MemoEntry, MemoNote, MemoRecorder, MemoStep, MemoStop, MemoTable,
    MEMO_MAX_READS, MEMO_MAX_STEPS, MEMO_RETRY_PERIOD, MEMO_STRIKE_LIMIT,
};
pub use memory::{CrashKind, MemView, Memory, Sandbox, SandboxView};
pub use monitor::{MonitorArea, MonitorRecord, PathKind, RecordKind};
pub use paths::{PathCoverage, PathPlan, PathTrail};
pub use runner::{run_baseline, run_baseline_traced, run_baseline_with, RunExit, RunResult};
pub use uexec::{
    run_simple, simple_cost_until, simple_steps_until, step_uop, uop_cost_table, UopHandler,
    UopProfile,
};
pub use watch::{WatchRange, WatchTable};
