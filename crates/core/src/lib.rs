//! # pathexpander — architectural support for increasing the path coverage
//! of dynamic bug detection
//!
//! A full reimplementation of **PathExpander** (Lu, Zhou, Liu, Zhou,
//! Torrellas — MICRO 2006) over the `px-mach` machine model. PathExpander
//! lets dynamic bug-detection tools observe *non-taken paths*: as the
//! monitored program runs, selected non-taken branch edges are executed in a
//! hardware sandbox, so bugs on paths the test input never reaches are still
//! exposed to the checker.
//!
//! Two engines implement the paper's two options:
//!
//! * [`run_standard`] — the standard configuration (Figure 4(a)):
//!   checkpoint, run the NT-path inline on the same core, roll back.
//! * [`run_cmp`] — the CMP optimization (Figure 4(b)): NT-paths run
//!   concurrently on idle cores with TLS-style tree data dependences and
//!   commit/squash tokens, hiding nearly all of the overhead.
//!
//! [`run`] dispatches on [`Mode`]. The [`feasibility`] module reproduces the
//! §3.2 Crash-/Unsafe-Latency analysis (Figure 3).
//!
//! ## Example
//!
//! A bug on a never-taken edge is invisible to a plain monitored run but is
//! caught by PathExpander:
//!
//! ```
//! use pathexpander::{run_standard, PxConfig};
//! use px_isa::asm::assemble;
//! use px_mach::{IoState, MachConfig};
//!
//! let program = assemble(
//!     r"
//!     .code
//!     main:
//!         li r1, 1
//!         bne r1, zero, ok   ; with this input, never falls through
//!         li r3, 0
//!         assert r3, #7      ; the hidden bug
//!         jmp ok
//!     ok:
//!         li r2, 0
//!         exit
//!     ",
//! )?;
//! // Baseline monitored run: the assertion never executes.
//! let base = px_mach::run_baseline(&program, &MachConfig::single_core(),
//!                                  IoState::default(), 10_000);
//! assert!(base.monitor.is_empty());
//! // PathExpander: the NT-path exposes it.
//! let px = run_standard(&program, &MachConfig::single_core(),
//!                       &PxConfig::default(), IoState::default());
//! assert_eq!(px.monitor.nt_records().count(), 1);
//! # Ok::<(), px_isa::asm::AsmError>(())
//! ```

pub mod cmp;
pub mod config;
pub mod contain;
pub mod feasibility;
mod inject;
pub mod standard;
pub mod stats;

pub use cmp::{run_cmp, run_cmp_decoded, run_cmp_profiled, run_cmp_with, CmpProfile};
pub use config::{Mode, PxConfig};
pub use contain::{check_containment, differential_run, ContainmentReport, Violation};
pub use feasibility::{measure_latency, measure_latency_with, profile_from_stats, LatencyProfile};
pub use inject::FAULT_WATCH_TAG;
pub use standard::{
    run_standard, run_standard_decoded, run_standard_memo, run_standard_with, standard_memo_table,
};
pub use stats::{NtPathRecord, NtStop, PxRunResult, PxStats};

// The standard engine's NT-path memo table, shared by campaigns across runs.
pub use px_mach::MemoTable;

use px_analyze::PrimePathSet;
use px_isa::{DecodedProgram, Program};
use px_mach::{FaultHook, IoState, MachConfig, PathPlan, SimError};

/// Converts an enumerated [`PrimePathSet`] into the plain-data
/// [`PathPlan`] the engines consume (px-mach sits below px-analyze, so
/// the conversion lives here). Attach the plan with
/// [`PxConfig::with_path_plan`]. Only feasible paths enter the matcher's
/// trie: covered ⊆ feasible holds by construction.
///
/// # Errors
///
/// Returns a typed [`SimError`] when two feasible paths share a block
/// sequence (matching would be ambiguous).
pub fn plan_paths(set: &PrimePathSet) -> Result<PathPlan, SimError> {
    PathPlan::new(
        set.code_len(),
        set.program_digest(),
        set.digest(),
        set.block_starts().to_vec(),
        set.len() as u32,
        set.feasible_count() as u32,
        set.truncated(),
        set.paths()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.feasible)
            .map(|(i, p)| (i as u32, p.blocks.as_slice())),
    )
}

/// Runs `program` under PathExpander, dispatching on `px.mode`.
#[must_use]
pub fn run(program: &Program, mach: &MachConfig, px: &PxConfig, io: IoState) -> PxRunResult {
    run_with(program, mach, px, io, None)
}

/// [`run`] against a pre-decoded program; `dp` must be the decode of
/// `program`. Architecturally identical to [`run`] — see
/// [`run_standard_decoded`] / [`run_cmp_decoded`].
#[must_use]
pub fn run_decoded(
    program: &Program,
    dp: &DecodedProgram,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
) -> PxRunResult {
    match px.mode {
        Mode::Standard => run_standard_decoded(program, dp, mach, px, io),
        Mode::Cmp => run_cmp_decoded(program, dp, mach, px, io),
    }
}

/// [`run`] with an optional fault injector (see [`run_standard_with`] /
/// [`run_cmp_with`]).
#[must_use]
pub fn run_with(
    program: &Program,
    mach: &MachConfig,
    px: &PxConfig,
    io: IoState,
    fault: Option<&mut dyn FaultHook>,
) -> PxRunResult {
    match px.mode {
        Mode::Standard => run_standard_with(program, mach, px, io, fault),
        Mode::Cmp => run_cmp_with(program, mach, px, io, fault),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_isa::asm::assemble;

    #[test]
    fn run_dispatches_on_mode() {
        let program = assemble(
            r"
            .code
            main:
                li r4, 10
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop
                li r2, 0
                exit
            ",
        )
        .unwrap();
        let std_r = run(
            &program,
            &MachConfig::single_core(),
            &PxConfig::default(),
            IoState::default(),
        );
        let cmp_r = run(
            &program,
            &MachConfig::default(),
            &PxConfig::default().cmp(),
            IoState::default(),
        );
        assert!(std_r.exit.is_success());
        assert!(cmp_r.exit.is_success());
        assert_eq!(std_r.stats.spawns, cmp_r.stats.spawns);
    }

    #[test]
    fn path_plan_is_observational_and_reports_coverage() {
        let program = assemble(
            r"
            .code
            main:
                readi
                beq r1, zero, left
                li r2, 1
                jmp join
            left:
                li r2, 2
            join:
                li r4, 3
            loop:
                subi r4, r4, 1
                bgt r4, zero, loop
                exit
            ",
        )
        .unwrap();
        let set = px_analyze::Analysis::of(&program).prime_paths(&program);
        assert!(set.feasible_count() > 0);
        let plan = std::sync::Arc::new(plan_paths(&set).unwrap());
        for (mach, px) in [
            (MachConfig::single_core(), PxConfig::default()),
            (MachConfig::default(), PxConfig::default().cmp()),
        ] {
            let plain = run(&program, &mach, &px, IoState::default());
            let traced = run(
                &program,
                &mach,
                &px.clone().with_path_plan(Some(plan.clone())),
                IoState::default(),
            );
            // Observational: the architectural run is unchanged.
            assert_eq!(
                plain.taken_path_digest(&program),
                traced.taken_path_digest(&program)
            );
            assert_eq!(plain.cycles, traced.cycles);
            assert!(plain.path_coverage.is_none());
            let cov = traced.path_coverage.expect("plan attached");
            assert_eq!(cov.feasible_total() as usize, set.feasible_count());
            assert!(
                cov.covered_count() > 0,
                "a completed run traverses at least one prime path"
            );
        }
    }
}
