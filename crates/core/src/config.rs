//! PathExpander configuration — the paper's §6.3 parameters with a builder.

use std::sync::Arc;

use px_mach::PathPlan;

/// Which PathExpander implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Standard configuration (paper Figure 4(a)): one core, checkpoint at
    /// the branch, run the NT-path inline, roll back, resume the taken path.
    Standard,
    /// CMP optimization (paper Figure 4(b)): NT-paths execute on idle cores
    /// concurrently with the taken path.
    Cmp,
}

/// PathExpander's tunable parameters. `PxConfig::default()` reproduces the
/// paper's defaults for large applications (§6.3); use
/// [`PxConfig::siemens_defaults`] for the small Siemens benchmarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PxConfig {
    /// Standard configuration or CMP optimization.
    pub mode: Mode,
    /// Maximum instructions an NT-path may execute before termination
    /// (`MaxNTPathLength`: 1000 for large applications, 100 for Siemens).
    pub max_nt_path_len: u32,
    /// Spawn an NT-path only when the non-taken edge's exercise counter is
    /// below this (`NTPathCounterThreshold`, default 5).
    pub counter_threshold: u8,
    /// Reset all exercise counters every this many taken-path instructions
    /// (`CounterResetInterval`).
    pub counter_reset_interval: u64,
    /// Maximum outstanding NT-paths in the CMP option (`MaxNumNTPaths`,
    /// default 32). Ignored by the standard configuration, which runs one
    /// NT-path at a time by construction.
    pub max_outstanding: u32,
    /// Execute the compiler's predicated variable-fixing instructions at
    /// NT-path entry (paper §4.4). Disabled for the "before fixing" columns
    /// of Table 5 and for the Figure 3 feasibility measurements.
    pub apply_fixes: bool,
    /// Ablation (paper §4.2(3)): also force non-taken edges at branches
    /// encountered *inside* an NT-path. The paper measured +2% coverage but a
    /// 5%→16% early-crash ratio on gzip and rejected the idea.
    pub explore_nt_from_nt: bool,
    /// Extension (paper §3.2 future work): OS support for sandboxing unsafe
    /// events. When enabled, NT-paths execute system calls against a
    /// disposable I/O snapshot taken at spawn instead of stopping — the
    /// paper projected "more than 90% of NT-Paths may potentially execute up
    /// to 1000 instructions" with this support.
    pub os_sandbox_unsafe: bool,
    /// Extension (paper §7.1(2) remedy): a random factor in NT-path
    /// selection. `Some(n)` spawns from a hot edge (counter at or above the
    /// threshold) anyway roughly one time in `n`, deterministically seeded —
    /// this is what exposes hot-entry escapes like bc's second bug.
    pub random_factor: Option<u32>,
    /// Extension (static-analysis assist): veto NT-path spawns whose edge
    /// is *guaranteed* by px-analyze's NT-safety classification to hit an
    /// unsafe event within fewer than this many instructions. `Some(k)`
    /// consults the precomputed per-edge must-reach distances — a doomed
    /// spawn buys no coverage the taken path cannot, so skipping it saves
    /// the spawn/squash cycles outright. `None` (the default) preserves the
    /// paper's purely dynamic selection bit-for-bit.
    pub static_nt_filter: Option<u32>,
    /// Safety valve: stop the whole run after this many retired instructions
    /// (taken + NT).
    pub max_instructions: u64,
    /// Watchdog: squash any single NT-path spawn cascade after this many
    /// retired instructions regardless of `max_nt_path_len`. A
    /// belt-and-braces bound — with fault injection, redirect faults can
    /// turn a short path into a runaway loop; the watchdog guarantees the
    /// taken path always regains the core.
    pub nt_watchdog: u64,
    /// NT-path memoization in the standard engine (the replay cache in
    /// `px_mach::memo`; the CMP engine always simulates): record each NT
    /// path's live-in read set and effect bundle, and replay the bundle —
    /// skipping re-simulation — when a later spawn's live-ins match.
    /// Purely a simulator-performance lever: every architectural digest is
    /// byte-identical with it on or off (`memo_gate` enforces this).
    /// Automatically bypassed for runs with a fault injector, the
    /// OS-sandbox extension, or NT-from-NT exploration, whose NT paths are
    /// not pure functions of their read sets.
    pub nt_memo: bool,
    /// Prime-path coverage plan (see px-analyze's `PrimePathSet` and
    /// `pathexpander::plan_paths`). `Some` makes the engines match block
    /// traces — taken and NT — against the enumerated prime paths and
    /// report a `PathCoverage` in the result. Purely observational: the
    /// run's architectural behaviour and digests are byte-identical with
    /// or without a plan. `None` (the default) costs nothing.
    pub path_plan: Option<Arc<PathPlan>>,
}

impl Default for PxConfig {
    fn default() -> PxConfig {
        PxConfig {
            mode: Mode::Standard,
            max_nt_path_len: 1000,
            counter_threshold: 5,
            counter_reset_interval: 1_000_000,
            max_outstanding: 32,
            apply_fixes: true,
            explore_nt_from_nt: false,
            os_sandbox_unsafe: false,
            random_factor: None,
            static_nt_filter: None,
            max_instructions: 500_000_000,
            nt_watchdog: 1_000_000,
            nt_memo: true,
            path_plan: None,
        }
    }
}

impl PxConfig {
    /// The paper's defaults for the small Siemens benchmarks
    /// (`MaxNTPathLength` = 100, §6.3).
    #[must_use]
    pub fn siemens_defaults() -> PxConfig {
        PxConfig {
            max_nt_path_len: 100,
            ..PxConfig::default()
        }
    }

    /// Switches to the CMP optimization.
    #[must_use]
    pub fn cmp(mut self) -> PxConfig {
        self.mode = Mode::Cmp;
        self
    }

    /// Sets `MaxNTPathLength`.
    #[must_use]
    pub fn with_max_nt_path_len(mut self, len: u32) -> PxConfig {
        self.max_nt_path_len = len;
        self
    }

    /// Sets `NTPathCounterThreshold`.
    #[must_use]
    pub fn with_counter_threshold(mut self, t: u8) -> PxConfig {
        self.counter_threshold = t;
        self
    }

    /// Sets `CounterResetInterval`.
    #[must_use]
    pub fn with_counter_reset_interval(mut self, interval: u64) -> PxConfig {
        self.counter_reset_interval = interval;
        self
    }

    /// Sets `MaxNumNTPaths` (CMP option).
    #[must_use]
    pub fn with_max_outstanding(mut self, n: u32) -> PxConfig {
        self.max_outstanding = n.max(1);
        self
    }

    /// Enables or disables the §4.4 variable fixing.
    #[must_use]
    pub fn with_fixes(mut self, apply: bool) -> PxConfig {
        self.apply_fixes = apply;
        self
    }

    /// Enables the §4.2(3) explore-from-NT ablation.
    #[must_use]
    pub fn with_explore_nt_from_nt(mut self, enable: bool) -> PxConfig {
        self.explore_nt_from_nt = enable;
        self
    }

    /// Enables the §3.2 OS-sandbox extension for unsafe events.
    #[must_use]
    pub fn with_os_sandbox(mut self, enable: bool) -> PxConfig {
        self.os_sandbox_unsafe = enable;
        self
    }

    /// Enables the §7.1(2) random spawn factor (roughly 1-in-`n` spawns from
    /// hot edges).
    #[must_use]
    pub fn with_random_factor(mut self, one_in: Option<u32>) -> PxConfig {
        self.random_factor = one_in.filter(|&n| n > 0);
        self
    }

    /// Sets the static NT-spawn veto threshold (see
    /// [`PxConfig::static_nt_filter`]). `Some(0)` never vetoes anything and
    /// is normalised to `None`.
    #[must_use]
    pub fn with_static_nt_filter(mut self, threshold: Option<u32>) -> PxConfig {
        self.static_nt_filter = threshold.filter(|&k| k > 0);
        self
    }

    /// Sets the total instruction budget.
    #[must_use]
    pub fn with_max_instructions(mut self, n: u64) -> PxConfig {
        self.max_instructions = n;
        self
    }

    /// Sets the per-cascade NT watchdog (clamped to at least 1).
    #[must_use]
    pub fn with_nt_watchdog(mut self, n: u64) -> PxConfig {
        self.nt_watchdog = n.max(1);
        self
    }

    /// Enables or disables the standard engine's NT-path memoization.
    #[must_use]
    pub fn with_nt_memo(mut self, enable: bool) -> PxConfig {
        self.nt_memo = enable;
        self
    }

    /// Attaches (or removes) a prime-path coverage plan.
    #[must_use]
    pub fn with_path_plan(mut self, plan: Option<Arc<PathPlan>>) -> PxConfig {
        self.path_plan = plan;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_section_6_3() {
        let c = PxConfig::default();
        assert_eq!(c.max_nt_path_len, 1000);
        assert_eq!(c.counter_threshold, 5);
        assert_eq!(c.max_outstanding, 32);
        assert!(c.apply_fixes);
        assert!(!c.explore_nt_from_nt);
        assert_eq!(c.static_nt_filter, None, "paper mode: no static veto");
        assert!(c.nt_memo, "memoization is on by default");
        assert_eq!(PxConfig::siemens_defaults().max_nt_path_len, 100);
    }

    #[test]
    fn builder_chains() {
        let c = PxConfig::default()
            .cmp()
            .with_max_nt_path_len(10)
            .with_counter_threshold(1)
            .with_max_outstanding(0)
            .with_fixes(false)
            .with_explore_nt_from_nt(true)
            .with_counter_reset_interval(5)
            .with_static_nt_filter(Some(8))
            .with_nt_memo(false)
            .with_max_instructions(99);
        assert_eq!(c.mode, Mode::Cmp);
        assert_eq!(c.max_nt_path_len, 10);
        assert_eq!(c.counter_threshold, 1);
        assert_eq!(c.max_outstanding, 1, "clamped to at least one");
        assert!(!c.apply_fixes);
        assert!(c.explore_nt_from_nt);
        assert_eq!(c.counter_reset_interval, 5);
        assert_eq!(c.static_nt_filter, Some(8));
        assert!(!c.nt_memo);
        assert_eq!(
            PxConfig::default()
                .with_static_nt_filter(Some(0))
                .static_nt_filter,
            None,
            "zero threshold normalises to off"
        );
        assert_eq!(c.max_instructions, 99);
    }
}
