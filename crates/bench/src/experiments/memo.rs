//! NT-path memoization differential gate (experiment E18).
//!
//! The replay cache's contract is absolute: a memoized run must be
//! architecturally byte-identical to an unmemoized one — same exit, same
//! instruction and cycle counts, same monitor records, same coverage.
//! This module runs the full throughput workload matrix through the
//! standard engine — the only one with a replay cache (EXPERIMENTS.md
//! E18) — twice (replay cache on / off), compares the same architectural
//! digest `BENCH_throughput.json` gates on, and reads the cache's own
//! counters to prove the cache actually engaged (a gate that passes because
//! the cache never fired proves nothing).
//!
//! Everything here is deterministic — counters and digests, no wall clock —
//! so the emitted JSON is byte-stable and safe to diff in CI.

use pathexpander::{run_standard_decoded, run_standard_memo, standard_memo_table};
use px_isa::asm::assemble;
use px_isa::{DecodedProgram, Program};
use px_mach::{IoState, MachConfig};
use px_util::{Json, ToJson};

use super::perf::{px_arch_digest, px_config, zoo_program, WORKLOADS, ZOO_WORKLOADS};

/// Schema tag of the memo report (`bench_report --memo`). Bump on any
/// shape change.
pub const MEMO_SCHEMA: &str = "px-bench/memo-v1";

/// Minimum replay-cache hit rate the gate demands on `nt-heavy`. The
/// workload re-spawns one cold edge with a constant-register live-in set,
/// so nearly every spawn after the first must replay; in practice the
/// standard engine sits above 0.99, and anything under this floor means the
/// read-set validation or the fingerprint went wrong.
pub const MIN_NT_HEAVY_HIT_RATE: f64 = 0.90;

/// One workload's differential measurement.
#[derive(Debug, Clone)]
pub struct MemoRow {
    pub engine: String,
    pub workload: String,
    /// NT-paths spawned (memoized run).
    pub spawns: u64,
    /// Replay-cache counters of the memoized run.
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub stores: u64,
    pub evictions: u64,
    pub bypasses: u64,
    /// Recordings declined by the strike-based admission policy.
    pub skips: u64,
    /// `hits / (hits + misses + invalidations)`, 0 when nothing probed.
    pub hit_rate: f64,
    /// Architectural digest of the memoized run.
    pub digest: String,
    /// Whether the unmemoized run produced the same digest — the contract.
    pub identical: bool,
}

impl ToJson for MemoRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("engine", self.engine.to_json()),
            ("workload", self.workload.to_json()),
            ("spawns", self.spawns.to_json()),
            ("hits", self.hits.to_json()),
            ("misses", self.misses.to_json()),
            ("invalidations", self.invalidations.to_json()),
            ("stores", self.stores.to_json()),
            ("evictions", self.evictions.to_json()),
            ("bypasses", self.bypasses.to_json()),
            ("skips", self.skips.to_json()),
            (
                "hit_rate",
                Json::Float((self.hit_rate * 10_000.0).round() / 10_000.0),
            ),
            ("digest", self.digest.to_json()),
            ("identical", self.identical.to_json()),
        ])
    }
}

/// The E18 gate verdict over all rows.
#[derive(Debug, Clone)]
pub struct MemoGateReport {
    pub rows: Vec<MemoRow>,
    /// The `nt-heavy` hit rate.
    pub nt_heavy_hit_rate: f64,
}

impl MemoGateReport {
    /// Every digest identical, and the cache demonstrably engaged.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| r.identical) && self.nt_heavy_hit_rate >= MIN_NT_HEAVY_HIT_RATE
    }
}

impl ToJson for MemoGateReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", MEMO_SCHEMA.to_json()),
            (
                "rows",
                Json::Arr(self.rows.iter().map(ToJson::to_json).collect()),
            ),
            (
                "nt_heavy_hit_rate",
                Json::Float((self.nt_heavy_hit_rate * 10_000.0).round() / 10_000.0),
            ),
            ("min_nt_heavy_hit_rate", Json::Float(MIN_NT_HEAVY_HIT_RATE)),
            ("passed", self.passed().to_json()),
        ])
    }
}

/// Runs one workload through the standard engine twice — replay cache on
/// (explicit table, so the counters are readable) and off — and renders the
/// differential row.
fn memo_row(workload: &str, program: &Program, input: &[u8]) -> MemoRow {
    let dp = DecodedProgram::decode(program);
    let io = || IoState::new(input.to_vec(), 0xC0FFEE);
    let mach = MachConfig::single_core();
    let px = px_config();
    let mut table = standard_memo_table(program, &mach, &px);
    let on = run_standard_memo(program, &dp, &mach, &px, io(), &mut table);
    let off = run_standard_decoded(program, &dp, &mach, &px.with_nt_memo(false), io());
    let counters = table.counters;
    let digest = px_arch_digest(program, &on);
    MemoRow {
        engine: "standard".to_owned(),
        workload: workload.to_owned(),
        spawns: on.stats.spawns,
        hits: counters.hits,
        misses: counters.misses,
        invalidations: counters.invalidations,
        stores: counters.stores,
        evictions: counters.evictions,
        bypasses: counters.bypasses,
        skips: counters.skips,
        hit_rate: counters.hit_rate(),
        identical: digest == px_arch_digest(program, &off),
        digest,
    }
}

/// Runs the full differential matrix: every throughput workload through the
/// standard engine, replay cache on vs off.
#[must_use]
pub fn memo_gate() -> MemoGateReport {
    let mut rows = Vec::new();
    for (wname, src) in WORKLOADS {
        let program = assemble(src).unwrap_or_else(|e| panic!("perf workload {wname}: {e}"));
        rows.push(memo_row(wname, &program, &[]));
    }
    for spec in ZOO_WORKLOADS {
        let (program, input) = zoo_program(spec);
        rows.push(memo_row(spec, &program, &input));
    }
    let nt_heavy_hit_rate = rows
        .iter()
        .find(|r| r.workload == "nt-heavy")
        .map_or(0.0, |r| r.hit_rate);
    MemoGateReport {
        rows,
        nt_heavy_hit_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_gate_passes_and_is_deterministic() {
        let a = memo_gate();
        assert!(
            a.passed(),
            "digests must be identical and nt-heavy must replay: {:?}",
            a.rows
                .iter()
                .map(|r| (
                    r.engine.clone(),
                    r.workload.clone(),
                    r.identical,
                    r.hit_rate
                ))
                .collect::<Vec<_>>()
        );
        assert!(a.nt_heavy_hit_rate >= MIN_NT_HEAVY_HIT_RATE);
        let b = memo_gate();
        assert_eq!(
            a.to_json().dump(),
            b.to_json().dump(),
            "memo report must be byte-deterministic"
        );
        assert!(a
            .to_json()
            .dump()
            .starts_with(&format!(r#"{{"schema":"{MEMO_SCHEMA}""#)));
    }

    #[test]
    fn every_row_actually_probes_the_cache() {
        for r in memo_gate().rows {
            assert!(
                r.spawns > 0,
                "{}/{} must spawn NT-paths",
                r.engine,
                r.workload
            );
            assert!(
                r.hits + r.misses + r.invalidations + r.bypasses > 0,
                "{}/{} never touched the cache",
                r.engine,
                r.workload
            );
        }
    }
}
