//! **E17 — the prime-path coverage gate** (metric integrity; not from the
//! paper).
//!
//! End-to-end proof that the prime-path coverage metric is trustworthy at
//! campaign scale:
//!
//! 1. **Enumeration is deterministic, bounded and pinned.** Every zoo
//!    roster program (each family compiled for each tool) has its
//!    [`px_analyze::PrimePathSet`] enumerated twice; the JSON renderings
//!    must be byte-identical, the whole sweep must finish inside a hard
//!    wall-time budget (the caps in `PathLimits` are what make this bound
//!    safe to enforce), and the combined digest must equal
//!    [`ROSTER_DIGEST`] — two runs that are wrong the same way fail it.
//! 2. **The metric survives the campaign machinery.** The
//!    `zoo-roster:quick` manifest is run twice — serial (1 worker) and
//!    parallel (4 workers) — and both aggregate digests, which fold the
//!    per-case prime-path shards, must be byte-identical.
//! 3. **Shard merges commute.** The serial leg's journal records are
//!    re-folded forward and reverse; both aggregates must reproduce the
//!    campaign digest exactly, with at least one merged prime shard and a
//!    nonzero covered count.
//!
//! `prime_path_gate` is the library entry; the `prime_path_gate` binary
//! wires it to `--check` for scripts/verify.sh and CI.

use std::time::Instant;

use px_analyze::Analysis;
use px_campaign::{journal, run, Aggregate, CampaignConfig, Manifest};
use px_detect::Tool;
use px_util::{fnv1a64, hex64, Json, ToJson};
use px_workloads::zoo;

/// The gate manifest: every quick-roster family through the campaign pool.
pub const GATE_MANIFEST: &str = "zoo-roster:quick";

/// Hard wall-time budget for enumerating the whole roster **twice**, in
/// milliseconds. `PathLimits` caps per-program work, so the sweep cost is
/// linear in roster size; this bound is generous for release builds and is
/// the gate's defence against an accidentally exponential enumerator.
pub const ENUM_BUDGET_MS: u64 = 5_000;

/// The pinned combined roster enumeration digest: FNV-1a-64, from seed 0,
/// of each `PrimePathSet::digest()` as little-endian bytes, over
/// `zoo::roster()` × `Tool::ALL` in that order. Any change to what
/// enumeration computes — limits, worklist order, maximality,
/// feasibility, the set digest itself — moves it.
pub const ROSTER_DIGEST: u64 = 0xacc0_dc39_0e27_8c97;

/// What E17 measured.
#[derive(Debug, Clone)]
pub struct PrimePathGateReport {
    /// The manifest exercised.
    pub manifest: String,
    /// Total campaign cases.
    pub total: u64,
    /// Roster families enumerated.
    pub families: u64,
    /// Wall time of the double enumeration sweep, in milliseconds.
    pub enum_ms: u64,
    /// The budget `enum_ms` is held to.
    pub enum_budget_ms: u64,
    /// Both enumeration sweeps rendered byte-identical JSON per family.
    pub enum_deterministic: bool,
    /// Roster programs (family × tool) whose enumeration hit a cap
    /// (informational).
    pub truncated_programs: u64,
    /// Combined enumeration digest of the roster (see [`ROSTER_DIGEST`]).
    pub roster_digest: u64,
    /// Aggregate digest of the 1-worker campaign leg.
    pub digest_serial: u64,
    /// Aggregate digest of the 4-worker campaign leg.
    pub digest_parallel: u64,
    /// Distinct program keys carrying merged prime-path shards.
    pub prime_keys: u64,
    /// Prime paths covered, summed over merged shards.
    pub prime_covered: u64,
    /// Re-folding the journal forward and reverse reproduced the digest.
    pub merge_commutes: bool,
}

impl PrimePathGateReport {
    /// The acceptance criteria, as one predicate.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.enum_deterministic
            && self.roster_digest == ROSTER_DIGEST
            && self.enum_ms <= self.enum_budget_ms
            && self.digest_serial == self.digest_parallel
            && self.merge_commutes
            && self.prime_keys > 0
            && self.prime_covered > 0
    }

    /// The report as canonical JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", "px-bench/prime-path-gate-v1".to_json()),
            ("manifest", self.manifest.to_json()),
            ("total", self.total.to_json()),
            ("families", self.families.to_json()),
            ("enum_ms", self.enum_ms.to_json()),
            ("enum_budget_ms", self.enum_budget_ms.to_json()),
            ("enum_deterministic", self.enum_deterministic.to_json()),
            ("truncated_programs", self.truncated_programs.to_json()),
            ("roster_digest", Json::Str(hex64(self.roster_digest))),
            ("roster_digest_pin", Json::Str(hex64(ROSTER_DIGEST))),
            ("digest_serial", Json::Str(hex64(self.digest_serial))),
            ("digest_parallel", Json::Str(hex64(self.digest_parallel))),
            ("prime_keys", self.prime_keys.to_json()),
            ("prime_covered", self.prime_covered.to_json()),
            ("merge_commutes", self.merge_commutes.to_json()),
            ("passed", self.passed().to_json()),
        ])
    }
}

/// One enumeration sweep over the roster: per-program `PrimePathSet`
/// JSON (the determinism witness), the truncation count and the combined
/// digest [`ROSTER_DIGEST`] pins.
fn enumerate_roster() -> (Vec<String>, u64, u64) {
    let mut renders = Vec::new();
    let mut truncated = 0u64;
    let mut digest = 0u64;
    for spec in zoo::roster() {
        let w = zoo::generate(&spec);
        for tool in Tool::ALL {
            let compiled = w
                .compile_for(tool)
                .unwrap_or_else(|e| panic!("{spec} ({}): {e}", tool.name()));
            let set = Analysis::of(&compiled.program).prime_paths(&compiled.program);
            truncated += u64::from(set.truncated());
            digest = fnv1a64(digest, &set.digest().to_le_bytes());
            renders.push(set.to_json().dump());
        }
    }
    (renders, truncated, digest)
}

/// Runs the E17 gate on `manifest_spec` with an explicit enumeration
/// budget. Journals live under the system temp directory, namespaced by
/// pid, and are removed on success.
///
/// # Panics
///
/// On manifest, campaign or journal errors (the gate is a test harness;
/// its own failures should be loud).
#[must_use]
pub fn prime_path_gate_with(manifest_spec: &str, enum_budget_ms: u64) -> PrimePathGateReport {
    // Leg 1: double enumeration sweep under the wall-time budget.
    let t0 = Instant::now();
    let (first, truncated_programs, roster_digest) = enumerate_roster();
    let (second, _, _) = enumerate_roster();
    let enum_ms = u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX);
    let enum_deterministic = first == second;
    let families = zoo::roster().len() as u64;

    // Leg 2: the campaign, serial and parallel.
    let manifest = Manifest::parse(manifest_spec).unwrap_or_else(|e| panic!("gate manifest: {e}"));
    let total = manifest.total();
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let mut reports = Vec::new();
    let mut paths = Vec::new();
    for (tag, workers) in [("serial", 1usize), ("parallel", 4usize)] {
        let path = tmp.join(format!("px-prime-gate-{pid}-{tag}.ndjson"));
        let _ = std::fs::remove_file(&path);
        let mut q = path.as_os_str().to_owned();
        q.push(".quarantine");
        let _ = std::fs::remove_file(std::path::PathBuf::from(q));
        let mut cfg = CampaignConfig::new(manifest.clone(), path.clone());
        cfg.workers = workers;
        let report = run(&cfg).unwrap_or_else(|e| panic!("{tag} leg: {e}"));
        assert!(report.complete(), "{tag} leg must finish");
        reports.push(report);
        paths.push(path);
    }

    // Leg 3: re-fold the serial journal forward and reverse.
    let records = journal::load(&paths[0])
        .unwrap_or_else(|e| panic!("serial journal: {e}"))
        .records;
    let mut forward = Aggregate::default();
    let mut reverse = Aggregate::default();
    for r in &records {
        forward
            .absorb(r)
            .unwrap_or_else(|e| panic!("forward fold: {e}"));
    }
    for r in records.iter().rev() {
        reverse
            .absorb(r)
            .unwrap_or_else(|e| panic!("reverse fold: {e}"));
    }
    let digest_serial = reports[0].digest();
    let merge_commutes = forward.digest() == digest_serial && reverse.digest() == digest_serial;

    let report = PrimePathGateReport {
        manifest: manifest.to_string(),
        total,
        families,
        enum_ms,
        enum_budget_ms,
        enum_deterministic,
        truncated_programs,
        roster_digest,
        digest_serial,
        digest_parallel: reports[1].digest(),
        prime_keys: reports[0].aggregate.prime.len() as u64,
        prime_covered: reports[0]
            .aggregate
            .prime
            .values()
            .map(|c| u64::from(c.covered_count()))
            .sum(),
        merge_commutes,
    };
    if report.passed() {
        for p in &paths {
            let _ = std::fs::remove_file(p);
            let mut q = p.as_os_str().to_owned();
            q.push(".quarantine");
            let _ = std::fs::remove_file(std::path::PathBuf::from(q));
        }
    }
    report
}

/// The standard E17 gate: [`GATE_MANIFEST`] under [`ENUM_BUDGET_MS`].
#[must_use]
pub fn prime_path_gate() -> PrimePathGateReport {
    prime_path_gate_with(GATE_MANIFEST, ENUM_BUDGET_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_gate_passes() {
        // The CI gate at test scale: a two-family zoo manifest instead of
        // the full roster campaign, with a debug-build-friendly budget.
        let report = prime_path_gate_with("zoo:parser:3*2+zoo:recursive:4*2", 60_000);
        assert!(report.passed(), "gate failed: {}", report.to_json().dump());
        assert!(report.prime_keys >= 2, "both families carry shards");
        assert_eq!(report.digest_serial, report.digest_parallel);
    }
}
