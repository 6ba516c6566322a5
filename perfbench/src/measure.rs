//! The measured phases. Each runs in a fresh child process, so per-process
//! caches start empty, and returns one JSON object for the parent.

use std::path::Path;
use std::time::Instant;

use pathexpander::plan_paths;
use px_analyze::Analysis;
use px_campaign::{Aggregate, CampaignConfig, Manifest};
use px_isa::DecodedProgram;
use px_util::{fnv1a64, hex64, Json, ToJson};
use px_workloads::zoo::{self, ZooSpec};

use crate::engines::{self, tool_of, Engine, EngineSet, Modelled};
use crate::workload::Workload;

/// Peak resident set of this process, MB (`VmHWM`); 0 where unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `xs` (0 for an empty slice).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 1]` of `xs` (0 when empty).
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Host time to build everything the workload's timed phases run:
/// generate, compile, plan (zoo campaign workloads) and decode every
/// program, plus the engine-run inputs.
#[must_use]
pub fn setup(w: Workload, seed: u64) -> f64 {
    let t = Instant::now();
    let manifest = w.parsed_manifest(seed);
    if w.plans() {
        for (spec, tool) in w.programs(seed) {
            let wl = zoo::generate(&spec);
            let compiled = wl
                .compile_for(tool)
                .unwrap_or_else(|e| panic!("{} ({}): {e}", wl.name, tool.name()));
            let program = &compiled.program;
            let plan = plan_paths(&Analysis::of(program).prime_paths(program));
            let dp = DecodedProgram::decode(program);
            std::hint::black_box((plan.is_ok(), dp.len(), wl.general_input(1)));
        }
    } else {
        std::hint::black_box(EngineSet::build(w, seed, None));
    }
    std::hint::black_box(manifest);
    t.elapsed().as_secs_f64()
}

/// One untraced campaign and what it produced.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// Host wall time of `px_campaign::run`, s.
    pub wall_s: f64,
    /// Cases in the manifest.
    pub total: u64,
    /// Panicked, timed-out and violated cases.
    pub failed: u64,
    /// Aggregate digest.
    pub digest: u64,
    /// The aggregate.
    pub aggregate: Aggregate,
}

/// Runs `manifest` as a fresh campaign with `workers` workers.
///
/// # Errors
///
/// Campaign I/O failures, as text.
pub fn campaign(
    manifest: &Manifest,
    journal: &Path,
    workers: usize,
) -> Result<CampaignRun, String> {
    let mut cfg = CampaignConfig::new(manifest.clone(), journal.to_path_buf());
    cfg.workers = workers;
    cfg.resume = false;
    let t = Instant::now();
    let report = px_campaign::run(&cfg).map_err(|e| e.to_string())?;
    let wall_s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(journal);
    let _ = std::fs::remove_file(cfg.quarantine_path());
    if !report.complete() {
        return Err(format!("campaign `{manifest}` stopped early"));
    }
    Ok(CampaignRun {
        wall_s,
        total: report.total,
        failed: report.aggregate.quarantined(),
        digest: report.digest(),
        aggregate: report.aggregate,
    })
}

/// Detections and merged coverage of a zoo campaign's aggregate.
///
/// # Panics
///
/// When a coverage key does not name a generated program.
#[must_use]
fn campaign_modelled(agg: &Aggregate) -> Modelled {
    let mut m = Modelled {
        bugs: agg.detections,
        ..Modelled::default()
    };
    for (key, cov) in &agg.coverage {
        let spec = ZooSpec::parse(key.rsplit_once('/').map_or("", |(s, _)| s))
            .expect("coverage keys name zoo programs");
        let tool = tool_of(key);
        let compiled = zoo::generate(&spec)
            .compile_for(tool)
            .expect("roster programs compile");
        m.covered_edges += u64::from(cov.covered_edges(&compiled.program));
        m.static_edges += u64::from(compiled.program.static_edge_count());
    }
    for cov in agg.prime.values() {
        m.prime_covered += u64::from(cov.covered_count());
        m.prime_feasible += u64::from(cov.feasible_total());
    }
    m
}

fn modelled_json(m: &Modelled) -> Json {
    Json::obj([
        ("bugs", m.bugs.to_json()),
        ("edge_coverage", m.edge_coverage().to_json()),
        ("prime_path_coverage", m.prime_path_coverage().to_json()),
    ])
}

/// The campaign child: one 2-worker (or `workers`) campaign of the
/// workload, in this fresh process.
///
/// # Errors
///
/// As [`campaign`].
pub fn campaign_child(
    w: Workload,
    seed: u64,
    journal: &Path,
    workers: usize,
) -> Result<Json, String> {
    let manifest = w
        .parsed_manifest(seed)
        .ok_or_else(|| format!("{} runs no campaign", w.name()))?;
    let run = campaign(&manifest, journal, workers)?;
    let rss = peak_rss_mb();
    let mut pairs = vec![
        ("wall_s", run.wall_s.to_json()),
        ("total", run.total.to_json()),
        ("failed", run.failed.to_json()),
        ("digest", hex64(run.digest).to_json()),
        ("rss_mb", rss.to_json()),
    ];
    if !run.aggregate.coverage.is_empty() {
        pairs.push((
            "modelled",
            modelled_json(&campaign_modelled(&run.aggregate)),
        ));
    }
    Ok(Json::obj(pairs))
}

fn floats(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(ToJson::to_json).collect())
}

/// The engine child: rounds of every engine over every program of the
/// workload, for at least `seconds` and `min_rounds` rounds. Reports each
/// round's MIPS per engine and runs per second.
#[must_use]
pub fn probe_child(w: Workload, seed: u64, seconds: f64, min_rounds: usize) -> Json {
    let t_build = Instant::now();
    let set = EngineSet::build(w, seed, None);
    let build_s = t_build.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut mips: Vec<Vec<f64>> = vec![Vec::new(); Engine::ALL.len()];
    let mut runs_per_s = Vec::new();
    let mut first_round_s = 0.0;
    let mut rows: Vec<u64> = Vec::new();
    let mut deterministic = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let mut round_ns = 0u128;
        let mut row = 0;
        for (e, engine) in Engine::ALL.into_iter().enumerate() {
            let mut instructions = 0u64;
            let t = Instant::now();
            for p in &set.runs {
                let arch = std::hint::black_box(engines::run(engine, &set, p));
                instructions += arch.instructions;
                attempted += 1;
                failed += u64::from(arch.exit == "engine-fault");
                let d = arch.digest();
                if rounds == 0 {
                    rows.push(d);
                } else if rows[row] != d {
                    deterministic = false;
                }
                row += 1;
            }
            let ns = t.elapsed().as_nanos().max(1);
            round_ns += ns;
            mips[e].push(instructions as f64 * 1e3 / ns as f64);
        }
        let runs = (Engine::ALL.len() * set.runs.len()) as f64;
        runs_per_s.push(runs * 1e9 / round_ns as f64);
        if rounds == 0 {
            first_round_s = round_ns as f64 * 1e-9;
        }
        rounds += 1;
    }
    let rss = peak_rss_mb();
    let rows_digest = rows.iter().fold(0, |h, d| fnv1a64(h, &d.to_le_bytes()));
    let mut pairs = vec![
        ("build_s", build_s.to_json()),
        ("first_round_s", first_round_s.to_json()),
        ("rounds", (rounds as u64).to_json()),
        ("runs_per_s", floats(&runs_per_s)),
        (
            "mips",
            Json::obj(
                Engine::ALL
                    .iter()
                    .zip(&mips)
                    .map(|(e, v)| (e.name(), floats(v))),
            ),
        ),
        ("rows_digest", hex64(rows_digest).to_json()),
        ("deterministic", deterministic.to_json()),
        ("attempted", attempted.to_json()),
        ("failed", failed.to_json()),
        ("rss_mb", rss.to_json()),
    ];
    if !w.plans() {
        pairs.push(("modelled", modelled_json(&engines::modelled(&set))));
    }
    Json::obj(pairs)
}
