//! The traced run: spans around every layer call, folded into the
//! per-layer metrics.

use std::path::Path;

use px_util::{hex64, Json, ToJson};

use crate::decompose::{self, Counts};
use crate::engines::{self, Engine, EngineSet};
use crate::measure::{median, percentile};
use crate::trace::{self, Breakdown, Span, Trace};
use crate::workload::Workload;

/// Every per-layer metric: name, unit, and the direction that is better.
pub const PER_LAYER: [(&str, &str, &str); 39] = [
    ("analyze.cfg_s", "s", "lower"),
    ("analyze.prime_paths_s", "s", "lower"),
    ("analyze.prime_paths_n", "count", "lower"),
    ("analyze.truncated_n", "count", "lower"),
    ("core.plan_paths_s", "s", "lower"),
    ("workloads.generate_s", "s", "lower"),
    ("lang.compile_s", "s", "lower"),
    ("isa.decode_s", "s", "lower"),
    ("detect.classify_s", "s", "lower"),
    ("core.memo_table_s", "s", "lower"),
    ("core.standard_s", "s", "lower"),
    ("core.spawns", "count", "higher"),
    ("core.nt_insn_share", "fraction", "lower"),
    ("core.cmp_s", "s", "lower"),
    ("core.skipped_outstanding", "count", "lower"),
    ("mach.baseline_s", "s", "lower"),
    ("soft.run_s", "s", "lower"),
    ("mach.path_trail_s", "s", "lower"),
    ("mach.memo_hit_rate", "fraction", "higher"),
    ("mach.memo_invalidation_rate", "fraction", "lower"),
    ("mach.memo_saved_s", "s", "higher"),
    ("campaign.cases", "count", "higher"),
    ("campaign.case_s.p50", "s", "lower"),
    ("campaign.case_s.p95", "s", "lower"),
    ("campaign.fault_case_s.baseline", "s", "lower"),
    ("campaign.fault_case_s.standard", "s", "lower"),
    ("campaign.fault_case_s.cmp", "s", "lower"),
    ("campaign.fault_case_s.feasibility", "s", "lower"),
    ("campaign.record_s", "s", "lower"),
    ("campaign.journal_append_s", "s", "lower"),
    ("campaign.journal_fsync_s", "s", "lower"),
    ("campaign.fold_s", "s", "lower"),
    ("campaign.failed_frac", "fraction", "lower"),
    ("campaign.parallel_efficiency", "fraction", "higher"),
    ("campaign.unattributed_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_frac", "fraction", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.spans", "count", "lower"),
];

/// What the traced run measured.
#[derive(Debug)]
pub struct Traced {
    /// Aggregate digest (campaign workloads) or row digest (engine runs).
    pub digest: u64,
    /// Traced wall time without the differential reruns, s.
    pub total_s: f64,
    /// Per-layer metrics; the parent adds the two that need untraced runs.
    pub layers: Vec<(&'static str, f64)>,
}

/// Runs the workload serially under a trace and writes its spans to
/// `spans_out` as NDJSON.
///
/// # Errors
///
/// Campaign I/O failures, as text.
pub fn run(w: Workload, seed: u64, journal: &Path, spans_out: &Path) -> Result<Traced, String> {
    let tr = Trace::new();
    let (digest, counts, failed_frac) = match w.parsed_manifest(seed) {
        Some(manifest) => {
            let d = decompose::run(&manifest, journal, &tr).map_err(|e| e.to_string())?;
            let _ = std::fs::remove_file(journal);
            let agg = &d.aggregate;
            let failed = agg.quarantined() as f64 / agg.total.max(1) as f64;
            (agg.digest(), d.counts, failed)
        }
        None => engine_round(w, seed, &tr),
    };
    let spans = tr.spans();
    std::fs::write(spans_out, trace::to_ndjson(&spans))
        .map_err(|e| format!("{}: {e}", spans_out.display()))?;
    let (total_s, layers) = layers(&spans, &counts, failed_frac);
    Ok(Traced {
        digest,
        total_s,
        layers,
    })
}

/// One traced round of every engine over the workload's programs,
/// including their set-up. Returns the row digest and counts.
fn engine_round(w: Workload, seed: u64, tr: &Trace) -> (u64, Counts, f64) {
    let mut counts = Counts::default();
    let mut rows = Vec::new();
    let (mut failed, mut runs) = (0u64, 0u64);
    tr.span("trace", || {
        let set = EngineSet::build(w, seed, Some(tr));
        for engine in Engine::ALL {
            for (i, p) in set.runs.iter().enumerate() {
                tr.set_case(i as u64);
                let a = tr.span(engine.span(), || engines::run(engine, &set, p));
                rows.push(a.digest());
                runs += 1;
                failed += u64::from(a.exit == "engine-fault");
                match engine {
                    Engine::Standard => {
                        counts.spawns += a.spawns;
                        counts.instructions += a.instructions;
                        counts.nt_instructions += a.nt_instructions;
                    }
                    Engine::Cmp => counts.skipped += a.skipped_outstanding,
                    Engine::Baseline | Engine::Software => {}
                }
            }
        }
    });
    let digest = rows
        .iter()
        .fold(0, |h, d| px_util::fnv1a64(h, &d.to_le_bytes()));
    (digest, counts, failed as f64 / runs.max(1) as f64)
}

fn layers(spans: &[Span], c: &Counts, failed_frac: f64) -> (f64, Vec<(&'static str, f64)>) {
    let b = Breakdown::of(spans);
    let diffed = b.total_ns.contains_key("diff.no_plan");
    let diff_s = b.total_s("diff.no_plan") + b.total_s("diff.memo_off");
    let total_s = b.total_s("trace") - diff_s;

    // Case durations net of their differential reruns.
    let mut diff_ns = vec![0u64; spans.len()];
    for s in spans {
        if let (Some(p), true) = (s.parent, s.name.starts_with("diff.")) {
            diff_ns[p] += s.dur();
        }
    }
    let cases: Vec<f64> = spans
        .iter()
        .zip(&diff_ns)
        .filter(|(s, _)| s.name == "campaign.case")
        .map(|(s, d)| (s.dur() - d) as f64 * 1e-9)
        .collect();
    let unattributed = b.self_s("trace") + b.self_s("campaign.case");
    let probes = c.memo.hits + c.memo.misses + c.memo.invalidations;
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let diff = |a: f64, b: f64| if diffed { a - b } else { 0.0 };

    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (name, _, _) in PER_LAYER {
        let v = match name {
            "analyze.prime_paths_n" => c.prime_paths as f64,
            "analyze.truncated_n" => c.truncated as f64,
            "core.spawns" => c.spawns as f64,
            "core.nt_insn_share" => ratio(c.nt_instructions, c.instructions),
            "core.skipped_outstanding" => c.skipped as f64,
            "mach.path_trail_s" => diff(b.total_s("core.standard"), b.total_s("diff.no_plan")),
            "mach.memo_hit_rate" => ratio(c.memo.hits, probes),
            "mach.memo_invalidation_rate" => ratio(c.memo.invalidations, probes),
            "mach.memo_saved_s" => diff(b.total_s("diff.memo_off"), b.total_s("core.standard")),
            "campaign.cases" => cases.len() as f64,
            "campaign.case_s.p50" => median(&cases),
            "campaign.case_s.p95" => percentile(&cases, 0.95),
            "campaign.failed_frac" => failed_frac,
            "campaign.unattributed_s" => unattributed,
            "trace.wall_s" => total_s,
            "trace.unattributed_frac" => unattributed / total_s.max(1e-9),
            "trace.spans" => spans.len() as f64,
            // Filled in by the parent from the untraced runs.
            "campaign.parallel_efficiency" | "trace.overhead_frac" => 0.0,
            // Every other metric is the self time of its span:
            // `core.standard_s` of `core.standard`, `campaign.fault_case_s.cmp`
            // of `campaign.fault_case.cmp`.
            other => {
                let span = other.strip_suffix("_s").unwrap_or(other);
                let span = span.replace("fault_case_s.", "fault_case.");
                b.self_s(&span)
            }
        };
        out.push((name, v));
    }
    (total_s, out)
}

/// The traced result as JSON for the parent.
#[must_use]
pub fn to_json(t: &Traced) -> Json {
    Json::obj([
        ("digest", hex64(t.digest).to_json()),
        ("total_s", t.total_s.to_json()),
        (
            "layers",
            Json::obj(t.layers.iter().map(|(k, v)| (*k, v.to_json()))),
        ),
    ])
}
