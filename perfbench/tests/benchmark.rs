//! The benchmark's own tests: its metric table, its workload generators,
//! and the two cross-checks its outputs rest on (traced digest = campaign
//! digest; failures counted as they happen).

use std::path::{Path, PathBuf};

use px_campaign::runner::chaos_truth;
use px_campaign::{CaseOutcome, Manifest};
use px_perfbench::engines::{self, Engine, EngineSet};
use px_perfbench::trace::Trace;
use px_perfbench::traced::PER_LAYER;
use px_perfbench::workload::{roster_specs, Workload};
use px_perfbench::{decompose, measure, END_TO_END, PINS};
use px_util::json::parse;
use px_util::Json;

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()))
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn arr<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.get(key) {
        Some(Json::Arr(v)) => v,
        _ => panic!("`{key}` is not an array"),
    }
}

fn s<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing"))
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let b = parse(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let e2e = arr(&b, "end_to_end");
    let layers = arr(&b, "per_layer");
    assert!(
        (1..=16).contains(&e2e.len()),
        "{} end-to-end metrics",
        e2e.len()
    );
    assert!(
        (1..=128).contains(&layers.len()),
        "{} per-layer metrics",
        layers.len()
    );
    for (got, want) in e2e.iter().zip(END_TO_END) {
        assert_eq!((s(got, "name"), s(got, "unit"), s(got, "better")), want);
    }
    assert_eq!(e2e.len(), END_TO_END.len());
    for (got, want) in layers.iter().zip(PER_LAYER) {
        assert_eq!((s(got, "name"), s(got, "unit"), s(got, "better")), want);
    }
    assert_eq!(layers.len(), PER_LAYER.len());
    let mut seen = std::collections::HashSet::new();
    for m in e2e.iter().chain(layers) {
        let name = s(m, "name");
        assert!(valid_name(name), "bad metric name `{name}`");
        assert!(seen.insert(name), "metric `{name}` used twice");
    }
    let workloads: Vec<&str> = arr(&b, "workloads").iter().map(|w| s(w, "name")).collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
}

#[test]
fn layer_map_names_only_known_metrics_and_workloads() {
    let map = parse(&repo_file("perfbench/layers.json")).expect("layers.json parses");
    let Json::Arr(rows) = map.get("map").expect("`map` present") else {
        panic!("`map` is not an array")
    };
    let known_layer = |n: &str| PER_LAYER.iter().any(|(m, _, _)| *m == n);
    let known_e2e = |n: &str| END_TO_END.iter().any(|(m, _, _)| *m == n);
    let mut covered = std::collections::HashSet::new();
    for row in rows {
        for l in arr(row, "layers") {
            let l = l.as_str().expect("layer names are strings");
            assert!(known_layer(l), "unknown layer metric `{l}`");
            covered.insert(l.to_owned());
        }
        for side in ["moves", "flat"] {
            let Some(Json::Obj(by_workload)) = row.get(side) else {
                panic!("`{side}` is not an object")
            };
            for (w, metrics) in by_workload {
                assert!(Workload::parse(w).is_some(), "unknown workload `{w}`");
                let Json::Arr(metrics) = metrics else {
                    panic!("`{side}.{w}` is not an array")
                };
                for m in metrics {
                    let m = m.as_str().expect("metric names are strings");
                    assert!(known_e2e(m), "unknown end-to-end metric `{m}`");
                }
            }
        }
    }
    for (name, _, _) in PER_LAYER {
        assert!(
            covered.contains(name),
            "layer `{name}` missing from the map"
        );
    }
}

#[test]
fn default_seed_reproduces_the_reference_manifests() {
    assert_eq!(Workload::RosterCold.manifest(1).unwrap(), "zoo-roster");
    assert_eq!(
        Workload::RosterRepeat.manifest(1).unwrap(),
        "zoo:interpreter:1*32+zoo:parser:2*32+zoo:state-machine:3*32+zoo:recursive:4*32"
    );
    assert_eq!(Workload::FaultSwarm.manifest(1).unwrap(), "fault:1:3000");
    assert_eq!(Workload::EngineMatrix.manifest(1), None);
    assert_eq!(
        Workload::RosterRepeat.manifest(9).unwrap(),
        "zoo:interpreter:9*32+zoo:parser:10*32+zoo:state-machine:11*32+zoo:recursive:12*32"
    );
    assert_eq!(Workload::FaultSwarm.manifest(9).unwrap(), "fault:9:3000");
    for w in Workload::ALL {
        if w != Workload::EngineMatrix {
            assert_ne!(
                w.manifest(9),
                w.manifest(10),
                "{} varies with its seed",
                w.name()
            );
        }
    }
}

#[test]
fn roster_cold_seeds_move_the_roster_to_new_structure_seeds() {
    let roster = px_workloads::zoo::roster();
    assert_eq!(roster_specs(1), roster);
    let moved = roster_specs(7);
    assert_eq!(moved.len(), 28);
    for (m, r) in moved.iter().zip(&roster) {
        assert_eq!((m.shape, m.size, m.mix), (r.shape, r.size, r.mix));
        assert_eq!(m.seed, r.seed + 42, "seed 7 takes structure seeds 43..=49");
    }
    let manifest = Workload::RosterCold.parsed_manifest(7).unwrap();
    assert_eq!(manifest.total(), 84);
    let first = moved[0].to_string();
    assert!(
        Workload::RosterCold
            .manifest(7)
            .unwrap()
            .starts_with(&first),
        "the manifest lists the moved roster in order"
    );
}

#[test]
fn traced_digest_equals_the_campaign_digest() {
    let manifest = Manifest::parse("zoo:parser:2*2+fault:3:16").unwrap();
    let run = measure::campaign(&manifest, &tmp("campaign"), 2).unwrap();
    let tr = Trace::new();
    let traced = decompose::run(&manifest, &tmp("traced"), &tr).unwrap();
    assert_eq!(traced.aggregate.digest(), run.digest);
    let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
    for layer in [
        "analyze.prime_paths",
        "core.standard",
        "diff.no_plan",
        "campaign.fold",
    ] {
        assert!(names.contains(&layer), "no `{layer}` span");
    }
}

#[test]
fn failed_fraction_counts_chaos_failures() {
    let manifest = Manifest::parse("chaos:5:24").unwrap();
    let run = measure::campaign(&manifest, &tmp("chaos"), 2).unwrap();
    let truth = chaos_truth(5, 24);
    let want = truth.iter().filter(|o| **o != CaseOutcome::Done).count() as u64;
    assert!(want > 0, "the chaos mix has failures");
    assert_eq!(run.total, 24);
    assert_eq!(run.failed, want);
}

#[test]
fn engine_matrix_rows_reproduce_e13() {
    let bench = parse(&repo_file("BENCH_throughput.json")).expect("BENCH parses");
    let set = EngineSet::build(Workload::EngineMatrix, 1, None);
    for engine in Engine::ALL {
        for p in &set.runs {
            let workload = p.key.rsplit_once('/').unwrap().0;
            let want = arr(&bench, "rows")
                .iter()
                .find(|r| s(r, "engine") == engine.name() && s(r, "workload") == workload)
                .map(|r| s(r, "digest"))
                .unwrap_or_else(|| panic!("no E13 row {} {workload}", engine.name()));
            let got = px_util::hex64(engines::run(engine, &set, p).digest());
            assert_eq!(got, want, "{} on {workload}", engine.name());
        }
    }
}

#[test]
fn pins_name_known_workloads() {
    let pins = parse(PINS).expect("pins.json parses");
    for section in ["campaign", "rows"] {
        let Some(Json::Obj(entries)) = pins.get(section) else {
            panic!("`{section}` is not an object")
        };
        for (w, _) in entries {
            assert!(Workload::parse(w).is_some(), "unknown workload `{w}`");
        }
    }
    assert_eq!(
        pins.get("campaign")
            .and_then(|c| c.get("roster-cold"))
            .and_then(|r| r.get("1"))
            .and_then(Json::as_str),
        Some("92d17f03288e9958")
    );
}
