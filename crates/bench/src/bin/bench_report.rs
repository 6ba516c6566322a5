//! Measures simulated instructions/second per engine (experiment E13) and
//! emits `BENCH_throughput.json` — the repo's perf trajectory.
//!
//! ```text
//! bench_report [--quick] [--json] [--out PATH] [--verify PATH]
//! ```
//!
//! `--quick` lowers the timed repetitions (1 instead of 3); the
//! architectural digests are identical in both modes. `--verify PATH`
//! checks that an existing report (the committed `BENCH_throughput.json`)
//! carries the current schema tag and the same architectural digest as a
//! fresh run — the CI gate. Wall-clock numbers are never compared.

use px_bench::experiments::memo::memo_gate;
use px_bench::experiments::perf::{profile_report, throughput_report, SCHEMA};
use px_bench::fmt::render_table;
use px_util::ToJson;

fn usage() -> ! {
    eprintln!(
        "usage: bench_report [--quick] [--no-memo] [--json] [--out PATH] [--verify PATH]\n\
         \x20      bench_report --engine cmp --profile [--out PATH]\n\
         \x20      bench_report --memo [--json] [--out PATH]\n\
         \n\
         --quick        one timed repetition per row instead of three\n\
         --no-memo      disable the NT-path replay cache for the\n\
                        standard rows (the only engine with one; digests\n\
                        are identical either way, only wall clock moves)\n\
         --json         print the report as JSON to stdout\n\
         --out PATH     write the JSON report to PATH\n\
                        (default BENCH_throughput.json unless --verify)\n\
         --verify PATH  gate: require PATH to carry the current schema and\n\
                        this run's architectural digest (never wall-clock)\n\
         --engine NAME  engine for --profile (only `cmp` is profiled)\n\
         --profile      emit a per-handler micro-op count/cycle histogram\n\
                        (deterministic JSON; no wall-clock, no gating)\n\
         --memo         emit the px-bench/memo-v1 replay-cache report for\n\
                        the standard engine (the cache is standard-only):\n\
                        per-row hit rates + on/off digest identity\n\
                        (deterministic JSON; the gated form is memo_gate)"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut memo = true;
    let mut memo_report_only = false;
    let mut json = false;
    let mut profile = false;
    let mut engine: Option<String> = None;
    let mut out: Option<String> = None;
    let mut verify: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--no-memo" => {
                memo = false;
                i += 1;
            }
            "--memo" => {
                memo_report_only = true;
                i += 1;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--profile" => {
                profile = true;
                i += 1;
            }
            "--engine" => {
                let Some(name) = args.get(i + 1) else {
                    eprintln!("error: --engine requires a value");
                    usage();
                };
                engine = Some(name.clone());
                i += 2;
            }
            "--out" => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("error: --out requires a value");
                    usage();
                };
                out = Some(path.clone());
                i += 2;
            }
            "--verify" => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("error: --verify requires a value");
                    usage();
                };
                verify = Some(path.clone());
                i += 2;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage();
            }
        }
    }

    if memo_report_only {
        let report = memo_gate();
        if json {
            println!("{}", report.to_json().dump());
        } else {
            for r in &report.rows {
                println!(
                    "memo {:>8}/{:<20} spawns {:>6}  hit-rate {:>7.2}%  \
                     (hits {} misses {} invalidations {} bypasses {})  digest {} {}",
                    r.engine,
                    r.workload,
                    r.spawns,
                    r.hit_rate * 100.0,
                    r.hits,
                    r.misses,
                    r.invalidations,
                    r.bypasses,
                    r.digest,
                    if r.identical { "identical" } else { "DRIFTED" },
                );
            }
            println!(
                "memo gate: {} (nt-heavy hit-rate {:.2}%)",
                if report.passed() { "PASS" } else { "FAIL" },
                report.nt_heavy_hit_rate * 100.0
            );
        }
        if let Some(path) = &out {
            let dumped = report.to_json().dump();
            if let Err(e) = std::fs::write(path, format!("{dumped}\n")) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        }
        return;
    }

    if profile || engine.is_some() {
        if !profile {
            eprintln!("error: --engine only selects the target of --profile");
            usage();
        }
        let engine = engine.unwrap_or_else(|| {
            eprintln!("error: --profile requires --engine (only `cmp` is profiled)");
            usage();
        });
        if engine != "cmp" {
            eprintln!("error: only the cmp engine has a profiled entry point (got {engine:?})");
            std::process::exit(2);
        }
        let dumped = profile_report(&engine).dump();
        println!("{dumped}");
        if let Some(path) = &out {
            if let Err(e) = std::fs::write(path, format!("{dumped}\n")) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        }
        return;
    }

    let report = throughput_report(quick, memo);
    let dumped = report.to_json().dump();

    if json {
        println!("{dumped}");
    } else {
        let rows: Vec<Vec<String>> = report
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.engine.clone(),
                    r.workload.clone(),
                    r.instructions.to_string(),
                    r.sim_cycles.to_string(),
                    r.nt_paths.to_string(),
                    format!("{:.3}", r.wall_ns as f64 / 1e6),
                    format!("{:.3}", r.mips),
                    r.digest.clone(),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(
                &[
                    "engine",
                    "workload",
                    "sim-instr",
                    "sim-cycles",
                    "nt-paths",
                    "wall-ms",
                    "mips",
                    "digest",
                ],
                &rows,
            )
        );
        println!("arch digest: {}", report.arch_digest);
    }

    // Default output path only when not gating an existing file, and never
    // for a --no-memo run — the committed trajectory is the default
    // configuration (replay cache on).
    let out =
        out.or_else(|| (verify.is_none() && memo).then(|| "BENCH_throughput.json".to_owned()));
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, format!("{dumped}\n")) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    if let Some(path) = &verify {
        let committed = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("verify FAILED: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        let schema_tag = format!(r#""schema":"{SCHEMA}""#);
        if !committed.contains(&schema_tag) {
            eprintln!("verify FAILED: {path} does not carry schema {SCHEMA:?}");
            std::process::exit(1);
        }
        let digest_tag = format!(r#""arch_digest":"{}""#, report.arch_digest);
        if !committed.contains(&digest_tag) {
            eprintln!(
                "verify FAILED: {path} architectural digest differs from this run \
                 (expected {}) — the simulation's architectural results changed; \
                 regenerate with `bench_report --out {path}` if the change is intended",
                report.arch_digest
            );
            std::process::exit(1);
        }
        // Per-CMP-row digest gate. The overall arch digest already covers
        // every row; naming each CMP row turns "something changed" into
        // "this workload changed" — and the CMP engine's digests are the
        // riskiest (scheduler interleaving × cache simulation).
        for row in report.rows.iter().filter(|r| r.engine == "cmp") {
            let head = format!(r#""engine":"cmp","workload":"{}""#, row.workload);
            let Some(pos) = committed.find(&head) else {
                eprintln!(
                    "verify FAILED: {path} has no cmp/{} row — regenerate with \
                     `bench_report --out {path}`",
                    row.workload
                );
                std::process::exit(1);
            };
            let obj = &committed[pos..committed[pos..]
                .find('}')
                .map_or(committed.len(), |e| pos + e)];
            let row_digest = format!(r#""digest":"{}""#, row.digest);
            if !obj.contains(&row_digest) {
                eprintln!(
                    "verify FAILED: cmp/{} digest differs from this run (expected {}) — \
                     the CMP engine's architectural results changed; regenerate with \
                     `bench_report --out {path}` if the change is intended",
                    row.workload, row.digest
                );
                std::process::exit(1);
            }
        }
        // Advisory (never fails): warn when this machine's CMP throughput
        // has fallen below the recorded floor. Wall clock is machine- and
        // load-specific, so a hard gate here would flake — but a silent
        // regression of the engine this rewrite rescued deserves a line.
        if let Some(pos) = committed.find(r#""cmp_mips_floor":"#) {
            let tail = &committed[pos + r#""cmp_mips_floor":"#.len()..];
            let end = tail.find([',', '}']).unwrap_or(tail.len());
            if let Ok(floor) = tail[..end].trim().parse::<f64>() {
                if let Some(row) = report
                    .rows
                    .iter()
                    .find(|r| r.engine == "cmp" && r.workload == "nt-heavy")
                {
                    if row.mips < floor {
                        eprintln!(
                            "verify advisory: cmp/nt-heavy ran at {:.1} MIPS, below the \
                             recorded floor {floor:.1} (machine-specific; not gated)",
                            row.mips
                        );
                    }
                }
            }
        }
        println!("verify OK: schema, architectural digest and per-CMP-row digests match {path}");
    }
}
