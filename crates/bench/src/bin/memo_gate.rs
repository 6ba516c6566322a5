//! Runs the E18 NT-path memoization gate: the full throughput workload
//! matrix through the standard engine (the only one with a replay cache)
//! with the cache on and off. Every architectural digest must be
//! byte-identical, and the cache must demonstrably engage on `nt-heavy`
//! (minimum hit rate) — a gate that passes because the cache never fired
//! proves nothing.
//!
//! ```text
//! memo_gate [--json] [--check]
//! ```
//!
//! `--check` exits non-zero unless every criterion holds — the form
//! scripts/verify.sh and CI run.

use px_bench::experiments::memo::{memo_gate, MIN_NT_HEAVY_HIT_RATE};
use px_util::ToJson;

fn usage() -> ! {
    eprintln!(
        "usage: memo_gate [--json] [--check]\n\
         \n\
         --json   print the gate report as JSON\n\
         --check  exit non-zero unless the gate passes"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut check = false;

    for arg in &args {
        match arg.as_str() {
            "--json" => json = true,
            "--check" => check = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage();
            }
        }
    }

    let report = memo_gate();
    if json {
        println!("{}", report.to_json().dump());
    } else {
        println!(
            "memo gate: {} standard-engine workload rows (replay cache on vs off)",
            report.rows.len()
        );
        for r in &report.rows {
            println!(
                "  {:>8}/{:<20} spawns {:>6}  hit-rate {:>7.2}%  digest {} {}",
                r.engine,
                r.workload,
                r.spawns,
                r.hit_rate * 100.0,
                r.digest,
                if r.identical { "identical" } else { "DRIFTED" },
            );
        }
        println!(
            "  nt-heavy hit-rate {:.2}% (floor {:.0}%)",
            report.nt_heavy_hit_rate * 100.0,
            MIN_NT_HEAVY_HIT_RATE * 100.0
        );
        println!("  gate: {}", if report.passed() { "PASS" } else { "FAIL" });
    }
    if check && !report.passed() {
        std::process::exit(1);
    }
}
