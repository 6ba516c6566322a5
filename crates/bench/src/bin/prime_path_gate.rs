//! Runs the E17 prime-path coverage gate: double enumeration of the zoo
//! roster under a hard wall-time budget (byte-identical renderings), the
//! `zoo-roster:quick` campaign at 1 and 4 workers (byte-identical
//! aggregate digests folding the prime-path shards), and forward/reverse
//! journal re-folds (shard merges commute).
//!
//! ```text
//! prime_path_gate [--manifest SPEC] [--enum-budget-ms N] [--json] [--check]
//! ```
//!
//! `--check` exits non-zero unless every acceptance criterion holds — the
//! form scripts/verify.sh and CI run.

use px_bench::experiments::prime::{
    prime_path_gate_with, ENUM_BUDGET_MS, GATE_MANIFEST, ROSTER_DIGEST,
};

fn usage() -> ! {
    eprintln!(
        "usage: prime_path_gate [--manifest SPEC] [--enum-budget-ms N] [--json] [--check]\n\
         \n\
         --manifest SPEC     campaign manifest (default {GATE_MANIFEST})\n\
         --enum-budget-ms N  wall-time bound for the double enumeration sweep\n\
         \x20                   (default {ENUM_BUDGET_MS})\n\
         --json              print the gate report as JSON\n\
         --check             exit non-zero unless the gate passes"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut manifest = GATE_MANIFEST.to_owned();
    let mut enum_budget_ms = ENUM_BUDGET_MS;
    let mut json = false;
    let mut check = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--manifest" => {
                let Some(spec) = args.get(i + 1) else {
                    eprintln!("error: --manifest requires a value");
                    usage();
                };
                manifest = spec.clone();
                i += 2;
            }
            "--enum-budget-ms" => {
                let Some(raw) = args.get(i + 1) else {
                    eprintln!("error: --enum-budget-ms requires a value");
                    usage();
                };
                enum_budget_ms = match raw.parse() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!(
                            "error: --enum-budget-ms expects a positive integer, got {raw:?}"
                        );
                        usage();
                    }
                };
                i += 2;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--check" => {
                check = true;
                i += 1;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage();
            }
        }
    }

    let report = prime_path_gate_with(&manifest, enum_budget_ms);
    if json {
        println!("{}", report.to_json().dump());
    } else {
        println!(
            "prime-path gate: {} cases over `{}`, {} roster families",
            report.total, report.manifest, report.families
        );
        println!(
            "  enumeration: 2 sweeps in {} ms (budget {} ms, {}; {} programs truncated)",
            report.enum_ms,
            report.enum_budget_ms,
            if report.enum_deterministic {
                "byte-identical"
            } else {
                "NONDETERMINISTIC"
            },
            report.truncated_programs
        );
        println!(
            "  roster digest {:016x} (pin {:016x}, {})",
            report.roster_digest,
            ROSTER_DIGEST,
            if report.roster_digest == ROSTER_DIGEST {
                "match"
            } else {
                "MISMATCH"
            }
        );
        println!(
            "  digest serial={:016x} parallel={:016x} ({})",
            report.digest_serial,
            report.digest_parallel,
            if report.digest_serial == report.digest_parallel {
                "identical"
            } else {
                "MISMATCH"
            }
        );
        println!(
            "  prime shards: {} program keys, {} paths covered, refolds {}",
            report.prime_keys,
            report.prime_covered,
            if report.merge_commutes {
                "commute"
            } else {
                "DO NOT COMMUTE"
            }
        );
        println!("  gate: {}", if report.passed() { "PASS" } else { "FAIL" });
    }
    if check && !report.passed() {
        std::process::exit(1);
    }
}
