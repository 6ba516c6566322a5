#!/usr/bin/env bash
# Full offline verification gate — exactly what CI runs.
#
# The workspace is zero-dependency (every crate is an in-tree path crate),
# so everything here must succeed with no network and no registry.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> cargo fmt --check"
cargo fmt --check

# Lint gate: warning-free under clippy. Skips gracefully on toolchains
# without the clippy component installed.
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy: not installed, skipping"
fi

echo "==> fault-smoke: 64-case fault-injection campaign"
cargo run --release --offline -q -p px-bench --bin fault_campaign -- --seed 1 --cases 64

# Campaign gate (E16): a 512-case manifest with deliberately panicking and
# runaway chaos cases is run straight through, killed mid-flight (torn
# journal tail), and resumed. The resumed aggregate digest must be
# byte-identical, every case accounted for exactly once, and the
# quarantine must match chaos ground truth.
echo "==> campaign-gate: E16 kill+resume digest identity, 512 cases"
cargo run --release --offline -q -p px-bench --bin campaign_gate -- --check

# Prime-path gate (E17): the zoo roster's prime-path sets must enumerate
# byte-identically (twice) inside a hard wall-time budget, the
# zoo-roster:quick campaign must fold its prime-path shards to the same
# aggregate digest at 1 and 4 workers, and forward/reverse journal
# re-folds must commute.
echo "==> prime-path-gate: E17 enumeration determinism + shard digest identity"
cargo run --release --offline -q -p px-bench --bin prime_path_gate -- --check

# Zoo smoke: the quick E15 roster must meet the acceptance criteria
# (every expected bug detected on some engine, zero NT-only false
# positives), and the zoo CLI must be byte-deterministic.
echo "==> zoo-smoke: quick E15 roster + CLI determinism"
cargo run --release --offline -q -p px-bench --bin zoo_tables -- --quick --check
a=$(cargo run --release --offline -q -p px-cli --bin pxc -- zoo run zoo:parser:1 --json)
b=$(cargo run --release --offline -q -p px-cli --bin pxc -- zoo run zoo:parser:1 --json)
if [ "$a" != "$b" ]; then
    echo "zoo-smoke FAILED: pxc zoo run --json is not deterministic" >&2
    exit 1
fi

# Memo gate (E18): every standard-engine workload digest must be
# byte-identical with the NT-path replay cache on and off, and the cache
# must demonstrably engage on nt-heavy (minimum hit rate) — a differential
# that passes because the cache never fired proves nothing. The cache is
# standard-only; the CMP engine always simulates its NT-paths.
echo "==> memo-gate: E18 replay-cache on/off digest identity + nt-heavy hit rate"
cargo run --release --offline -q -p px-bench --bin memo_gate -- --check

# Throughput gate: the committed BENCH_throughput.json must carry the
# current schema, this machine's freshly-computed *architectural* digest,
# and a matching digest for every CMP-engine row (the scheduler-interleaving
# digests the micro-op rewrite must never move). Wall-clock numbers are
# machine-specific: the CMP MIPS floor in the reference block is advisory
# (a warning, never a failure).
echo "==> bench-gate: schema + arch digest + per-CMP-row digests of BENCH_throughput.json"
cargo run --release --offline -q -p px-bench --bin bench_report -- \
    --quick --verify BENCH_throughput.json

# The end-to-end benchmark is its own package, outside the workspace, and
# the only caller of several public entry points: its tests (digest pins,
# output checks) keep an API change from breaking it with every gate above
# still green.
echo "==> perfbench: the benchmark package's own tests"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "verify: OK"
