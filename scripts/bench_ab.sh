#!/usr/bin/env bash
# Interleaved A/B runs of the BENCHMARK.json command: a base revision
# against the working tree.
#
#   scripts/bench_ab.sh <base-rev> <workload> [pairs] [seed]
#
# Builds the base revision (in a temporary `git worktree`) and the working
# tree into separate target directories, then runs `pairs` pairs (default
# 10) of the benchmark command on `workload` at `seed` (default 1). The side
# that runs first alternates from pair to pair, so host drift hits both
# sides alike. Prints, per end-to-end metric, each side's median and
# interquartile range, the ratio of medians (working tree / base) and how
# many pairs the working tree won in the metric's better direction.
#
# Raw result lines are kept in the scratch directory, which is printed at
# the end; the worktree and the build directories are removed on exit.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "usage: $0 <base-rev> <workload> [pairs] [seed]" >&2
    exit 2
fi
base_rev=$1
workload=$2
pairs=${3:-10}
seed=${4:-1}

root=$(git rev-parse --show-toplevel)
cd "$root"
base_sha=$(git rev-parse --verify "$base_rev^{commit}")

scratch=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
tree="$scratch/base-tree"
cleanup() {
    git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
    git -C "$root" worktree prune
    rm -rf "$scratch/base-target" "$scratch/head-target"
}
trap cleanup EXIT

# The benchmark command and run length, as BENCHMARK.json declares them.
mapfile -t cmd < <(awk '
    /"command": *\[/ { inside = 1; next }
    inside && /\]/ { exit }
    inside { gsub(/^[ \t]*"|",?[ \t]*$/, ""); print }
' BENCHMARK.json)
seconds=$(awk -F: '/"run_seconds"/ { gsub(/[ ,]/, "", $2); print $2 }' BENCHMARK.json)
args=(--workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)

git worktree add --detach "$tree" "$base_sha" >/dev/null

# Builds one side; `cargo run` then finds the binary up to date.
build() {
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path perfbench/Cargo.toml)
}
echo "building base $base_sha and the working tree ..." >&2
build "$tree" "$scratch/base-target"
build "$root" "$scratch/head-target"

# Runs one side once, appending its result line to "$scratch/<side>.jsonl".
run_side() {
    local side=$1 dir target
    if [[ $side == base ]]; then
        dir=$tree target="$scratch/base-target"
    else
        dir=$root target="$scratch/head-target"
    fi
    # A failed run still leaves its result line ("correct": false).
    (cd "$dir" && CARGO_TARGET_DIR="$target" "${cmd[@]}" "${args[@]}") 2>/dev/null \
        | tail -n 1 >>"$scratch/$side.jsonl" || true
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run_side base
        run_side head
    else
        run_side head
        run_side base
    fi
    echo "pair $i/$pairs done" >&2
done

# metric name -> "higher" | "lower", from BENCHMARK.json's end_to_end list.
awk '
    /"end_to_end"/ { inside = 1 }
    /"per_layer"/ { inside = 0 }
    inside && /"name"/ { gsub(/.*"name": *"|".*/, ""); name = $0 }
    inside && /"better"/ { gsub(/.*"better": *"|".*/, ""); print name, $0 }
' BENCHMARK.json >"$scratch/better.txt"

awk -v workload="$workload" -v seed="$seed" -v pairs="$pairs" '
    # Value of metric `m` in one result line (0 when absent).
    function value(line, m,    rest) {
        if (!match(line, "\"" m "\":\\{\"value\":[^,}]*")) return 0
        rest = substr(line, RSTART, RLENGTH)
        sub(/.*"value":/, "", rest)
        return rest + 0
    }
    # Linear-interpolated quantile of sorted a[1..n].
    function quantile(a, n, q,    pos, lo) {
        pos = 1 + (n - 1) * q
        lo = int(pos)
        return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
    }
    function sorted(src, n, dst,    i, j, t) {
        for (i = 1; i <= n; i++) dst[i] = src[i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
                t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
            }
    }
    FILENAME ~ /better.txt$/ { better[$1] = $2; order[++nm] = $1; next }
    FILENAME ~ /base.jsonl$/ { base_line[++nb] = $0; if ($0 !~ /"correct":true/) bad++; next }
    FILENAME ~ /head.jsonl$/ { head_line[++nh] = $0; if ($0 !~ /"correct":true/) bad++; next }
    END {
        n = nb < nh ? nb : nh
        if (n == 0) { print "no complete pair"; exit 1 }
        printf "workload %s, seed %s: %d of %d pairs complete", workload, seed, n, pairs
        if (bad) printf " (%d runs not correct)", bad
        printf "\n%-20s %12s %10s %12s %10s %7s %6s\n", \
            "metric", "base med", "base IQR", "head med", "head IQR", "ratio", "wins"
        for (k = 1; k <= nm; k++) {
            m = order[k]; wins = 0
            for (i = 1; i <= n; i++) {
                b[i] = value(base_line[i], m); h[i] = value(head_line[i], m)
                if (better[m] == "higher" ? h[i] > b[i] : h[i] < b[i]) wins++
            }
            sorted(b, n, bs); sorted(h, n, hs)
            bm = quantile(bs, n, 0.5); hm = quantile(hs, n, 0.5)
            printf "%-20s %12.4g %10.3g %12.4g %10.3g %7.3f %3d/%d\n", m, \
                bm, quantile(bs, n, 0.75) - quantile(bs, n, 0.25), \
                hm, quantile(hs, n, 0.75) - quantile(hs, n, 0.25), \
                bm == 0 ? 0 : hm / bm, wins, n
        }
    }
' "$scratch/better.txt" "$scratch/base.jsonl" "$scratch/head.jsonl"
echo "raw result lines: $scratch/{base,head}.jsonl" >&2
