#!/usr/bin/env bash
# Paired same-host A/B of the repository benchmark (BENCHMARK.json):
# the working tree against a base revision.
#
#   scripts/ab.sh <base-rev> <workload> [pairs=10]
#
# Builds perfbench at <base-rev> in a temporary git worktree and in the
# working tree, then runs <pairs> pairs of `perfbench --workload
# <workload> --seed 42 --seconds <run_seconds> --trace 0`, one run at a
# time, alternating which side runs first. For every end-to-end metric
# it prints each side's median and quartiles and the number of pairs the
# candidate won (strictly better in the metric's declared direction).
# Each run's result line is kept in a temporary directory whose path is
# printed at the end; the script itself writes nothing in the repository.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: scripts/ab.sh <base-rev> <workload> [pairs=10]" >&2
  exit 2
fi
base_rev=$1
workload=$2
pairs=${3:-10}
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "ab: pairs must be a positive integer" >&2; exit 2; }

root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
bench_json="$root/BENCHMARK.json"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$bench_json")"
[[ -n "$seconds" ]] || { echo "ab: no run_seconds in $bench_json" >&2; exit 1; }

work="$(mktemp -d)"
base_dir="$work/base"
git -C "$root" worktree add --quiet --detach "$base_dir" "$base_rev"
cleanup() {
  git -C "$root" worktree remove --force "$base_dir" 2>/dev/null || true
  git -C "$root" worktree prune
}
trap cleanup EXIT
results="$work/results"
mkdir -p "$results"

for side in base cand; do
  dir=$root
  [[ $side == base ]] && dir=$base_dir
  echo "ab: building perfbench ($side: $dir)" >&2
  cargo build --release --offline --quiet --manifest-path "$dir/perfbench/Cargo.toml"
done

# One run; its result line (the last line of stdout) goes to
# $results/<side>-<pair>.json.
run_side() {
  local side=$1 pair=$2 dir=$root
  [[ $side == base ]] && dir=$base_dir
  echo "ab: pair $pair/$pairs: $side" >&2
  (cd "$dir" && ./perfbench/target/release/perfbench --workload "$workload" --seed 42 \
    --seconds "$seconds" --trace 0) | tail -n 1 >"$results/$side-$pair.json"
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2 == 1)); then
    run_side base "$i"
    run_side cand "$i"
  else
    run_side cand "$i"
    run_side base "$i"
  fi
done

# `name better` for every end-to-end metric, in BENCHMARK.json order.
metrics="$(awk '
  /"end_to_end"/ { e = 1 }
  /"per_layer"/ { e = 0 }
  e && /"name"/ { n = $0; sub(/.*"name": *"/, "", n); sub(/".*/, "", n) }
  e && /"better"/ { b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b); print n, b }
' "$bench_json")"

# Value of metric $2 in result file $1.
value() {
  grep -o "\"$2\":{\"value\":[^,}]*" "$1" | sed 's/.*://'
}

# Median, lower and upper quartile (linear interpolation) of stdin.
quartiles() {
  sort -g | awk '
    { v[NR - 1] = $1 }
    function q(p,   h, lo) { h = p * (NR - 1); lo = int(h); return v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
    END { printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

echo "ab: $workload, base $base_rev vs working tree, $pairs pairs, seed 42, ${seconds}s runs"
for side in base cand; do
  bad=$(grep -L '"correct":true' "$results/$side"-*.json | wc -l)
  echo "ab: $side runs not correct: $bad"
done
printf '%-20s %-6s %32s %32s %8s\n' metric better "base median [q1, q3]" "cand median [q1, q3]" wins
while read -r name better; do
  [[ -n "$(value "$results/base-1.json" "$name")" ]] || continue
  read -r bm bq1 bq3 < <(for ((i = 1; i <= pairs; i++)); do value "$results/base-$i.json" "$name"; done | quartiles)
  read -r cm cq1 cq3 < <(for ((i = 1; i <= pairs; i++)); do value "$results/cand-$i.json" "$name"; done | quartiles)
  wins=0
  for ((i = 1; i <= pairs; i++)); do
    b=$(value "$results/base-$i.json" "$name")
    c=$(value "$results/cand-$i.json" "$name")
    if awk -v b="$b" -v c="$c" -v d="$better" 'BEGIN { exit !((d == "lower") ? c < b : c > b) }'; then
      wins=$((wins + 1))
    fi
  done
  printf '%-20s %-6s %12s [%8s, %8s] %12s [%8s, %8s] %5d/%d\n' \
    "$name" "$better" "$bm" "$bq1" "$bq3" "$cm" "$cq1" "$cq3" "$wins" "$pairs"
done <<<"$metrics"
echo "ab: per-run results in $results"
