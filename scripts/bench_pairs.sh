#!/usr/bin/env bash
# Paired benchmark runs of a base revision against the working tree —
# what every performance change has to show (bench/README.md, "Changing
# the benchmark"): N seeds, each run on both sides, alternating which
# side goes first, then the -compare verdicts with medians and quartiles.
#
#   scripts/bench_pairs.sh <workload|all> [pairs=10] [base=HEAD]
#
# `all` runs the workloads of BENCHMARK.json one after the other, so
# "nothing else got worse" is one command. The base is exported with
# git archive under .bench_build/ (removed again on exit) and built by
# its own bench/run.sh, so each side runs the benchmark code of its own
# commit. Results: .bench_build/pairs/. A workload whose runs fail or
# whose -compare finds a `worse` cell does not stop the rest: the script
# names every such workload at the end and exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
w="${1:?usage: scripts/bench_pairs.sh <workload|all> [pairs=10] [base=HEAD]}"
n="${2:-10}"
base="${3:-HEAD}"

workloads=("$w")
if [ "$w" = all ]; then
	# A workload entry is a "name" line followed by its "why" line.
	mapfile -t workloads < <(grep -B1 '"why"' BENCHMARK.json | grep -o '"name": "[^"]*"' | cut -d'"' -f4)
fi

tree="$root/.bench_build/base-$(git rev-parse --short "$base")"
out="$root/.bench_build/pairs"
rm -rf "$tree"
mkdir -p "$out" "$tree"
trap 'rm -rf "$tree"' EXIT
git archive "$base" | tar -x -C "$tree"

run() { # <checkout> <workload> <seed> <result file>
	bash "$1/bench/run.sh" --workload "$2" --seed "$3" --seconds 15 --trace 0 --json "$4" >/dev/null
}
failed=()
for w in "${workloads[@]}"; do
	parent="$out/$w.parent.jsonl"
	change="$out/$w.change.jsonl"
	rm -f "$parent" "$change"
	ok=1
	for i in $(seq 1 "$n"); do
		if ((i % 2)); then
			run "$tree" "$w" "$i" "$parent" && run "$root" "$w" "$i" "$change" || ok=0
		else
			run "$root" "$w" "$i" "$change" && run "$tree" "$w" "$i" "$parent" || ok=0
		fi
		echo "$w: pair $i/$n done" >&2
	done
	# -compare exits non-zero on a worse cell; its table is printed either way.
	"$root/.bench_build/drxbench" -compare "$parent" "$change" | grep -E "^(base|workload|$w) " || ok=0
	((ok)) || failed+=("$w")
done
if ((${#failed[@]})); then
	echo "bench_pairs: failed or worse: ${failed[*]}" >&2
	exit 1
fi
