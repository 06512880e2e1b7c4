#!/usr/bin/env bash
# Paired benchmark runs of a base revision against the working tree —
# what every performance change has to show (bench/README.md, "Changing
# the benchmark"): N seeds, each run on both sides, alternating which
# side goes first, then the -compare verdicts with medians and quartiles.
#
#   scripts/bench_pairs.sh <workload> [pairs=10] [base=HEAD]
#
# The base is checked out as a git worktree under .bench_build/ (removed
# again on exit) and built by its own bench/run.sh, so each side runs the
# benchmark code of its own commit. Results: .bench_build/pairs/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
w="${1:?usage: scripts/bench_pairs.sh <workload> [pairs=10] [base=HEAD]}"
n="${2:-10}"
base="${3:-HEAD}"

tree="$root/.bench_build/base-$(git rev-parse --short "$base")"
out="$root/.bench_build/pairs"
mkdir -p "$out"
git worktree add --force --detach "$tree" "$base" >/dev/null
trap 'git worktree remove --force "$tree"' EXIT

parent="$out/$w.parent.jsonl"
change="$out/$w.change.jsonl"
rm -f "$parent" "$change"
run() { # <checkout> <seed> <result file>
	bash "$1/bench/run.sh" --workload "$w" --seed "$2" --seconds 15 --trace 0 --json "$3" >/dev/null
}
for i in $(seq 1 "$n"); do
	if ((i % 2)); then
		run "$tree" "$i" "$parent"
		run "$root" "$i" "$change"
	else
		run "$root" "$i" "$change"
		run "$tree" "$i" "$parent"
	fi
	echo "pair $i/$n done" >&2
done
"$root/.bench_build/drxbench" -compare "$parent" "$change" | grep -E "^(base|workload|$w) "
