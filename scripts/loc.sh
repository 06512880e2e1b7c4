#!/usr/bin/env bash
# Go line counts from one command, so ROADMAP's figures and a PR's
# acceptance numbers are not ad-hoc wc runs: non-test and test lines
# (wc -l of tracked *.go / *_test.go files) for every top-level package
# directory of the root module, the module total, and bench/ apart —
# bench/ is a nested module that the root ./... does not build.
#
#   scripts/loc.sh          # or: make loc
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

git ls-files -z -- '*.go' | xargs -0 wc -l | awk '
$2 == "total" { next }
{
	n = split($2, p, "/")
	if (p[1] == "bench") key = "~bench/ (own module)" # "~" sorts it last
	else if (n == 1) key = "."
	else if (p[1] == "internal" || p[1] == "cmd" || p[1] == "examples") key = p[1] "/" p[2]
	else key = p[1]
	if ($2 ~ /_test\.go$/) test[key] += $1; else code[key] += $1
	seen[key] = 1
}
END { for (k in seen) printf "%s\t%d\t%d\n", k, code[k], test[k] }' |
	LC_ALL=C sort | awk -F'\t' '
BEGIN { printf "%-22s %9s %9s\n", "package", "non-test", "test" }
/^~/ {
	printf "%-22s %9d %9d\n", "root module", c, t
	sub(/^~/, "", $1)
}
{ printf "%-22s %9d %9d\n", $1, $2, $3; c += $2; t += $3 }'
