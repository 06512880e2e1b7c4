#!/usr/bin/env bash
# Mutation check: every patch under scripts/mutants/ breaks one invariant
# the test suite must catch. Each one is applied to a fresh git archive
# export of REV (default HEAD) under .bench_build/mutants/<name>, and
# `go test -count=1 ./...` runs there under a timeout. A mutant is
#   caught  when the suite fails,
#   missed  when it passes,
#   stale   when the patch no longer applies or the mutant fails go vet,
#   timeout when the suite runs past MUTANT_TIMEOUT seconds (default 600).
# Anything but caught fails the run.
#
#   bash scripts/mutants.sh [REV]      (make mutants)
set -uo pipefail
top=$(git rev-parse --show-toplevel) || exit 2
cd "$top"
rev=${1:-HEAD}
limit=${MUTANT_TIMEOUT:-600}
root=$top/.bench_build/mutants
status=0
for patch in "$top"/scripts/mutants/*.patch; do
  name=$(basename "$patch" .patch)
  dir=$root/$name
  rm -rf "$dir" && mkdir -p "$dir"
  git archive "$rev" | tar -x -C "$dir"
  # The ceiling keeps git apply from finding this repository above the
  # export, so the patch's paths resolve inside the export.
  if ! (cd "$dir" && GIT_CEILING_DIRECTORIES=$root git apply "$patch") ||
    ! (cd "$dir" && go vet ./... >/dev/null 2>&1); then
    verdict=stale
  else
    start=$SECONDS
    (cd "$dir" && timeout "$limit" go test -count=1 ./... >"$dir.log" 2>&1)
    rc=$?
    case $rc in
      0) verdict=missed ;;
      124) verdict=timeout ;;
      *) verdict=caught ;;
    esac
    verdict="$verdict ($((SECONDS - start)) s; $(grep -c -- '^--- FAIL' "$dir.log") failing tests, log $dir.log)"
  fi
  echo "$name: $verdict"
  [[ $verdict == caught* ]] || status=1
done
exit $status
