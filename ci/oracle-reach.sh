#!/usr/bin/env bash
# Regenerates ci/oracle-reach.txt: for every function of the eight
# packages a unit test's verdict runs through (the shell, the simulators
# and the tools bound to them, and the YAML and jsonpath readers), the
# first of these that executes it:
#
#   table4   a distinct execution of a Table 4 campaign
#            (engine's TestUnitTestResultsPinned)
#   answers  a corpus answer run through its unit test: every family's
#            references, the empty answer, garbage and a wrong kind
#   golden   a transcript golden (the Test*Transcripts tests)
#   fuzz     a fuzzer's seed corpus, run as a test
#   tests    some other test
#   nothing  no test at all
#
# Run from the repository root: ci/oracle-reach.sh. It takes about a
# minute. CI runs it and fails when the committed file differs.
set -euo pipefail

out=ci/oracle-reach.txt
module=cloudeval/internal/
pkgs=(shell kubesim k8scmd composesim helmsim envoysim jsonpath yamlx)
coverpkg=$(printf "${module}%s," "${pkgs[@]}")
coverpkg=${coverpkg%,}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# cover NAME RUN PACKAGE... writes the per-function coverage of the
# tests RUN selects in the packages to $tmp/NAME.
cover() {
	local name=$1 run=$2
	shift 2
	go test -count=1 -run "$run" -coverpkg="$coverpkg" -coverprofile="$tmp/$name.out" "$@" >/dev/null
	go tool cover -func="$tmp/$name.out" | grep -v '^total:' >"$tmp/$name"
}

cover table4 '^TestUnitTestResultsPinned$' ./internal/engine
cover answers '^(TestCorpusInvariantPerFamily|TestEmptyAnswersFail|TestGarbageAnswersFail|TestWrongKindFails)$' ./internal/unittest
cover golden 'Transcripts$' ./internal/...
cover fuzz '^Fuzz' ./...
cover tests '' ./...

# Every run lists every function; a function's row is the first run that
# covers any of its statements.
awk -v module="$module" '
	FNR == 1 { run = FILENAME; sub(/.*\//, "", run) }
	{
		fn = $1
		sub(module, "", fn)
		sub(/:$/, "", fn)
		fn = fn " " $2
		if (!(fn in reach)) { reach[fn] = "nothing"; order[++n] = fn }
		if (reach[fn] == "nothing" && $3 != "0.0%") reach[fn] = run
	}
	END { for (i = 1; i <= n; i++) printf "%-8s %s\n", reach[order[i]], order[i] }
' "$tmp/table4" "$tmp/answers" "$tmp/golden" "$tmp/fuzz" "$tmp/tests" >"$tmp/rows"

{
	echo "# Which test first reaches each function of the oracle packages."
	echo "# Generated by ci/oracle-reach.sh; do not edit. Columns: reach, file:line function."
	echo "# Reach, in order: table4, answers, golden, fuzz, tests, nothing (see the script)."
	echo "# The only rows reached by nothing are methods with empty bodies that mark an"
	echo "# interface: nodeTag, on the shell's syntax-tree nodes."
	echo "#"
	for p in "${pkgs[@]}"; do
		printf "# %-10s" "$p"
		for r in table4 answers golden fuzz tests nothing; do
			printf " %s %3d" "$r" "$(grep -c " $p/" <(grep "^$r " "$tmp/rows") || true)"
		done
		echo
	done
	cat "$tmp/rows"
} >"$out"
