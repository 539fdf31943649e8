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
# and how many of its statements the corpus reaches: the table4 and
# answers profiles merged, read block by block, out of the function's
# total. A function the corpus reaches is not thereby reached whole;
# this column shows which of its statements no corpus script runs.
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

# cover NAME RUN PACKAGE... writes the coverage profile of the tests RUN
# selects in the packages to $tmp/NAME.out and its per-function
# coverage to $tmp/NAME. TestReachTableNamesUncoveredRows is skipped: it
# reads the file this script writes, and runs no oracle code.
cover() {
	local name=$1 run=$2
	shift 2
	go test -count=1 -run "$run" -skip '^TestReachTableNamesUncoveredRows$' -coverpkg="$coverpkg" -coverprofile="$tmp/$name.out" "$@" >/dev/null
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
	END { for (i = 1; i <= n; i++) printf "%s %s\n", reach[order[i]], order[i] }
' "$tmp/table4" "$tmp/answers" "$tmp/golden" "$tmp/fuzz" "$tmp/tests" >"$tmp/reach"

# The corpus's statements: each block of the table4 and answers profiles
# (file:start,end statements count), reached if either run counts it,
# goes to the last function that starts at or above it in its file.
# Rows read "reach reached/total file:line function".
awk -v module="$module" '
	FILENAME ~ /reach$/ {
		split($2, at, ":")
		file = at[1]
		fns[file] = fns[file] " " at[2]
		row[++n] = $0
		next
	}
	FNR == 1 { next } # the mode line
	{
		split($1, at, ":")
		file = at[1]
		sub(module, "", file)
		split(at[2], pos, ".")
		block = $1
		stmts[block] = $2
		if ($3 > 0) hit[block] = 1
		blockFile[block] = file
		blockLine[block] = pos[1] + 0
	}
	END {
		for (block in stmts) {
			file = blockFile[block]
			k = split(fns[file], starts, " ")
			start = starts[1]
			for (i = 2; i <= k; i++) if (starts[i] + 0 <= blockLine[block] && starts[i] + 0 > start + 0) start = starts[i]
			total[file ":" start] += stmts[block]
			if (block in hit) reached[file ":" start] += stmts[block]
		}
		for (i = 1; i <= n; i++) {
			split(row[i], f, " ")
			printf "%-8s %7s %s %s\n", f[1], (reached[f[2]] + 0) "/" (total[f[2]] + 0), f[2], f[3]
		}
	}
' "$tmp/reach" "$tmp/table4.out" "$tmp/answers.out" >"$tmp/rows"

{
	echo "# Which test first reaches each function of the oracle packages, and how many"
	echo "# of its statements the corpus reaches (Table 4 and the corpus answers)."
	echo "# Generated by ci/oracle-reach.sh; do not edit. Columns: reach, corpus statements"
	echo "# reached/total, file:line function."
	echo "# Reach, in order: table4, answers, golden, fuzz, tests, nothing (see the script)."
	echo "# The only rows reached by nothing are methods with empty bodies that mark an"
	echo "# interface: nodeTag, on the shell's syntax-tree nodes."
	echo "#"
	for p in "${pkgs[@]}"; do
		printf "# %-10s" "$p"
		for r in table4 answers golden fuzz tests nothing; do
			printf " %s %3d" "$r" "$(grep -c " $p/" <(grep "^$r " "$tmp/rows") || true)"
		done
		awk -v p=" $p/" 'index($0, p) { split($2, s, "/"); r += s[1]; t += s[2] } END { printf "  statements %4d/%4d\n", r, t }' "$tmp/rows"
	done
	cat "$tmp/rows"
} >"$out"
