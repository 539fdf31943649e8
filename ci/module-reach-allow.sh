#!/usr/bin/env bash
# Checks ci/module-reach.txt's nothing rows against
# ci/module-reach-allow.txt: every function reached by nothing must be
# listed there, by file and function, with a reason, and every entry
# there must still name a nothing row. A function no shipped program
# or test runs is dead code unless the list says why it stays.
#
# Run from the repository root: ci/module-reach-allow.sh. CI runs it
# after regenerating ci/module-reach.txt.
set -euo pipefail

awk '
	FNR == NR {
		if ($0 ~ /^#/ || NF == 0) next
		if (NF < 4) {
			print "ci/module-reach-allow.txt:" FNR ": " $1 " " $2 " gives no reason"
			bad = 1
		}
		allow[$1 " " $2] = 1
		next
	}
	$1 == "nothing" {
		file = $2
		sub(/:[0-9]+$/, "", file)
		fn = file " " $3
		seen[fn] = 1
		if (!(fn in allow)) {
			print "ci/module-reach.txt: " fn " is reached by nothing and not on ci/module-reach-allow.txt"
			bad = 1
		}
	}
	END {
		for (fn in allow) {
			if (!(fn in seen)) {
				print "ci/module-reach-allow.txt: " fn " is no longer reached by nothing; drop it"
				bad = 1
			}
		}
		exit bad
	}
' ci/module-reach-allow.txt ci/module-reach.txt
