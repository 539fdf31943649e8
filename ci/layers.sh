#!/usr/bin/env bash
# Regenerates ci/layers.txt, the layer ledger of a cold Table 4
# campaign: for every stage of internal/stage, its share of the CPU
# samples and the objects it allocates per (model, problem) pair, in
# process-cold campaigns (each in a child process of its own, merged
# until the column holds 1,000 samples) and in campaigns with every
# process-wide cache warm (what the benchmark's table4_cold times). The
# header names the box, the commit the binary was built from and each
# column's campaigns and sample count.
#
# It is a record, like ci/bench-history.jsonl, not a gate: the CPU
# shares depend on the box. A change that claims a performance gain
# regenerates it and names the stage its claim moves.
#
# Run from the repository root: ci/layers.sh. It takes about ten
# seconds on 2 vCPUs. The Go runtime prints "cannot set cpu profile
# rate" once per process: the ledger samples at 1 kHz, and the rate set
# first stands.
set -euo pipefail

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/cloudeval" ./cmd/cloudeval
"$tmp/cloudeval" bench -layers ci/layers.txt
