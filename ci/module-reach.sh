#!/usr/bin/env bash
# Regenerates ci/module-reach.txt: for every function of the module
# (bench/ is a module of its own and is not counted), the first of these
# that executes it:
#
#   binary   one of the four shipped binaries, built with -cover and run
#            on commands that need no network:
#              cloudeval   help, dataset, bench, bench -store twice (cold,
#                          then warm), bench -record then -replay, bench
#                          -record over the warm store, figures -all,
#                          campaign -dir twice (the second resumes),
#                          models, models -replay, cost, cluster
#                          -workers 8 -cache, eval; loadgen in process
#                          (-warm -store -tenants a,b -record-trace),
#                          then -trace
#              cloudevald  -pprof, driven by cloudeval loadgen -addr and
#                          stopped with SIGINT
#              evalnode    redis, a worker with a store, a master with
#                          -limit 20 over loopback TCP
#              datasetgen  -augmented -digest
#   example  one of the programs under examples/, built the same way
#   test     some test of go test ./...
#   nothing  none of them
#
# A test or nothing row outside the eight oracle packages (see
# ci/oracle-reach.sh, which says which test reaches those) is code no
# shipped program runs; CHANGES.md keeps the list of those that stay,
# each with its reason.
#
# Run from the repository root: ci/module-reach.sh. It takes about two
# minutes and listens on loopback: cloudevald on port
# $MODULE_REACH_HTTP_PORT (default 18631), evalnode redis on a port the
# kernel picks. CI runs it and fails when the committed file differs.
set -euo pipefail

out=ci/module-reach.txt
module=cloudeval/
http_port=${MODULE_REACH_HTTP_PORT:-18631}

root=$(pwd)
tmp=$(mktemp -d)
pids=()
cleanup() {
	for p in "${pids[@]}"; do
		kill "$p" 2>/dev/null || true
	done
	rm -rf "$tmp"
}
trap cleanup EXIT

mkdir -p "$tmp/bin" "$tmp/cov/binary" "$tmp/cov/example" "$tmp/work"
for b in cloudeval cloudevald evalnode datasetgen; do
	go build -cover -coverpkg="${module}..." -o "$tmp/bin/$b" "./cmd/$b"
done
examples=()
for d in examples/*/; do
	e=$(basename "$d")
	examples+=("$e")
	go build -cover -coverpkg="${module}..." -o "$tmp/bin/example-$e" "./$d"
done

# run CLASS PROGRAM ARG... runs one covered program in the scratch
# directory, its counters going to $tmp/cov/CLASS; a failure prints the
# program's output and stops the script.
run() {
	local class=$1 prog=$2
	shift 2
	if ! (cd "$tmp/work" && GOCOVERDIR="$tmp/cov/$class" TMPDIR="$tmp/work" "$tmp/bin/$prog" "$@" >"$tmp/run.log" 2>&1); then
		echo "module-reach: $prog $* failed:" >&2
		cat "$tmp/run.log" >&2
		exit 1
	fi
}

# start PROGRAM ARG... starts one covered program in the background with
# its output in $tmp/PROGRAM.log; its pid is in $started.
start() {
	local prog=$1
	shift
	(cd "$tmp/work" && GOCOVERDIR="$tmp/cov/binary" TMPDIR="$tmp/work" exec "$tmp/bin/$prog" "$@" >"$tmp/$prog.log" 2>&1) &
	started=$!
	pids+=("$started")
}

# stop PROGRAM PID sends SIGINT and waits for a clean exit, which
# flushes the program's counters.
stop() {
	kill -INT "$2"
	if ! wait "$2"; then
		echo "module-reach: $1 did not exit cleanly:" >&2
		cat "$tmp/$1.log" >&2
		exit 1
	fi
}

# await FILE PATTERN waits up to 30 s for a line matching PATTERN in FILE.
await() {
	for _ in $(seq 300); do
		if grep -q "$2" "$1" 2>/dev/null; then
			return 0
		fi
		sleep 0.1
	done
	echo "module-reach: no \"$2\" in $1:" >&2
	cat "$1" >&2
	exit 1
}

run binary datasetgen -out dataset -augmented -digest digest.txt
run binary cloudeval help
run binary cloudeval dataset
run binary cloudeval bench
run binary cloudeval bench -store eval.store
run binary cloudeval bench -store eval.store
run binary cloudeval bench -record gen.trace
run binary cloudeval bench -replay gen.trace
run binary cloudeval bench -store eval.store -record warm.trace
run binary cloudeval figures -all
run binary cloudeval campaign -dir campaign
run binary cloudeval campaign -dir campaign
run binary cloudeval models
run binary cloudeval models -replay gen.trace
run binary cloudeval cost
run binary cloudeval cluster -workers 8 -cache
run binary cloudeval eval -problem k8s-pod-001 -f dataset/k8s-pod-001/labeled_code.yaml
run binary cloudeval loadgen -warm -store loadgen.store -tenants a,b -record-trace ops.trace -out loadgen.json
run binary cloudeval loadgen -trace ops.trace -out replay.json

start cloudevald -pprof -addr "127.0.0.1:$http_port" -data daemon
daemon=$started
await "$tmp/cloudevald.log" 'listening on'
run binary cloudeval loadgen -addr "http://127.0.0.1:$http_port" -n 40 -out daemon.json
stop cloudevald "$daemon"

start evalnode redis -addr 127.0.0.1:0
redis=$started
await "$tmp/evalnode.log" 'listening on'
addr=$(sed -n 's/^evalnode redis listening on //p' "$tmp/evalnode.log")
(cd "$tmp/work" && GOCOVERDIR="$tmp/cov/binary" "$tmp/bin/evalnode" worker -addr "$addr" -idle 2s -store worker.store >"$tmp/worker.log" 2>&1) &
worker=$!
pids+=("$worker")
run binary evalnode master -addr "$addr" -limit 20
if ! wait "$worker"; then
	echo "module-reach: evalnode worker failed:" >&2
	cat "$tmp/worker.log" >&2
	exit 1
fi
stop evalnode "$redis"

for e in "${examples[@]}"; do
	run example "example-$e"
done

# funcs CLASS writes the per-function coverage of $tmp/CLASS.out to
# $tmp/CLASS.
funcs() {
	go tool cover -func="$tmp/$1.out" | grep -v '^total:' >"$tmp/$1"
}
go tool covdata textfmt -i="$tmp/cov/binary" -o "$tmp/binary.out"
go tool covdata textfmt -i="$tmp/cov/example" -o "$tmp/example.out"
if ! go test -count=1 -coverpkg="${module}..." -coverprofile="$tmp/test.out" ./... >"$tmp/test.log" 2>&1; then
	cat "$tmp/test.log" >&2
	exit 1
fi
for c in binary example test; do
	funcs "$c"
done

# A program lists the functions of the packages it links, so a function
# is keyed by file:line and name across the three lists; its row is the
# first class that covers any of its statements.
awk -v module="$module" '
	FNR == 1 { class = FILENAME; sub(/.*\//, "", class) }
	{
		file = $1
		sub("^" module, "", file)
		sub(/:$/, "", file)
		line = file
		sub(/.*:/, "", line)
		sub(/:[0-9]+$/, "", file)
		fn = file "\t" line "\t" $2
		if (!(fn in reach)) reach[fn] = "nothing"
		if (reach[fn] == "nothing" && $3 != "0.0%") reach[fn] = class
	}
	END { for (fn in reach) print reach[fn] "\t" fn }
' "$tmp/binary" "$tmp/example" "$tmp/test" |
	LC_ALL=C sort -t "$(printf '\t')" -k2,2 -k3,3n -k4,4 |
	awk -F '\t' '{ printf "%-8s %s:%s %s\n", $1, $2, $3, $4 }' >"$tmp/rows"

{
	echo "# Which shipped program first runs each function of the module."
	echo "# Generated by ci/module-reach.sh; do not edit. Columns: reach, file:line function."
	echo "# Reach, in order: binary, example, test, nothing (see the script)."
	echo "#"
	awk '
		{ dir = $2; sub(/\/[^\/]*$/, "", dir); if (dir ~ /:/) dir = "."
		  if (!(dir in seen)) { seen[dir] = 1; order[++n] = dir }
		  count[dir, $1]++ }
		END {
			for (i = 1; i <= n; i++) {
				d = order[i]
				printf "# %-26s binary %3d example %3d test %3d nothing %3d\n", d,
					count[d, "binary"], count[d, "example"], count[d, "test"], count[d, "nothing"]
			}
		}
	' "$tmp/rows"
	cat "$tmp/rows"
} >"$root/$out"
