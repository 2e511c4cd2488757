#!/usr/bin/env bash
# The benchmark's one command. Run from anywhere; works from the checkout root.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run: --trace 0 is the gated end-to-end driver (dbbench), --trace 1
#       the traced per-layer driver (dblayers). The last line of standard
#       output is the result object.
#   bash benchmark/run.sh -baseline [RUNS]
#       RUNS (default 5) seeds of every workload through dbbench; prints the
#       median and quartiles of every metric as a baseline JSON.
#   bash benchmark/run.sh -selfcheck [RUNS]
#       two baselines of this commit, compared row by row against the bounds
#       in BENCHMARK.json; fails if any end-to-end row disagrees.
#   bash benchmark/run.sh -all [SEED]
#       every workload once through dbbench and once through dblayers, merged
#       into one JSON object per workload. Prints "layers: unavailable" and
#       carries on if dblayers no longer builds.
#   bash benchmark/run.sh -compare OLD.json NEW.json
#
# Everything built or written lands under .bench_build/ in the checkout.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=$PWD/.bench_build
mkdir -p "$out"
# Build state stays inside the checkout, and nothing is fetched.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
workloads=(paper_mix ingest rich_query ingest_durable open_loop_mix)

# stale BINARY DIR...: the binary is missing or older than a Go source file.
stale() {
	local bin=$1
	shift
	[ ! -x "$bin" ] || [ -n "$(find "$@" \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]
}

# Binaries are built before any timer starts, and only when sources changed.
build() {
	if stale "$out/cloudserver" cmd internal datablinder.go go.mod; then
		go build -o "$out/cloudserver" ./cmd/cloudserver
	fi
	local tool=$1
	if stale "$out/$tool" benchmark internal datablinder.go go.mod; then
		go -C benchmark build -o "$out/$tool" "./cmd/$tool"
	fi
}

# one TOOL ARGS...: a single run with a work directory of its own.
one() {
	local tool=$1
	shift
	"$out/$tool" -cloudserver "$out/cloudserver" -workdir "$out/run.$$" "$@"
}

baseline() {
	local runs=$1 records=$out/records.$$.jsonl
	rm -f "$records"
	for w in "${workloads[@]}"; do
		for seed in $(seq 1 "$runs"); do
			one dbbench --workload "$w" --seed "$seed" --seconds "$seconds" -report "$records" >&2
		done
	done
	DBBENCH_GIT=$(git rev-parse HEAD 2>/dev/null || echo unknown) "$out/dbbench" -summarize "$records"
	rm -f "$records"
}

case "${1:-}" in
-baseline)
	build dbbench
	baseline "${2:-5}"
	;;
-selfcheck)
	build dbbench
	baseline "${2:-5}" >"$out/selfcheck-1.json"
	baseline "${2:-5}" >"$out/selfcheck-2.json"
	"$out/dbbench" -compare "$out/selfcheck-1.json" "$out/selfcheck-2.json"
	;;
-compare)
	build dbbench
	"$out/dbbench" -compare "$2" "$3"
	;;
-all)
	build dbbench
	layers=1
	build dblayers || layers=0
	for w in "${workloads[@]}"; do
		e2e=$(one dbbench --workload "$w" --seed "${2:-1}" --seconds "$seconds" | tail -n 1)
		if [ "$layers" = 1 ]; then
			mkdir -p "$out/trace"
			per=$(one dblayers --workload "$w" --seed "${2:-1}" --seconds "$seconds" -trace-out "$out/trace/$w.json" | tail -n 1)
		else
			echo "layers: unavailable" >&2
			per=null
		fi
		printf '{"workload": "%s", "end_to_end": %s, "per_layer": %s}\n' "$w" "$e2e" "$per"
	done
	;;
*)
	trace=0
	args=("$@")
	for ((i = 0; i < ${#args[@]}; i++)); do
		case "${args[i]}" in
		--trace | -trace) trace=${args[i + 1]:-0} ;;
		--trace=* | -trace=*) trace=${args[i]#*=} ;;
		esac
	done
	if [ "$trace" = 1 ]; then
		build dblayers
		one dblayers "$@"
	else
		build dbbench
		one dbbench "$@"
	fi
	;;
esac
