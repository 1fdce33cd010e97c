#!/usr/bin/env bash
# Builds teabench and teaworker from source and runs one benchmark run.
# Run it from the repository root with the arguments of `teabench run`:
#
#   bash bench/run.sh --workload core-long --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, scratch
# stores and journals, run.json files (runs/) and traces (trace/).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/tmp" "$build/home" "$build/runs" "$build/trace"

export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off GOPROXY=off

(cd "$root/bench" &&
	go build -o "$build/bin/teabench" ./cmd/teabench &&
	go build -o "$build/bin/teaworker" teasim/cmd/teaworker)

# Name this run's files after its workload, seed and trace setting.
workload=unknown seed=1 trace=0
args=("$@")
for ((i = 0; i < ${#args[@]} - 1; i++)); do
	case "${args[i]}" in
	-workload | --workload) workload=${args[i + 1]} ;;
	-seed | --seed) seed=${args[i + 1]} ;;
	-trace | --trace) trace=${args[i + 1]} ;;
	esac
done
name="$workload-seed$seed-trace$trace"

# Not exec: teabench reads its own process start time for setup_s, and an
# exec'd process would inherit this script's, build included.
"$build/bin/teabench" run "$@" -o "$build/runs/$name.json" -trace-dir "$build/trace/$name"
