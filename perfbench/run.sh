#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload verify --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare base-results/ head-results/
#
# Everything the build and the runs write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, temp stores and
# result files.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/gocache" "$work/gotmp" "$work/config"

export GOCACHE="$work/gocache"
export GOTMPDIR="$work/gotmp"
export XDG_CONFIG_HOME="$work/config"
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local

go build -C "$root/perfbench" -o "$work/perfbench" .

# The benchmark runs with an empty PATH. A binary built outside a git
# repository carries no VCS stamp, and hostmeta.Commit then runs `git`
# on every call — once per shard.Run and per sweep compute — which
# would put a process spawn into every sweep job. Without git on PATH
# the fallback fails at once and returns "", the same answer it gives
# outside a repository, so the benchmark times what a stamped build
# does.
mkdir -p "$work/empty-path"
exec env PATH="$work/empty-path" "$work/perfbench" "$@"
