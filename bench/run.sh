#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the checkout root and runs
# it in the foreground, passing every argument through:
#
#   bash bench/run.sh --workload smalltx --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -workload all -out set1.json
#   bash bench/run.sh -compare set1.json set2.json
#
# One `go build -o` binary, one foreground process: no `go run`, no `&`,
# no child per workload. Everything is read and written inside the
# checkout (Go's caches included). The script ends by checking that
# nothing it started is still running.
set -uo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root" || exit 2
build="$root/.bench_build"
mkdir -p "$build/tmp" || exit 2

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
# Nothing is downloaded: the module's only requirement is this checkout.
export GOPROXY=off GOTOOLCHAIN=local

# group_pids fills the array pids with the processes of this script's
# process group that are its children or orphans (re-parented to init):
# what it could have started, not what its caller starts beside it. It
# runs in this shell, with no subshell or pipeline that would itself show
# up in the scan.
group_pids() {
	local line rest pid self
	read -r line </proc/$$/stat
	rest="${line##*) }"
	set -- $rest
	self="$3" # field 5 of stat: pgrp
	pids=()
	for f in /proc/[0-9]*/stat; do
		{ read -r line <"$f"; } 2>/dev/null || continue
		pid="${line%% *}"
		rest="${line##*) }"
		set -- $rest
		if [ "$3" = "$self" ] && { [ "$2" = "$$" ] || [ "$2" = 1 ]; }; then
			pids+=("$pid")
		fi
	done
}
group_pids
declare -A before=()
for p in ${pids[@]+"${pids[@]}"}; do before[$p]=1; done

# The benchmark is its own module (bench/go.mod) that replaces the
# repository's module with the checkout it sits in, so the binary is
# always built from this checkout's engine.
(cd bench && go build -o "$build/tlstm-bench" .) || {
	echo "bench/run.sh: build failed" >&2
	exit 2
}

"$build/tlstm-bench" "$@"
rc=$?

# Whatever is in our process group now and was not before is ours.
group_pids
left=""
for p in ${pids[@]+"${pids[@]}"}; do
	[ -n "${before[$p]:-}" ] || left="$left $p"
done
if [ -n "$left" ]; then
	echo "bench/run.sh: processes left running:$left" >&2
	exit 3
fi
exit "$rc"
