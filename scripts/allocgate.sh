#!/usr/bin/env sh
# Allocation gate: runs every benchmark listed in .github/alloc_ceiling.json
# once (-benchtime=1x) at GOMAXPROCS 1, so the count does not depend on the
# machine's cores, and fails when its allocs/op exceeds the listed count
# plus its slack. Each benchmark's ns/op is printed next to its count but
# not gated. Start it from the repository root:
#
#   sh scripts/allocgate.sh [CEILING_FILE]
#
# The ceiling file names the Go toolchain the counts were recorded with
# ("go": "go1.24.0") and lists one benchmark per line, keys in this order:
#
#   {"bench": "BenchmarkDaily", "pkg": ".", "allocs": 2301, "slack": 5}
#
# An entry in any other shape fails the gate rather than being skipped.
# The counts depend on the Go release (map and slice growth allocate
# differently from one release to the next), so the gate runs the local
# toolchain (GOTOOLCHAIN=local, never a download) and fails at once when it
# is not the recorded one; go.mod's toolchain line pins the same release
# for every CI step. The file is a ratchet: a change that lowers a count
# lowers its "allocs". Env: GO (go binary).
set -eu

GO=${GO:-go}
file=${1:-.github/alloc_ceiling.json}
toolchain=$(sed -n 's/^ *"go": *"\(go[0-9.]*\)".*/\1/p' "$file")
entries=$(sed -n 's/.*"bench": *"\([^"]*\)", *"pkg": *"\([^"]*\)", *"allocs": *\([0-9][0-9]*\), *"slack": *\([0-9][0-9]*\) *}.*/\1 \2 \3 \4/p' "$file")
want=$(grep -o '"bench"' "$file" | wc -l)
parsed=$(if [ -n "$entries" ]; then echo "$entries" | wc -l; else echo 0; fi)
if [ -z "$toolchain" ] || [ "$want" -eq 0 ] || [ "$parsed" -ne "$want" ]; then
	echo "allocgate: $file: toolchain \"$toolchain\"; $want benchmarks listed, $parsed of them on one line as" \
		'{"bench": "Name", "pkg": "path", "allocs": N, "slack": N}' >&2
	exit 2
fi
export GOTOOLCHAIN=local
version=$("$GO" env GOVERSION)
if [ "$version" != "$toolchain" ]; then
	echo "allocgate: the counts in $file were recorded with $toolchain, but the local toolchain is $version" >&2
	exit 2
fi
echo "allocgate: $version"

status=0
while read -r bench pkg allocs slack; do
	ceiling=$((allocs + slack))
	if ! out=$("$GO" test -run '^$' -bench "^$bench\$" -benchtime=1x -benchmem -cpu 1 "$pkg" 2>&1); then
		echo "$out" >&2
		echo "allocgate: $bench did not run" >&2
		status=1
		continue
	fi
	set -- $(echo "$out" | awk -v b="$bench" '$1 == b || index($1, b "-") == 1 {
		for (i = 2; i <= NF; i++) {
			if ($i == "allocs/op") a = $(i - 1)
			if ($i == "ns/op") ns = $(i - 1)
		}
	} END { print a, ns }')
	if [ $# -ne 2 ]; then
		echo "$out" >&2
		echo "allocgate: no allocs/op reported for $bench" >&2
		status=1
		continue
	fi
	got=$1
	if [ "$got" -gt "$ceiling" ]; then
		echo "allocgate: $bench: $got allocs/op exceeds its ceiling $ceiling ($allocs + slack $slack)" >&2
		status=1
		continue
	fi
	echo "allocgate: $bench: $got allocs/op (ceiling $ceiling), $2 ns/op"
	if [ "$got" -lt $((allocs - slack)) ]; then
		echo "allocgate: $bench is below $allocs by more than its slack: lower its count in $file"
	fi
done <<LIST
$entries
LIST
exit $status
