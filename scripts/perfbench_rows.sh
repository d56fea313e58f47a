#!/usr/bin/env sh
# Perfbench trajectory: runs the repository benchmark (perfbench/run.sh) on
# every workload, once with --trace 0 (end-to-end metrics) and once with
# --trace 1 (per-layer shares), and appends one JSON line per run to
# out/BENCH_perfbench.jsonl:
#
#   {"rev":"<git describe --always --dirty>","workload":"daily","seed":1,
#    "seconds":20,"trace":0,"result":<perfbench's result line>}
#
# Start it from the repository root:
#
#   sh scripts/perfbench_rows.sh SEED SECONDS
#
# It exits non-zero, without appending the row, when a run fails or its
# result is not "correct":true or reports failed runs.
set -eu

if [ $# -ne 2 ]; then
	echo "usage: sh scripts/perfbench_rows.sh SEED SECONDS" >&2
	exit 2
fi
seed=$1
seconds=$2
for n in "$seed" "$seconds"; do
	case $n in
	'' | *[!0-9]*)
		echo "perfbench_rows: SEED and SECONDS must be whole numbers, got '$n'" >&2
		exit 2
		;;
	esac
done

# Taken once, before the first row makes the tree dirty.
rev=$(git describe --always --dirty)
rows=out/BENCH_perfbench.jsonl
mkdir -p out

for workload in daily steadyband protocolday ecod2; do
	for trace in 0 1; do
		result=$(sh perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)
		case $result in
		*'"correct":true'*'"failed":0,'*) ;;
		*)
			echo "perfbench_rows: $workload --trace $trace did not pass: $result" >&2
			exit 1
			;;
		esac
		printf '{"rev":"%s","workload":"%s","seed":%s,"seconds":%s,"trace":%s,"result":%s}\n' \
			"$rev" "$workload" "$seed" "$seconds" "$trace" "$result" >>"$rows"
		echo "perfbench_rows: $workload --trace $trace: $result" >&2
	done
done
