#!/usr/bin/env sh
# ecod smoke: a 3-node real-process cluster on loopback runs a short
# protocol day twice from the same seed, then twice more on a lossy virtual
# fabric (the same config with drop = 0.05 and dup = 0.02). Each pair must
# converge (node 0 exits cleanly with a merged summary) and be
# bit-reproducible (the merged and per-node CSVs diff clean): loss is
# decided in virtual time, so it repeats too. The CSVs stay in
# $OUT/run{1,2} and $OUT/impaired{1,2}; CI uploads run1's as artifacts.
#
# Env: GO (go binary), OUT (work dir, default out-ecod), ECOD_PORT_BASE
# (first of three consecutive loopback ports, default 7131).
set -eu

GO=${GO:-go}
OUT=${OUT:-out-ecod}
BASE=${ECOD_PORT_BASE:-7131}

mkdir -p "$OUT"
"$GO" build -o "$OUT/ecod" ./cmd/ecod

cat > "$OUT/cluster.conf" <<EOF
# 3-node smoke cluster: 24 servers over three shards.
seed = 7
servers = 24
horizon = 2h
initial_vms = 80
arrival_per_hour = 80
mean_lifetime = 45m
scan_interval = 5m
node = 0 127.0.0.1:$BASE 0:8
node = 1 127.0.0.1:$((BASE + 1)) 8:16
node = 2 127.0.0.1:$((BASE + 2)) 16:24
EOF

# The same cluster on a lossy virtual fabric.
cp "$OUT/cluster.conf" "$OUT/impaired.conf"
printf 'drop = 0.05\ndup = 0.02\n' >> "$OUT/impaired.conf"

# run_once CONFIG DIR runs the three nodes from CONFIG.
run_once() {
    "$OUT/ecod" -config "$1" -node 1 -out "$2" &
    p1=$!
    "$OUT/ecod" -config "$1" -node 2 -out "$2" &
    p2=$!
    "$OUT/ecod" -config "$1" -node 0 -out "$2"
    wait "$p1" "$p2"
}

# same A B checks that both runs converged — every node wrote its summary,
# node 0 the merged figure — and wrote the same CSVs, byte for byte.
same() {
    for f in ecod.csv ecod_node0.csv ecod_node1.csv ecod_node2.csv; do
        test -s "$OUT/$1/$f"
        diff "$OUT/$1/$f" "$OUT/$2/$f"
    done
}

run_once "$OUT/cluster.conf" "$OUT/run1"
run_once "$OUT/cluster.conf" "$OUT/run2"
same run1 run2

run_once "$OUT/impaired.conf" "$OUT/impaired1"
run_once "$OUT/impaired.conf" "$OUT/impaired2"
same impaired1 impaired2

echo "ecod smoke: 3-node cluster converged and is bit-reproducible, lossy fabric included"
