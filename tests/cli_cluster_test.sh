#!/bin/sh
# Runs one distributed simulation through mlsim_cli: a coordinator on an
# ephemeral port with --verify, and one worker joined to the port the
# coordinator prints. Fails unless both exit 0 and the coordinator prints
# the exact merged CPI, bit-identical to the in-process run.
#
#   sh cli_cluster_test.sh path/to/mlsim_cli scratch-dir
cli=$1
dir=$2
mkdir -p "$dir" || exit 1
out=$dir/cli_cluster_coordinator.out
# Empty the output before the coordinator starts, so the port read below
# never comes from an earlier run's file.
: >"$out"
"$cli" coordinator xz 2000 --port=0 --workers=1 --verify >"$out" 2>&1 &
coord=$!

port=
tries=0
while [ -z "$port" ] && [ "$tries" -lt 300 ]; do
  port=$(sed -n 's/^coordinator listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$out")
  [ -n "$port" ] || sleep 0.1
  tries=$((tries + 1))
done
if [ -z "$port" ]; then
  kill "$coord" 2>/dev/null
  wait "$coord"
  echo "coordinator printed no port:"
  cat "$out"
  exit 1
fi

"$cli" worker --connect=127.0.0.1:"$port" >"$dir/cli_cluster_worker.out" 2>&1
worker_rc=$?
[ "$worker_rc" -eq 0 ] || kill "$coord" 2>/dev/null
wait "$coord"
coord_rc=$?
cat "$out" "$dir/cli_cluster_worker.out"
[ "$worker_rc" -eq 0 ] && [ "$coord_rc" -eq 0 ] &&
  grep -q "^distributed (4 sub-traces, 1 GPU blocks): CPI 5\.2075 " "$out" &&
  grep -q "distributed CPI 5\.207500 — bit-identical" "$out"
