#!/bin/sh
# Crash sweep over dpfrun's --set surface: runs every declared key of every
# SHARDS-th benchmark (shard SHARD, counting in `dpfrun list --long` order
# from 0) with each of the values 0, 3 and 24 at 16 VPs, and fails when any
# run ends by a signal or with an exit code dpfrun does not define. A value
# the runner cannot run must exit 2 with a message naming the key; a run may
# still fail its own residual check (exit 1), but it may not crash.
#
#   usage: set_sweep.sh DPFRUN SHARD SHARDS

dpfrun=$1
shard=$2
shards=$3

cases=$("$dpfrun" list --long |
  sed -n 's/^  \([^ ]*\) *\[[a-z ]*\] knobs: \(.*[^ ]\) *default vps.*/\1 \2/p' |
  awk -v k="$shard" -v n="$shards" '(NR - 1) % n == k')
if [ -z "$cases" ]; then
  echo "set_sweep: no benchmarks in shard $shard of $shards"
  exit 1
fi

bad=$(echo "$cases" | while read -r name knobs; do
  for kv in $knobs; do
    key=${kv%%=*}
    for v in 0 3 24; do
      "$dpfrun" run "$name" --vps=16 --set "$key=$v" >/dev/null 2>&1
      rc=$?
      case $rc in
        0 | 1 | 2) ;;
        *) echo "dpfrun run $name --vps=16 --set $key=$v: exit $rc" ;;
      esac
    done
  done
done)

echo "$cases" | sed 's/^/swept: /'
if [ -n "$bad" ]; then
  echo "$bad"
  exit 1
fi
