#!/bin/sh
# `analyze` has one production path (columns -> Engine): the report
# and the alarm store must not depend on --bin-cache, and a bad campaign
# file must end in one error line, not a traceback.
# Needs PYTHONPATH=src (the Makefile and CI set it).
set -eu
PYTHON=${PYTHON:-python}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
feed=$work/feed.jsonl

$PYTHON -m repro generate --hours 6 --seed 3 --probes 12 \
    --scenario outage --out "$feed"

run() {
    name=$1
    shift
    $PYTHON -m repro analyze "$feed" --seed 3 --probes 12 --json \
        --store "$work/$name.store" "$@" > "$work/$name.json"
}
run default
run cache --bin-cache              # cold: decodes and writes feed.jsonl.binc
# The benchmark ledger's replay command, warm: maps the cache.  It still
# passes --shards 2, which analyze accepts and ignores.
run ledger --bin-cache --shards 2

for name in cache ledger; do
    cmp "$work/default.json" "$work/$name.json"
    for segment in "$work"/default.store/*.seg; do
        cmp "$segment" "$work/$name.store/$(basename "$segment")"
    done
done

head -c 5000 "$feed" > "$work/torn.jsonl"
status=0
$PYTHON -m repro analyze "$work/torn.jsonl" --seed 3 --probes 12 \
    > /dev/null 2> "$work/torn.err" || status=$?
cat "$work/torn.err"
[ "$status" -eq 1 ]
grep -q "^repro: error: $work/torn.jsonl: line " "$work/torn.err"
! grep -q Traceback "$work/torn.err"
echo "analyze smoke: 3 runs byte-identical, truncated feed rejected cleanly"
