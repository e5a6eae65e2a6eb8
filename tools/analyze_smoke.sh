#!/bin/sh
# `analyze` has one production path (columns -> Engine): the report
# and the alarm store must not depend on --bin-cache nor on whether the
# feed streamed bin by bin or had to be analysed whole, and a bad
# campaign file must end in one error line, not a traceback, leaving
# no store, cache or temp file behind.  No process may outlive a
# command: a monitor that stops early and an analyze that fails must
# both have reaped their decoder process.
# Needs PYTHONPATH=src (the Makefile and CI set it), setsid and pgrep.
set -eu
PYTHON=${PYTHON:-python}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
feed=$work/feed.jsonl

$PYTHON -m repro generate --hours 6 --seed 3 --probes 12 \
    --scenario outage --out "$feed"
# Time-reversed: no bin closes before the end of the file.  Rotated
# (the first bin's lines moved to the end): the stream drops them as
# late, so the run is redone over the whole campaign.
tac "$feed" > "$work/reversed.jsonl"
tail -n +101 "$feed" > "$work/rotated.jsonl"
head -n 100 "$feed" >> "$work/rotated.jsonl"

run() {
    name=$1
    source=$2
    shift 2
    $PYTHON -m repro analyze "$source" --seed 3 --probes 12 --json \
        --store "$work/$name.store" "$@" > "$work/$name.json"
}

same() {
    first=$1
    shift
    for name in "$@"; do
        cmp "$work/$first.json" "$work/$name.json"
        for segment in "$work/$first".store/*.seg; do
            cmp "$segment" "$work/$name.store/$(basename "$segment")"
        done
    done
}

# `session NAME COMMAND...` runs the command as the leader of a new
# session, whose id goes to $work/NAME.sid; `none_left NAME` fails if
# any process of that session is still there.
session() {
    sid=$work/$1.sid
    shift
    setsid -w sh -c 'echo $$ > "$0"; exec "$@"' "$sid" "$@"
}
none_left() {
    if pgrep -s "$(cat "$work/$1.sid")"; then
        echo "analyze smoke: a process outlived the $1 command" >&2
        exit 1
    fi
}

run default "$feed"
run cache "$feed" --bin-cache       # cold: streams and spools feed.jsonl.binc
# The benchmark ledger's replay command, warm: streams the cache a chunk
# of rows at a time.  It still passes --shards 2, which analyze accepts
# and ignores.
run ledger "$feed" --bin-cache --shards 2
# Warm with --checkpoint: the one cache hit that maps the whole cache.
run checkpoint "$feed" --bin-cache --checkpoint "$work/feed.ckpt"
same default cache ledger checkpoint
for order in reversed rotated; do
    run "$order" "$work/$order.jsonl"
    run "$order-cold" "$work/$order.jsonl" --bin-cache
    run "$order-warm" "$work/$order.jsonl" --bin-cache
    same "$order" "$order-cold" "$order-warm"
done

mkdir "$work/torn"
torn=$work/torn/torn.jsonl
head -n 1500 "$feed" > "$torn"
sed -n 1501p "$feed" | head -c 200 >> "$torn"
echo >> "$torn"
tail -n +1502 "$feed" >> "$torn"
status=0
session torn $PYTHON -m repro analyze "$torn" --seed 3 --probes 12 \
    --store "$work/torn/store" --bin-cache \
    > /dev/null 2> "$work/torn.err" || status=$?
none_left torn
cat "$work/torn.err"
[ "$status" -eq 1 ]
grep -q "^repro: error: $torn: line 1501: " "$work/torn.err"
! grep -q Traceback "$work/torn.err"
[ "$(ls -A "$work/torn")" = torn.jsonl ]
# A monitor stopped after two bins, its decoder still feeding it.
session monitor $PYTHON -m repro monitor "$feed" --seed 3 --probes 12 \
    --max-bins 2 > "$work/monitor.out"
none_left monitor
grep -q "^monitor done: 2 bins" "$work/monitor.out"
echo "analyze smoke: 3 runs byte-identical for each of 3 input orders," \
    "warm --checkpoint run identical, truncated feed rejected cleanly," \
    "no process left after a failed analyze or a stopped monitor"
