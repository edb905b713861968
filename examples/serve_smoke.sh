#!/bin/sh
# End-to-end smoke for the serving subsystem: start twig_serve on an
# ephemeral port, drive it with twig_client (ping, explain, metrics, a
# multi-threaded estimate bench with a snapshot hot-swap mid-run),
# check the observability verbs (stats percentiles, the accuracy
# window, the flight recorder's recent/slow spans), then shut it down
# over the wire and check it exits cleanly. Later runs cover the result
# cache, injected faults, paged storage (with twig_convert re-paging
# the served store) and multi-dataset, multi-tenant serving.
#
#   serve_smoke.sh <twig_serve> <twig_client> <twig_convert> <workdir>
set -eu

SERVE="$1"
CLIENT="$2"
CONVERT="$3"
WORK="$4"

mkdir -p "$WORK"
PORT_FILE="$WORK/port"
LOG="$WORK/serve.log"
rm -f "$PORT_FILE"

# Observability cranked up: every estimate is re-executed exactly
# (--accuracy-sample=1) and a 1 us slow threshold pushes essentially
# every span into the slow log, so the stats/recent checks below see
# a populated accuracy window and slow ring.
"$SERVE" --port=0 --port-file="$PORT_FILE" --bytes=131072 --workers=2 \
    --conns=4 --recorder-entries=256 --slow-us=1 --accuracy-sample=1 \
    >"$LOG" 2>&1 &
SERVE_PID=$!

fail() {
    echo "serve_smoke: $1" >&2
    cat "$LOG" >&2 || true
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
}

# Wait for the server to write its bound port.
tries=0
while [ ! -s "$PORT_FILE" ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || fail "server did not start"
    kill -0 "$SERVE_PID" 2>/dev/null || fail "server died during startup"
    sleep 0.1
done
PORT=$(cat "$PORT_FILE")
echo "serve_smoke: server on port $PORT"

"$CLIENT" --port="$PORT" --op=ping || fail "ping failed"
"$CLIENT" --port="$PORT" --op=estimate --query='article(author, year)' \
    || fail "estimate failed"
"$CLIENT" --port="$PORT" --op=explain --query='article.author' \
    || fail "explain failed"

# Load: 1000 estimates across 4 connections with a snapshot swap once
# 300 have completed. Transport errors or a failed swap exit nonzero.
"$CLIENT" --port="$PORT" --bench --count=1000 --threads=4 --swap-at=300 \
    --space=0.02 || fail "bench with hot swap failed"

# The metrics snapshot must reflect the traffic.
METRICS=$("$CLIENT" --port="$PORT" --op=metrics) || fail "metrics failed"
case "$METRICS" in
  *serve_served*) : ;;
  *) fail "metrics response lacks serve counters: $METRICS" ;;
esac

# stats: latency percentiles for the worked series, and — at sampling
# rate 1 — an accuracy window covering every served estimate.
STATS=$("$CLIENT" --port="$PORT" --op=stats) || fail "stats failed"
case "$STATS" in
  *'"p99_us"'*) : ;;
  *) fail "stats response lacks latency percentiles: $STATS" ;;
esac
case "$STATS" in
  *'"accuracy":{"recorded":0'*) fail "accuracy window is empty: $STATS" ;;
  *'"accuracy":{"recorded":'*) : ;;
  *) fail "stats response lacks the accuracy window: $STATS" ;;
esac
case "$STATS" in
  *'"recorder":{"enabled":true'*) : ;;
  *) fail "stats response lacks recorder occupancy: $STATS" ;;
esac

# recent: the flight recorder retained spans, and the 1 us slow
# threshold forced well-formed slow-log entries (a slow entry carries
# the same keys as a recent span: outcome and per-stage offsets).
RECENT=$("$CLIENT" --port="$PORT" --op=recent) || fail "recent failed"
case "$RECENT" in
  *'"spans":[]'*) fail "flight recorder retained no spans: $RECENT" ;;
  *'"spans":[{"id":'*) : ;;
  *) fail "recent response lacks spans: $RECENT" ;;
esac
case "$RECENT" in
  *'"slow":[{"id":'*) : ;;
  *) fail "slow log is empty despite --slow-us=1: $RECENT" ;;
esac
case "$RECENT" in
  *'"outcome":"served"'*) : ;;
  *) fail "no served span in the recorder: $RECENT" ;;
esac
case "$RECENT" in
  *'"stages_us":{"admitted":'*) : ;;
  *) fail "spans lack per-stage offsets: $RECENT" ;;
esac

"$CLIENT" --port="$PORT" --op=shutdown || fail "shutdown op failed"

# Graceful exit: the server process must stop on its own.
tries=0
while kill -0 "$SERVE_PID" 2>/dev/null; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || fail "server did not stop after shutdown"
    sleep 0.1
done
wait "$SERVE_PID" 2>/dev/null || fail "server exited nonzero"
grep -q "stopped" "$LOG" || fail "server log lacks clean-stop line"

# ---------------------------------------------------------------------------
# Second run: same server with the result cache enabled. The bench
# repeats one query 1000 times with a swap mid-run, so the cache must
# take hits, every (version, query) pair must stay bit-identical
# (twig_client exits nonzero otherwise), and swapping back to the
# original space fraction must reproduce the pre-swap estimate exactly.
rm -f "$PORT_FILE"
LOG="$WORK/serve_cache.log"
"$SERVE" --port=0 --port-file="$PORT_FILE" --bytes=131072 --workers=2 \
    --conns=4 --space=0.01 --cache-entries=1024 >"$LOG" 2>&1 &
SERVE_PID=$!

tries=0
while [ ! -s "$PORT_FILE" ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || fail "cached server did not start"
    kill -0 "$SERVE_PID" 2>/dev/null || fail "cached server died during startup"
    sleep 0.1
done
PORT=$(cat "$PORT_FILE")
echo "serve_smoke: cached server on port $PORT"

# Ground truth at the server's startup snapshot (version 1, space 0.01).
E1_LINE=$("$CLIENT" --port="$PORT" --op=estimate \
    --query='article(author, year)') || fail "cached-server estimate failed"
E1=$(printf '%s' "$E1_LINE" | sed 's/.*"estimate":\([^,}]*\).*/\1/')
[ -n "$E1" ] || fail "could not extract pre-swap estimate: $E1_LINE"

"$CLIENT" --port="$PORT" --bench --count=1000 --threads=4 --swap-at=300 \
    --space=0.02 --min-cached=1 \
    || fail "cached bench with hot swap failed (hits or bit-identity)"

# Swap back to the startup space fraction: the rebuilt snapshot is a
# new version, but the same data at the same budget, so the estimate
# must reproduce E1 bit for bit (printed identically).
"$CLIENT" --port="$PORT" --op=swap --space=0.01 || fail "swap-back failed"
E2_LINE=$("$CLIENT" --port="$PORT" --op=estimate \
    --query='article(author, year)') || fail "post-swap estimate failed"
E2=$(printf '%s' "$E2_LINE" | sed 's/.*"estimate":\([^,}]*\).*/\1/')
[ "$E1" = "$E2" ] || fail "post-swap estimate $E2 != pre-swap $E1"

# The cache counters must show real hits.
METRICS=$("$CLIENT" --port="$PORT" --op=metrics) || fail "cached metrics failed"
case "$METRICS" in
  *'"serve_cache_hits":0'*) fail "cache took no hits: $METRICS" ;;
  *serve_cache_hits*) : ;;
  *) fail "metrics response lacks cache counters: $METRICS" ;;
esac

"$CLIENT" --port="$PORT" --op=shutdown || fail "cached shutdown op failed"
tries=0
while kill -0 "$SERVE_PID" 2>/dev/null; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || fail "cached server did not stop after shutdown"
    sleep 0.1
done
wait "$SERVE_PID" 2>/dev/null || fail "cached server exited nonzero"

# ---------------------------------------------------------------------------
# Third run: the fault path. Arm the snapshot/rebuild failpoint over
# the wire, force a swap to fail, and check that the server keeps
# serving from the last good snapshot, reports itself degraded on the
# health verb, and recovers to ok once a disarmed swap lands.
rm -f "$PORT_FILE"
LOG="$WORK/serve_faults.log"
"$SERVE" --port=0 --port-file="$PORT_FILE" --bytes=131072 --workers=2 \
    --conns=4 --space=0.01 >"$LOG" 2>&1 &
SERVE_PID=$!

tries=0
while [ ! -s "$PORT_FILE" ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || fail "fault server did not start"
    kill -0 "$SERVE_PID" 2>/dev/null || fail "fault server died during startup"
    sleep 0.1
done
PORT=$(cat "$PORT_FILE")
echo "serve_smoke: fault server on port $PORT"

HEALTH=$("$CLIENT" --port="$PORT" --op=health) || fail "health verb failed"
case "$HEALTH" in
  *'"state":"ok"'*) : ;;
  *) fail "fresh server is not healthy: $HEALTH" ;;
esac

"$CLIENT" --port="$PORT" --op=failpoint --spec='snapshot/rebuild=error' \
    || fail "failpoint arm failed"
# The armed failpoint makes the rebuild fail: swap must report the
# injected error (client exits nonzero on the error response)...
"$CLIENT" --port="$PORT" --op=swap --space=0.02 >/dev/null 2>&1 \
    && fail "swap unexpectedly succeeded with snapshot/rebuild armed"
# ...the last good snapshot keeps serving...
"$CLIENT" --port="$PORT" --op=estimate --query='article(author, year)' \
    || fail "estimate failed during degradation"
# ...and health reports degraded with the rebuild failure as reason.
HEALTH=$("$CLIENT" --port="$PORT" --op=health) || fail "health verb failed"
case "$HEALTH" in
  *'"state":"degraded"'*'rebuild failed'*) : ;;
  *) fail "health is not degraded after a failed rebuild: $HEALTH" ;;
esac

# Disarm over the wire; the failpoint stats must show the trigger.
FP=$("$CLIENT" --port="$PORT" --op=failpoint --spec='snapshot/rebuild=off') \
    || fail "failpoint disarm failed"
case "$FP" in
  *'"triggers":0'*) fail "armed failpoint never fired: $FP" ;;
  *'"triggers":'*) : ;;
  *) fail "failpoint list lacks trigger stats: $FP" ;;
esac

# A clean swap lands and clears the degradation.
"$CLIENT" --port="$PORT" --op=swap --space=0.02 || fail "recovery swap failed"
HEALTH=$("$CLIENT" --port="$PORT" --op=health) || fail "health verb failed"
case "$HEALTH" in
  *'"state":"ok"'*) : ;;
  *) fail "health did not recover after a clean swap: $HEALTH" ;;
esac

# Injected estimate faults: shed requests are structured Unavailable
# errors, and --retries rides them out (exit 0 = final answer was ok).
"$CLIENT" --port="$PORT" --op=failpoint --spec='serve/estimate=error:0.5' \
    || fail "failpoint arm (estimate) failed"
"$CLIENT" --port="$PORT" --op=estimate --query='article(author, year)' \
    --retries=10 || fail "retried estimate failed at 50% fault rate"
"$CLIENT" --port="$PORT" --op=failpoint --spec='serve/estimate=off' \
    || fail "failpoint disarm (estimate) failed"

"$CLIENT" --port="$PORT" --op=shutdown || fail "fault shutdown op failed"
tries=0
while kill -0 "$SERVE_PID" 2>/dev/null; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || fail "fault server did not stop after shutdown"
    sleep 0.1
done
wait "$SERVE_PID" 2>/dev/null || fail "fault server exited nonzero"

# ---------------------------------------------------------------------------
# Fourth run: paged storage. First an in-memory reference server for
# ground truth; then a server that writes the same summary to a
# TWCST03 store and serves it through a deliberately tiny buffer pool
# (4 frames of 1 KiB), so answers must be bit-identical while the pool
# demonstrably evicts, and swaps under load replace the store by
# rename. Then corrupt reads are injected over the wire: estimates
# must fail as structured errors (never wrong answers) and health must
# degrade with a storage reason, recovering on swap.
rm -f "$PORT_FILE"
LOG="$WORK/serve_memory_ref.log"
"$SERVE" --port=0 --port-file="$PORT_FILE" --bytes=131072 --workers=2 \
    --conns=4 --space=0.01 >"$LOG" 2>&1 &
SERVE_PID=$!

tries=0
while [ ! -s "$PORT_FILE" ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || fail "reference server did not start"
    kill -0 "$SERVE_PID" 2>/dev/null || fail "reference server died during startup"
    sleep 0.1
done
PORT=$(cat "$PORT_FILE")
echo "serve_smoke: in-memory reference server on port $PORT"

MEM_LINE=$("$CLIENT" --port="$PORT" --op=estimate \
    --query='article(author, year)') || fail "reference estimate failed"
MEM=$(printf '%s' "$MEM_LINE" | sed 's/.*"estimate":\([^,}]*\).*/\1/')
[ -n "$MEM" ] || fail "could not extract reference estimate: $MEM_LINE"
"$CLIENT" --port="$PORT" --op=shutdown || fail "reference shutdown failed"
tries=0
while kill -0 "$SERVE_PID" 2>/dev/null; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || fail "reference server did not stop"
    sleep 0.1
done
wait "$SERVE_PID" 2>/dev/null || fail "reference server exited nonzero"

rm -f "$PORT_FILE"
LOG="$WORK/serve_paged.log"
STORE="$WORK/cst.twcst03"
"$SERVE" --port=0 --port-file="$PORT_FILE" --bytes=131072 --workers=2 \
    --conns=4 --space=0.01 --store-out="$STORE" --page-bytes=1024 \
    --buffer-mb=0.004 >"$LOG" 2>&1 &
SERVE_PID=$!

tries=0
while [ ! -s "$PORT_FILE" ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || fail "paged server did not start"
    kill -0 "$SERVE_PID" 2>/dev/null || fail "paged server died during startup"
    sleep 0.1
done
PORT=$(cat "$PORT_FILE")
echo "serve_smoke: paged server on port $PORT (store $STORE)"
[ -s "$STORE" ] || fail "paged server wrote no store file"

# twig_convert reads the served store: --info names its page size and
# node count, and re-paging to 4 KiB and back to 1 KiB reproduces it
# byte for byte.
INFO=$("$CONVERT" --in="$STORE" --info) || fail "twig_convert --info failed"
case "$INFO" in
  *'1024-byte pages'*) : ;;
  *) fail "twig_convert --info lacks the page size: $INFO" ;;
esac
printf '%s\n' "$INFO" | grep -Eq '^  nodes +[1-9][0-9]*$' \
    || fail "twig_convert --info lacks the node count: $INFO"
"$CONVERT" --in="$STORE" --out="$WORK/cst_4k.twcst03" --page-bytes=4096 \
    >/dev/null || fail "twig_convert could not re-page to 4 KiB"
"$CONVERT" --in="$WORK/cst_4k.twcst03" --out="$WORK/cst_1k.twcst03" \
    --page-bytes=1024 >/dev/null \
    || fail "twig_convert could not re-page back to 1 KiB"
cmp "$STORE" "$WORK/cst_1k.twcst03" \
    || fail "store re-paged to 4 KiB and back differs from the original"

# A summary in the retired whole-blob format (its 8-byte magic, then
# zeros) is not a store: both tools refuse it and print the open error.
OLD="$WORK/whole_blob.cst"
printf 'TWCST02\000' >"$OLD"
head -c 1024 /dev/zero >>"$OLD"
OUT=$("$CONVERT" --in="$OLD" --info 2>&1) \
    && fail "twig_convert accepted a whole-blob summary: $OUT"
case "$OUT" in
  *'not a TWCST03 store'*) : ;;
  *) fail "twig_convert did not print the open error: $OUT" ;;
esac
OUT=$("$SERVE" --port=0 --store="$OLD" 2>&1) \
    && fail "twig_serve served a whole-blob summary: $OUT"
case "$OUT" in
  *'--store: '*'not a TWCST03 store'*) : ;;
  *) fail "twig_serve did not print the open error: $OUT" ;;
esac

# Same generated data, same space budget, served through 1 KiB pages:
# the estimate must reproduce the in-memory answer bit for bit.
PAGED_LINE=$("$CLIENT" --port="$PORT" --op=estimate \
    --query='article(author, year)') || fail "paged estimate failed"
PAGED=$(printf '%s' "$PAGED_LINE" | sed 's/.*"estimate":\([^,}]*\).*/\1/')
[ "$PAGED" = "$MEM" ] || fail "paged estimate $PAGED != in-memory $MEM"

# The 4-frame pool cannot hold a walk's working set: the metrics must
# show the clock actually evicting.
METRICS=$("$CLIENT" --port="$PORT" --op=metrics) || fail "paged metrics failed"
case "$METRICS" in
  *'"storage_page_evictions":0'*) fail "paged serving never evicted: $METRICS" ;;
  *storage_page_evictions*) : ;;
  *) fail "metrics response lacks storage counters: $METRICS" ;;
esac

# The pool is the only copy of the store the server holds: pages are
# read into it with pread, so no mapping names the store file.
if grep -F "$STORE" "/proc/$SERVE_PID/maps" >/dev/null; then
    fail "paged server maps its store: $(grep -F "$STORE" "/proc/$SERVE_PID/maps")"
fi

# Injected checksum corruption: estimates turn into structured errors
# (degraded reads never silently skew an answer)... The failpoint fires
# on page loads, so first swap: the rebuilt store reopens with an empty
# pool, and the estimate must read cold pages.
"$CLIENT" --port="$PORT" --op=swap \
    || fail "paged swap before checksum faults failed"
"$CLIENT" --port="$PORT" --op=failpoint --spec='storage/checksum=error' \
    || fail "failpoint arm (storage/checksum) failed"
"$CLIENT" --port="$PORT" --op=estimate --query='article(author, year)' \
    >/dev/null 2>&1 \
    && fail "estimate unexpectedly succeeded with storage/checksum armed"
# explain runs its estimate off the service queue, and must fail the
# same way rather than trace a number computed from misses.
"$CLIENT" --port="$PORT" --op=explain --query='article(author, year)' \
    >/dev/null 2>&1 \
    && fail "explain unexpectedly succeeded with storage/checksum armed"
# ...and health degrades with the storage reason instead of crashing.
HEALTH=$("$CLIENT" --port="$PORT" --op=health) || fail "health verb failed"
case "$HEALTH" in
  *'"state":"degraded"'*storage*) : ;;
  *) fail "health is not storage-degraded under checksum faults: $HEALTH" ;;
esac

# Disarm; the failpoint stats must show the trigger. Reads work again
# (failed pages were never cached), and a swap — rebuild, replace the
# store, reopen — clears the degradation.
FP=$("$CLIENT" --port="$PORT" --op=failpoint --spec='storage/checksum=off') \
    || fail "failpoint disarm (storage/checksum) failed"
case "$FP" in
  *'"triggers":0'*) fail "armed storage/checksum never fired: $FP" ;;
  *'"triggers":'*) : ;;
  *) fail "failpoint list lacks trigger stats: $FP" ;;
esac
"$CLIENT" --port="$PORT" --op=estimate --query='article(author, year)' \
    || fail "estimate did not recover after disarm"
"$CLIENT" --port="$PORT" --op=swap || fail "paged recovery swap failed"
HEALTH=$("$CLIENT" --port="$PORT" --op=health) || fail "health verb failed"
case "$HEALTH" in
  *'"state":"ok"'*) : ;;
  *) fail "paged health did not recover after swap: $HEALTH" ;;
esac

# A hot swap to another space under load. The rebuild writes the new
# store beside the served one and renames it into place, so the
# snapshot still serving keeps reading its own file; a reader that
# followed a rewritten file would serve one version two distinct
# estimates, which fails the bench.
"$CLIENT" --port="$PORT" --bench --count=1000 --threads=4 --swap-at=300 \
    --space=0.02 || fail "paged bench with hot swap failed"
HEALTH=$("$CLIENT" --port="$PORT" --op=health) || fail "health verb failed"
case "$HEALTH" in
  *'"state":"ok"'*) : ;;
  *) fail "paged health is not ok after a swap under load: $HEALTH" ;;
esac

"$CLIENT" --port="$PORT" --op=shutdown || fail "paged shutdown op failed"
tries=0
while kill -0 "$SERVE_PID" 2>/dev/null; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || fail "paged server did not stop after shutdown"
    sleep 0.1
done
wait "$SERVE_PID" 2>/dev/null || fail "paged server exited nonzero"
# Every store write renamed its temporary file into place.
LEFTOVER=$(find "$WORK" -name '*.tmp.*')
[ -z "$LEFTOVER" ] || fail "temporary store files left in $WORK: $LEFTOVER"

# ---------------------------------------------------------------------------
# Fifth run: multi-dataset, multi-tenant. One server hosts "default"
# plus a second generated dataset "beta", each with its own snapshot
# lineage; tenant "hot" gets a starved token bucket (rate 0.001/s,
# burst 1) while "calm" is unlimited. Checks: estimates route per
# dataset, a beta swap leaves default bit-identical, the throttled
# tenant sees a structured Unavailable with a retry_after_ms hint
# while calm keeps being served, and the epoll front end survives a
# herd of 1000 idle connections without wedging the accept path.
rm -f "$PORT_FILE"
LOG="$WORK/serve_multi.log"
"$SERVE" --port=0 --port-file="$PORT_FILE" --bytes=131072 --workers=2 \
    --conns=4 --space=0.01 --datasets=beta:65536 \
    --tenants='hot=0.001:1:1,calm=0:8:3' >"$LOG" 2>&1 &
SERVE_PID=$!

tries=0
while [ ! -s "$PORT_FILE" ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || fail "multi server did not start"
    kill -0 "$SERVE_PID" 2>/dev/null || fail "multi server died during startup"
    sleep 0.1
done
PORT=$(cat "$PORT_FILE")
echo "serve_smoke: multi-dataset server on port $PORT"

# The same twig against the two datasets hits two different corpora,
# and a routed reply echoes which dataset answered.
DEF_LINE=$("$CLIENT" --port="$PORT" --op=estimate \
    --query='article(author, year)') || fail "default-dataset estimate failed"
DEF=$(printf '%s' "$DEF_LINE" | sed 's/.*"estimate":\([^,}]*\).*/\1/')
[ -n "$DEF" ] || fail "could not extract default estimate: $DEF_LINE"
BETA_LINE=$("$CLIENT" --port="$PORT" --op=estimate --dataset=beta \
    --query='article(author, year)') || fail "beta-dataset estimate failed"
BETA=$(printf '%s' "$BETA_LINE" | sed 's/.*"estimate":\([^,}]*\).*/\1/')
case "$BETA_LINE" in
  *'"dataset":"beta"'*) : ;;
  *) fail "beta reply does not echo its dataset: $BETA_LINE" ;;
esac
[ "$DEF" != "$BETA" ] || fail "datasets served identical estimates: $DEF"

# Unknown datasets are rejected, not silently defaulted.
"$CLIENT" --port="$PORT" --op=ping --dataset=nope >/dev/null 2>&1 \
    && fail "unknown dataset was accepted"

# Per-dataset swap: rebuilding beta at a new space budget bumps only
# beta's lineage; default's estimate stays bit-identical.
"$CLIENT" --port="$PORT" --op=swap --dataset=beta --space=0.02 \
    || fail "beta swap failed"
DEF2_LINE=$("$CLIENT" --port="$PORT" --op=estimate \
    --query='article(author, year)') || fail "post-swap default estimate failed"
DEF2=$(printf '%s' "$DEF2_LINE" | sed 's/.*"estimate":\([^,}]*\).*/\1/')
[ "$DEF" = "$DEF2" ] || fail "beta swap disturbed default: $DEF2 != $DEF"
STATS=$("$CLIENT" --port="$PORT" --op=stats) || fail "multi stats failed"
case "$STATS" in
  *'"beta":{"version":2'*) : ;;
  *) fail "stats does not show beta at version 2: $STATS" ;;
esac
case "$STATS" in
  *'"default":{"version":1'*) : ;;
  *) fail "stats does not show default still at version 1: $STATS" ;;
esac

# Tenant quotas: hot's single-token bucket admits one estimate, then
# sheds with a structured Unavailable carrying a retry hint; calm is
# untouched by hot's throttling.
"$CLIENT" --port="$PORT" --op=estimate --tenant=hot \
    --query='article(author, year)' || fail "hot tenant's first request failed"
THROTTLED=$("$CLIENT" --port="$PORT" --op=estimate --tenant=hot \
    --query='article(author, year)' 2>/dev/null) \
    && fail "hot tenant's second request was not throttled: $THROTTLED"
case "$THROTTLED" in
  *'"code":"Unavailable"'*) : ;;
  *) fail "throttle is not a structured Unavailable: $THROTTLED" ;;
esac
case "$THROTTLED" in
  *'"retry_after_ms":'*) : ;;
  *) fail "throttle carries no retry_after_ms hint: $THROTTLED" ;;
esac
"$CLIENT" --port="$PORT" --op=estimate --tenant=calm \
    --query='article(author, year)' \
    || fail "calm tenant was collaterally throttled"
STATS=$("$CLIENT" --port="$PORT" --op=stats) || fail "tenant stats failed"
case "$STATS" in
  *'"tenant":"hot"'*'"throttled":'*) : ;;
  *) fail "stats lacks per-tenant admission counters: $STATS" ;;
esac

# 1000 idle connections held open must not wedge the accept path or
# starve live traffic (twig_client verifies a fresh connection and an
# idle-herd member both still round-trip a ping).
"$CLIENT" --port="$PORT" --idle-conns=1000 --idle-hold-ms=500 \
    || fail "server wilted under 1000 idle connections"

"$CLIENT" --port="$PORT" --op=shutdown || fail "multi shutdown op failed"
tries=0
while kill -0 "$SERVE_PID" 2>/dev/null; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || fail "multi server did not stop after shutdown"
    sleep 0.1
done
wait "$SERVE_PID" 2>/dev/null || fail "multi server exited nonzero"
echo "serve_smoke: OK"
