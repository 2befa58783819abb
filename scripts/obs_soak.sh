#!/bin/sh
# Observability soak: boot a 3-daemon UDP fabric with admin listeners, drive
# a membership change, scrape /metrics, /spans, /state and /healthz, and fail
# on empty or malformed output. Scraped files are left in the directory given as $1
# (default: ./obs-soak-artifacts) so CI can upload them as artifacts.
#
# Usage: scripts/obs_soak.sh [artifact-dir]
set -eu
cd "$(dirname "$0")/.."

artifacts="${1:-obs-soak-artifacts}"
mkdir -p "$artifacts"
work="$(mktemp -d)"
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

go build -o "$work/dgmcd" ./cmd/dgmcd

cat > "$work/fabric.topo" <<EOF
switches 3
link 0 1 1ms
link 1 2 1ms
addr 0 127.0.0.1:19700
addr 1 127.0.0.1:19701
addr 2 127.0.0.1:19702
EOF

admin_base=19790
for id in 0 1 2; do
    # Daemons idle on an open stdin pipe until we quit them.
    mkfifo "$work/stdin$id"
    "$work/dgmcd" -topo "$work/fabric.topo" -id "$id" \
        -admin "127.0.0.1:$((admin_base + id))" \
        > "$artifacts/daemon$id.log" 2>&1 < "$work/stdin$id" &
    pids="$pids $!"
    # Keep the fifo's write end open (fd 4+id) for the daemon's lifetime.
    eval "exec $((4 + id))>\"$work/stdin$id\""
done

# Wait for every admin listener to answer.
for id in 0 1 2; do
    i=0
    until curl -sf "http://127.0.0.1:$((admin_base + id))/" > /dev/null; do
        i=$((i + 1))
        [ "$i" -gt 50 ] && { echo "daemon $id admin never came up" >&2; exit 1; }
        sleep 0.1
    done
done

# Drive a membership change: switches 0 and 2 join MC 7. Switch 2 joins
# only once every daemon's replay log holds switch 0's join (or after 5 s),
# so the two joins do not interleave at switch 1.
echo "join 7 both" >&4
i=0
for id in 0 1 2; do
    until curl -sf "http://127.0.0.1:$((admin_base + id))/healthz" |
        python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["event_log_depth"] != 1)'; do
        i=$((i + 1))
        [ "$i" -gt 50 ] && break 2
        sleep 0.1
    done
done
echo "join 7 both" >&6
sleep 2

fail=0
for id in 0 1 2; do
    port=$((admin_base + id))
    curl -sf "http://127.0.0.1:$port/metrics" > "$artifacts/metrics$id.prom"
    curl -sf "http://127.0.0.1:$port/spans" > "$artifacts/spans$id.json"
    curl -sf "http://127.0.0.1:$port/state" > "$artifacts/state$id.json"
    curl -sf "http://127.0.0.1:$port/healthz" > "$artifacts/healthz$id.json"

    # /metrics must be non-empty Prometheus text showing a completed install.
    grep -q '^# TYPE dgmc_machine_installs_total counter$' "$artifacts/metrics$id.prom" || {
        echo "daemon $id: /metrics missing install counter" >&2; fail=1; }
    grep -q "^dgmc_machine_installs_total{switch=\"$id\"} [1-9]" "$artifacts/metrics$id.prom" || {
        echo "daemon $id: /metrics shows no installs" >&2; fail=1; }
    grep -q '^# TYPE dgmc_lsa_batch_seconds histogram$' "$artifacts/metrics$id.prom" || {
        echo "daemon $id: /metrics missing batch histogram" >&2; fail=1; }

    # The two joins sit in every replay log: /healthz and /metrics report
    # how deep it is and what it costs.
    python3 - "$artifacts/healthz$id.json" <<'PY' || { echo "daemon $id: bad /healthz" >&2; fail=1; }
import json, sys
h = json.load(open(sys.argv[1]))
assert h["event_log_depth"] == 2 and h["event_log_bytes"] > 0, h
PY
    grep -q "^dgmc_event_log_bytes{switch=\"$id\"} [1-9]" "$artifacts/metrics$id.prom" || {
        echo "daemon $id: /metrics shows no event log bytes" >&2; fail=1; }

    # /spans must be valid JSON with at least one converged span.
    python3 - "$artifacts/spans$id.json" <<'PY' || { echo "daemon $id: bad /spans" >&2; fail=1; }
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["stats"]["spans"] >= 1, "no spans"
assert doc["stats"]["converged"] >= 1, "no converged span"
assert any(s["installs"] >= 1 for s in doc["spans"]), "no install recorded"
PY

    # /state must list conn 7 with two members.
    python3 - "$artifacts/state$id.json" <<'PY' || { echo "daemon $id: bad /state" >&2; fail=1; }
import json, sys
doc = json.load(open(sys.argv[1]))
conns = {c["conn"]: c for c in doc["connections"]}
assert 7 in conns and sorted(conns[7]["members"]) == [0, 2], conns
PY
done

# Merge the three daemons' spans: the chain of switch 0's join must show the
# complete distributed event→flood→recv→install sequence network-wide.
python3 - "$artifacts"/spans0.json "$artifacts"/spans1.json "$artifacts"/spans2.json \
    <<'PY' || { echo "merged spans do not reconstruct the event chain" >&2; fail=1; }
import json, sys
steps = []
for path in sys.argv[1:]:
    for s in json.load(open(path))["spans"]:
        if s["chain"] == "0/1":
            steps.extend(s["steps"])
kinds = {}
for st in steps:
    kinds[st["kind"]] = kinds.get(st["kind"], 0) + 1
assert kinds.get("event") == 1, kinds
assert kinds.get("compute", 0) >= 1, kinds
assert kinds.get("flood", 0) >= 1, kinds
assert kinds.get("recv", 0) >= 1, kinds
assert kinds.get("install", 0) >= 3, kinds
event = min(s["at_ns"] for s in steps if s["kind"] == "event")
last = max(s["at_ns"] for s in steps if s["kind"] == "install")
assert last > event, (event, last)
print("chain 0/1 converged in %.3f ms across 3 daemons" % ((last - event) / 1e6))
PY

for fd in 4 5 6; do
    echo "quit" >&"$fd" || true
done

if [ "$fail" -ne 0 ]; then
    echo "obs soak FAILED (scrapes kept in $artifacts)" >&2
    exit 1
fi
echo "obs soak OK: scrapes in $artifacts" >&2
