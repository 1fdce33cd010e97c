#!/bin/sh
# Daemon smoke test (CI: daemon-smoke job; locally: make daemon-smoke).
#
# Boots teasrvd with a fresh store, POSTs a tiny Fig 8 matrix, and checks
# the service's core promises end to end:
#   1. the served CSV is byte-identical to the direct library run (teaexp
#      dispatches through the same tea.RunExperiment registry call),
#   2. a re-POST is served entirely from the content-addressed store
#      (zero new simulations, per the X-Tea-Simulated header), and the same
#      request in the default JSON format is a store hit byte-identical to
#      teaexp's JSON,
#   3. an invalid custom machine is answered 400, with the same body
#      bytes every time,
#   4. SIGTERM drains cleanly (exit 0, store compacted),
#   5. SIGTERM under load: a request queued for a run slot gets an
#      immediate 503 instead of a hung connection, while the request
#      already running finishes with 200.
set -eux

ADDR=127.0.0.1:18080
BODY='{"experiment":"fig8","workloads":["bfs","mcf"],"max_instructions":200000,"format":"csv"}'

go build -o teasrvd.bin ./cmd/teasrvd
go build -o teaexp.bin ./cmd/teaexp

rm -rf smoke-store
./teasrvd.bin -listen "$ADDR" -store smoke-store 2> teasrvd.err &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT

for i in $(seq 1 100); do
    curl -sf "http://$ADDR/healthz" > /dev/null && break
    sleep 0.2
done
curl -sf "http://$ADDR/healthz" > /dev/null
curl -sf "http://$ADDR/v1/experiments" | grep -q '"fig8"'

# 1. Daemon report vs direct library run: byte-identical.
curl -sf -D run1.hdr -o served.csv --data-binary "$BODY" "http://$ADDR/v1/run"
./teaexp.bin -exp fig8 -w bfs,mcf -n 200000 -format csv > direct.csv 2> direct.err
diff served.csv direct.csv

# 2. Re-POST: same bytes, zero new simulations, every cell a store hit.
curl -sf -D run2.hdr -o served2.csv --data-binary "$BODY" "http://$ADDR/v1/run"
diff served.csv served2.csv
grep 'X-Tea-Simulated: 0' run2.hdr
grep 'X-Tea-Store-Hits: 6' run2.hdr

#    The same request with no format field: the default JSON, all store hits.
JSONBODY='{"experiment":"fig8","workloads":["bfs","mcf"],"max_instructions":200000}'
curl -sf -D run3.hdr -o served.json --data-binary "$JSONBODY" "http://$ADDR/v1/run"
./teaexp.bin -exp fig8 -w bfs,mcf -n 200000 -format json > direct.json 2> direct.err
diff served.json direct.json
grep 'Content-Type: application/json' run3.hdr
grep 'X-Tea-Error-Rows: 0' run3.hdr
grep 'X-Tea-Simulated: 0' run3.hdr

# 3. An invalid inline spec is the client's error: 400 both times, and the
#    two bodies are byte-identical (violations come in a fixed order).
BAD='{"experiment":"custom","spec":{"frontend":{"width":0}}}'
curl -s -o bad1.txt -w '%{http_code}' --data-binary "$BAD" "http://$ADDR/v1/run" > bad1.code
curl -s -o bad2.txt -w '%{http_code}' --data-binary "$BAD" "http://$ADDR/v1/run" > bad2.code
grep -q '^400$' bad1.code
grep -q '^400$' bad2.code
cmp bad1.txt bad2.txt

# 4. SIGTERM: clean drain, exit 0.
kill -TERM "$pid"
wait "$pid"
trap - EXIT
grep 'drained cleanly' teasrvd.err

# 5. SIGTERM under load: restart with a single run slot, occupy it with a
#    slow uncached request, queue a second one behind it, then drain. The
#    queued request must be answered 503 promptly; the running one 200.
./teasrvd.bin -listen "$ADDR" -store smoke-store -max-concurrent 1 2> teasrvd2.err &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT
for i in $(seq 1 100); do
    curl -sf "http://$ADDR/healthz" > /dev/null && break
    sleep 0.2
done
SLOW='{"experiment":"fig8","workloads":["xz"],"max_instructions":5000000,"format":"csv"}'
curl -s -o /dev/null -w '%{http_code}' --data-binary "$SLOW" "http://$ADDR/v1/run" > slow.code &
slowpid=$!
sleep 1 # the slow request takes the only run slot
curl -s -o /dev/null -w '%{http_code}' --data-binary "$BODY" "http://$ADDR/v1/run" > queued.code &
queuedpid=$!
sleep 0.5 # the second request is now queued for the slot
kill -TERM "$pid"
wait "$queuedpid"
grep -q '^503$' queued.code
wait "$slowpid"
grep -q '^200$' slow.code
wait "$pid"
trap - EXIT
grep 'drained cleanly' teasrvd2.err

rm -rf smoke-store teasrvd.bin teaexp.bin served.csv served2.csv direct.csv \
    served.json direct.json run1.hdr run2.hdr run3.hdr teasrvd.err teasrvd2.err \
    direct.err slow.code queued.code bad1.txt bad2.txt bad1.code bad2.code
echo "daemon smoke: OK"
