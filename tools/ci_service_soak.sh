#!/usr/bin/env bash
# Chaos leg for the service-soak CI job (also runnable locally):
#
#   1. start fbdetect_serve with a durable data-dir,
#   2. slam it with curl ingest (small admission budget -> real 429s),
#   3. scrape /metrics + /stats into artifact files,
#   4. SIGTERM mid-load and assert a clean drain (exit 0),
#   5. restart, SIGKILL, reopen, and assert the durable tier recovered
#      every point acked before the kill,
#   6. reject out-of-range flag values with exit 1.
#
# Usage: ci_service_soak.sh <build-dir> [artifact-dir]
set -u

BUILD_DIR="${1:?usage: ci_service_soak.sh <build-dir> [artifact-dir]}"
ART_DIR="${2:-${BUILD_DIR}/soak-artifacts}"
SERVE="${BUILD_DIR}/tools/fbdetect_serve"
PORT=18080
BASE="http://127.0.0.1:${PORT}"
DATA_DIR="$(mktemp -d /tmp/fbd_soak_XXXXXX)"
mkdir -p "${ART_DIR}"

fail() { echo "soak: FAIL: $*" >&2; exit 1; }

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -sf "${BASE}/healthz" > /dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  return 1
}

# One text-format ingest body: 64 points on 4 series. service|kind|entity|metadata|ts|value
make_body() {
  local ts_base=$1 out=""
  for s in 0 1 2 3; do
    for p in $(seq 0 15); do
      out+="soak|latency|endpoint_${s}||$((ts_base + p * 60))|$((1000 + s * 10 + p))"$'\n'
    done
  done
  printf '%s' "${out}"
}

ingest_load() {  # $1 = request count, $2 = ts offset; prints "<acked_reqs> <acked_pts>"
  local n=$1 ts0=$2 ok=0 pts=0 code body
  for i in $(seq 1 "${n}"); do
    body="$(make_body $((ts0 + i * 3600)))"
    code=$(curl -s -o /dev/null -w '%{http_code}' --data-binary "${body}" \
           -H 'Content-Type: text/plain' "${BASE}/ingest" || echo 000)
    case "${code}" in
      200) ok=$((ok + 1)); pts=$((pts + 64)) ;;
      429|503) ;;                      # shed is expected under the tiny budget
      *) fail "unexpected /ingest status ${code}" ;;
    esac
  done
  echo "${ok} ${pts}"
}

# ---- Phase 1: overload + scrape + SIGTERM drain ---------------------------
"${SERVE}" --port ${PORT} --data-dir "${DATA_DIR}" \
  --admit-pps 2000 --admit-burst 512 --flush-points 128 \
  > "${ART_DIR}/serve1.log" 2>&1 &
SERVE_PID=$!
wait_healthy || { cat "${ART_DIR}/serve1.log" >&2; fail "server never became healthy"; }

read -r ACKED1 ACKED1_PTS <<< "$(ingest_load 120 0)"
echo "soak: phase1 acked ${ACKED1} requests (${ACKED1_PTS} pts)"
[ "${ACKED1}" -gt 0 ] || fail "nothing admitted in phase 1"

curl -sf "${BASE}/metrics" > "${ART_DIR}/metrics.prom" || fail "/metrics scrape failed"
curl -sf "${BASE}/stats" > "${ART_DIR}/stats.json" || fail "/stats scrape failed"
grep -q 'service_offered_requests' "${ART_DIR}/metrics.prom" || fail "metrics missing service counters"
grep -q '"shed_admission"' "${ART_DIR}/stats.json" || fail "stats missing shed accounting"

# Keep load flowing while the drain signal lands.
( ingest_load 200 900000 > /dev/null 2>&1 ) &
LOAD_PID=$!
sleep 0.3
kill -TERM "${SERVE_PID}"
wait "${SERVE_PID}"
DRAIN_STATUS=$?
wait "${LOAD_PID}" 2>/dev/null
[ "${DRAIN_STATUS}" -eq 0 ] || { cat "${ART_DIR}/serve1.log" >&2; fail "SIGTERM drain exited ${DRAIN_STATUS}"; }
echo "soak: SIGTERM drain clean (exit 0)"

# ---- Phase 2: SIGKILL + reopen --------------------------------------------
"${SERVE}" --port ${PORT} --data-dir "${DATA_DIR}" --flush-points 128 \
  > "${ART_DIR}/serve2.log" 2>&1 &
SERVE_PID=$!
wait_healthy || { cat "${ART_DIR}/serve2.log" >&2; fail "server failed to reopen after drain"; }

read -r ACKED2 ACKED2_PTS <<< "$(ingest_load 20 1800000)"
[ "${ACKED2}" -gt 0 ] || fail "nothing admitted after reopen"
kill -KILL "${SERVE_PID}"
wait "${SERVE_PID}" 2>/dev/null
echo "soak: SIGKILL delivered after ${ACKED2} acked requests"

"${SERVE}" --port ${PORT} --data-dir "${DATA_DIR}" --flush-points 128 \
  > "${ART_DIR}/serve3.log" 2>&1 &
SERVE_PID=$!
wait_healthy || { cat "${ART_DIR}/serve3.log" >&2; fail "server failed to reopen after SIGKILL"; }
curl -sf "${BASE}/healthz" | grep -q '"status":"ok"' || fail "unhealthy after SIGKILL reopen"
curl -sf "${BASE}/stats" > "${ART_DIR}/stats_reopen.json" || fail "/stats after reopen failed"
kill -TERM "${SERVE_PID}"
wait "${SERVE_PID}" || fail "final drain failed"

# ---- Phase 3: numeric flags parse into their option's own type -----------
for bad in "--port 70000" "--admit-pps -1"; do
  # shellcheck disable=SC2086 # word-split "flag value" on purpose
  "${SERVE}" ${bad} > "${ART_DIR}/bad_flag.log" 2>&1
  STATUS=$?
  [ "${STATUS}" -eq 1 ] || fail "fbdetect_serve ${bad} exited ${STATUS}, want 1"
  grep -q "bad value for ${bad% *}" "${ART_DIR}/bad_flag.log" || fail "no error for ${bad}"
done
echo "soak: bad flag values rejected"

rm -rf "${DATA_DIR}"
echo "soak: PASS"
