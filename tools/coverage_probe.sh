#!/usr/bin/env bash
# Coverage probe: which src/ code do the consumers run, and which only tests?
#
#   tools/coverage_probe.sh [checkout] [work-dir]
#
# Makes a fresh directory <work-dir>/fbd_coverage_XXXXXX and works only inside
# it: it copies the checkout's tracked and untracked, not-ignored files into
# its src/ (never touching the checkout's build/ or .bench_build/), builds the
# copy with gcov instrumentation and runs three phases over the same counters:
#   1. consumers: fbdetect_sim, the paper benches, the smoke and
#      threads-sweep benches, bench_pyperf_overhead, the examples, the
#      service soak against the instrumented fbdetect_serve, and perfbench's
#      self-test (built instrumented inside the copy);
#   2. fuzz: both fuzzers for 5 s each;
#   3. tests: ctest.
# After each phase it snapshots `gcov --json-format --stdout` into the run
# directory's snapshots/, then prints tools/coverage_classify.py's report:
# function and line counts per class (consumer, fuzz-only, test-only, never),
# the test-only and never lists, and a per-file table.
#
# Report only: it gates nothing and deletes nothing. About 25 minutes on a
# 4-vCPU host. The defaults are the current directory and ${TMPDIR:-/tmp}; the
# work dir may not be the checkout or lie inside it.
set -u

die() { echo "coverage_probe: $*" >&2; exit 1; }

CHECKOUT="$(realpath -e -- "${1:-.}")" && [ -n "${CHECKOUT}" ] || die "no checkout at '${1:-.}'"
[ -f "${CHECKOUT}/src/CMakeLists.txt" ] || die "no src/ in ${CHECKOUT}"
WORK="$(realpath -m -- "${2:-${TMPDIR:-/tmp}}")" && [ -n "${WORK}" ] || die "cannot resolve work dir '${2:-}'"
case "${WORK}/" in
  "${CHECKOUT}/"*) die "work dir ${WORK} must be outside the checkout ${CHECKOUT}" ;;
esac
HERE="$(cd "$(dirname "$0")" && pwd)" || die "cannot find the tools directory"
JOBS="$(nproc)"

mkdir -p -- "${WORK}" || die "cannot create ${WORK}"
RUNDIR="$(mktemp -d "${WORK}/fbd_coverage_XXXXXX")" && [ -n "${RUNDIR}" ] || die "cannot create a run directory in ${WORK}"
COPY="${RUNDIR}/src"
BUILD="${RUNDIR}/build"
SNAP="${RUNDIR}/snapshots"
LOG="${RUNDIR}/logs"
RUN="${RUNDIR}/run"
mkdir "${COPY}" "${SNAP}" "${LOG}" "${RUN}" || die "cannot populate ${RUNDIR}"

echo "coverage_probe: copying ${CHECKOUT} to ${COPY}"
(cd "${CHECKOUT}" && git ls-files -z --cached --others --exclude-standard |
   while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
   tar --null -T - -cf -) | tar -C "${COPY}" -xf - || exit 1

FLAGS="-O1 -g --coverage -fprofile-update=atomic"
echo "coverage_probe: building (${FLAGS})"
cmake -S "${COPY}" -B "${BUILD}" -G Ninja -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="${FLAGS}" -DCMAKE_EXE_LINKER_FLAGS=--coverage > "${LOG}/configure.log" 2>&1 &&
  cmake --build "${BUILD}" -j "${JOBS}" > "${LOG}/build.log" 2>&1 ||
  { echo "coverage_probe: build failed, see ${LOG}" >&2; exit 1; }

# Runs one command in ${RUN} (benches write BENCH_*.json into the cwd) and
# logs it; a failing consumer is reported but does not stop the probe.
step() {
  local name="$1"; shift
  echo "  ${name}"
  if ! (cd "${RUN}" && "$@") > "${LOG}/${name}.log" 2>&1; then
    echo "coverage_probe: '${name}' exited non-zero, see ${LOG}/${name}.log" >&2
  fi
}

snapshot() {
  echo "coverage_probe: snapshot $1"
  (cd "${RUNDIR}" && find "${BUILD}" "${COPY}/.bench_build" -name '*.gcda' -print0 2>/dev/null |
     xargs -0 -r gcov --json-format --stdout 2> "${LOG}/gcov-$1.log" | gzip > "${SNAP}/$1.json.gz")
}

B="${BUILD}/bench"
echo "coverage_probe: phase 1, consumers"
step sim_ci_threads8 "${BUILD}/tools/fbdetect_sim" --json --days 7 --servers 300 --subroutines 50 \
  --regressions 3 --transients 5 --seed 7 --threads 8
step sim_defaults "${BUILD}/tools/fbdetect_sim" --quiet --telemetry-out "${RUN}/sim_telemetry.json"
for bench in fig1_challenges fig2_process_level fig3_subroutine_level fig5_pyperf fig7_wentaway \
             fig8_egads table1_workloads table2_attribution table3_funnel table4_magnitudes \
             rootcause_accuracy appendix_scaling ablation_wentaway ablation_clustering \
             ablation_seasonality fpfn_accounting; do
  step "bench_${bench}" "${B}/bench_${bench}"
done
step bench_ingest_smoke "${B}/bench_ingest_throughput" --smoke
step bench_pipeline_smoke "${B}/bench_pipeline_throughput" --smoke --telemetry-out "${RUN}/telemetry.json"
step bench_funnel_smoke "${B}/bench_funnel_throughput" --smoke
step bench_durable_smoke "${B}/bench_durable_tier" --smoke
step bench_bakeoff_smoke "${B}/bench_detector_bakeoff" --smoke
step bench_robustness_smoke "${B}/bench_robustness" --smoke
step bench_service_smoke "${B}/bench_service" --smoke
step bench_funnel_sweep "${B}/bench_funnel_throughput" --threads-sweep --smoke
step bench_pipeline_sweep "${B}/bench_pipeline_throughput" --threads-sweep --smoke
step bench_pyperf_overhead "${B}/bench_pyperf_overhead"
for example in quickstart serverless_fleet pyperf_demo capacity_triage invoicer; do
  step "example_${example}" "${BUILD}/examples/${example}"
done
step service_soak bash "${COPY}/tools/ci_service_soak.sh" "${BUILD}" "${RUN}/soak-artifacts"
step perfbench_selftest env CXXFLAGS="${FLAGS}" LDFLAGS=--coverage python3 "${COPY}/perfbench/selftest.py"
snapshot consumer

echo "coverage_probe: phase 2, fuzzers"
step fuzz_gorilla "${BUILD}/tools/fuzz_gorilla" 5
step fuzz_wire "${BUILD}/tools/fuzz_wire" 5
snapshot fuzz

echo "coverage_probe: phase 3, ctest"
step ctest ctest --test-dir "${BUILD}" -j "${JOBS}"
grep -E "tests passed|tests failed" "${LOG}/ctest.log"
snapshot test

python3 "${HERE}/coverage_classify.py" --root "${COPY}" \
  "${SNAP}/consumer.json.gz" "${SNAP}/fuzz.json.gz" "${SNAP}/test.json.gz"
