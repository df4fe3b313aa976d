#!/usr/bin/env bash
# Bit-identical output check: runs every bench and example with fixed,
# deterministic flags and compares each stdout byte for byte against
# bench/golden/<name>.out. The simulator runs on a simulated clock with seeded
# RNGs, so any difference is a behaviour change, not noise.
#
#   scripts/golden.sh BUILD_DIR            # check; names the first mismatch
#   scripts/golden.sh BUILD_DIR --update   # rewrite the golden files
#
# BUILD_DIR is a configured and built tree (e.g. build or build-plain).
# Left out: micro_stack (it times the host) and sql_shell (it reads stdin).
# Smoke flags match CI's bench-smoke job where it runs the same bench. The
# runs take about a minute of CPU in total, spread over the available cores.
#
# The trace_* files pin traced runs as well: each bench writes its trace in a
# scratch directory, and the golden file holds the trace's checksum (so the
# capture stream is compared byte for byte) and what xftl_trace reads from it.
set -euo pipefail

cd "$(dirname "$0")/.."
if [ $# -lt 1 ] || [ $# -gt 2 ] || { [ $# -eq 2 ] && [ "$2" != "--update" ]; }; then
  echo "usage: scripts/golden.sh BUILD_DIR [--update]" >&2
  exit 2
fi
BUILD="$(cd "$1" && pwd)"
UPDATE="${2:-}"
GOLDEN=bench/golden

# name|binary (relative to BUILD_DIR) and its flags
RUNS=(
  "ablation_array_faults|bench/ablation_array_faults --json"
  "ablation_barrier|bench/ablation_barrier --json"
  "ablation_faults|bench/ablation_faults --json"
  "ablation_gc|bench/ablation_gc --scale=0.2"
  "ablation_parallelism|bench/ablation_parallelism --writes=1000 --json"
  "ablation_reliability|bench/ablation_reliability --json"
  "ablation_xftl|bench/ablation_xftl"
  "bench_host|bench/bench_host --json"
  "bench_host_barrier_rbj|bench/bench_host --devices=2 --sessions=8 --commit=barrier --setup=rbj --json"
  "bench_host_barrier_wal|bench/bench_host --devices=4 --sessions=8 --commit=barrier --setup=wal --json"
  "bench_host_barrier_xftl|bench/bench_host --devices=2 --sessions=8 --commit=barrier --profile=openssd --json"
  "bench_mvcc|bench/bench_mvcc --json"
  "fig5_synthetic|bench/fig5_synthetic --quick --json"
  "fig6_gc_activity|bench/fig6_gc_activity --json"
  "fig7_smartphone|bench/fig7_smartphone"
  "fig8_fio|bench/fig8_fio --json"
  "fig9_fio_ssd|bench/fig9_fio_ssd --json"
  "table1_io_counts|bench/table1_io_counts"
  "table2_trace_stats|bench/table2_trace_stats"
  "table4_tpcc|bench/table4_tpcc --json"
  "table5_recovery|bench/table5_recovery --runs=2 --json"
  "crash_recovery|examples/crash_recovery"
  "fs_journaling|examples/fs_journaling"
  "quickstart|examples/quickstart"
  "smartphone_apps|examples/smartphone_apps"
  "tpcc_demo|examples/tpcc_demo"
)

# name|binary and flags (its trace goes under the prefix T)|';'-separated
# steps: `cksum FILE`, or an xftl_trace command line.
TRACED=(
  "trace_table4_tpcc|bench/table4_tpcc --txns=100 --json --trace=T|cksum T.X-FTL.write-int.trace;summary T.X-FTL.write-int.trace;replay T.X-FTL.write-int.trace --blocks=256;cksum T.WAL.write-int.trace;summary T.WAL.write-int.trace;replay T.WAL.write-int.trace --blocks=256 --ftl=page"
  "trace_bench_host|bench/bench_host --devices=2 --sessions=8 --commit=barrier --profile=openssd --json --trace=T|cksum T;summary T"
  "trace_bench_mvcc|bench/bench_mvcc --setup=xftl --readers=1 --json --trace=T|cksum T;summary T"
)

# Runs one TRACED entry in its own directory and prints each step's output
# under a `== step` line.
run_traced() {
  local cmd steps words step
  mkdir "${tmp}/$1.d" && cd "${tmp}/$1.d" || return 1
  read -r -a cmd <<< "$2"
  "${BUILD}/${cmd[0]}" "${cmd[@]:1}" > /dev/null || return 1
  IFS=';' read -r -a steps <<< "$3"
  for step in "${steps[@]}"; do
    read -r -a words <<< "${step}"
    echo "== ${step}"
    if [ "${words[0]}" = cksum ]; then
      cksum "${words[1]}" || return 1
    else
      "${BUILD}/tools/xftl_trace" "${words[@]}" || return 1
    fi
  done
}

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT
mkdir -p "${GOLDEN}"

# Every bench is single-threaded: run up to one per core at a time, then
# check in list order so a mismatch names the first file that differs.
JOBS="$(nproc 2>/dev/null || echo 4)"
for entry in "${RUNS[@]}"; do
  name="${entry%%|*}"
  read -r -a cmd <<< "${entry#*|}"
  while [ "$(jobs -rp | wc -l)" -ge "${JOBS}" ]; do wait -n; done
  (
    rc=0
    "${BUILD}/${cmd[0]}" "${cmd[@]:1}" > "${tmp}/${name}.out" \
      2> "${tmp}/${name}.err" || rc=$?
    echo "${rc}" > "${tmp}/${name}.rc"
  ) &
done
for entry in "${TRACED[@]}"; do
  IFS='|' read -r name cmd steps <<< "${entry}"
  while [ "$(jobs -rp | wc -l)" -ge "${JOBS}" ]; do wait -n; done
  (
    rc=0
    run_traced "${name}" "${cmd}" "${steps}" > "${tmp}/${name}.out" \
      2> "${tmp}/${name}.err" || rc=$?
    echo "${rc}" > "${tmp}/${name}.rc"
  ) &
done
wait

for entry in "${RUNS[@]}" "${TRACED[@]}"; do
  name="${entry%%|*}"
  desc="${entry#*|}"
  desc="${desc%%|*}"
  out="${tmp}/${name}.out"
  if [ "$(cat "${tmp}/${name}.rc")" != 0 ]; then
    echo "golden: '${desc}' exited with an error:" >&2
    cat "${tmp}/${name}.err" >&2
    exit 1
  fi
  if [ "${UPDATE}" = "--update" ]; then
    cp "${out}" "${GOLDEN}/${name}.out"
    echo "updated ${GOLDEN}/${name}.out"
  elif ! cmp -s "${out}" "${GOLDEN}/${name}.out"; then
    echo "golden: ${GOLDEN}/${name}.out differs from '${desc}':" >&2
    diff "${GOLDEN}/${name}.out" "${out}" | head -20 >&2 || true
    exit 1
  else
    echo "ok ${name}"
  fi
done
if [ "${UPDATE}" != "--update" ]; then
  echo "golden: all $((${#RUNS[@]} + ${#TRACED[@]})) outputs match ${GOLDEN}/"
fi
