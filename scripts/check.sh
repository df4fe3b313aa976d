#!/usr/bin/env bash
# Tier-1 gate: build and run the full test suite plain, under ASan, and under
# UBSan. Each configuration builds into its own tree so switching sanitizers
# never poisons an existing build.
#
#   scripts/check.sh                      # all three configurations
#   scripts/check.sh plain                # just the plain build
#   scripts/check.sh asan ubsan           # a subset
#   scripts/check.sh host                 # host_test (sessions/volume/
#                                         # scheduler) alone, under ASan
#   scripts/check.sh --sweep-seeds=500    # crash states per sweep config
#   scripts/check.sh --link-fault-seeds=200  # link-fault sweep seeds
#   scripts/check.sh --array-sweep-seeds=100 # per-member cut points/victim
#
# --sweep-seeds=N sets XFTL_SWEEP_SEEDS for the randomized crash sweep
# (tests/crash_sweep_test.cc): N seeded power-cut points per (journal mode x
# FTL) configuration, each checked for ACID invariants and a clean xftl_fsck
# after recovery, plus N/10 double-crash rows per (journal mode x FTL x
# commit mode). The test default is 200.
#
# --link-fault-seeds=N sets XFTL_LINK_FAULT_SEEDS for the randomized SATA
# link-fault sweep (tests/link_fault_test.cc): N seeded runs of probabilistic
# CRC/timeout/abort injection, each verified for zero silent data loss. The
# test default is 40.
#
# --array-sweep-seeds=N sets XFTL_ARRAY_SWEEP_SEEDS for the per-member crash
# sweep (tests/array_sweep_test.cc): N seeded cut points per victim member of
# a 3-device striped volume (3N total), each recovered via the commit-record
# protocol and checked for cross-device atomicity. The test default is 8.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
CONFIGS=()
for arg in "$@"; do
  case "${arg}" in
    --sweep-seeds=*) export XFTL_SWEEP_SEEDS="${arg#--sweep-seeds=}" ;;
    --link-fault-seeds=*) export XFTL_LINK_FAULT_SEEDS="${arg#--link-fault-seeds=}" ;;
    --array-sweep-seeds=*) export XFTL_ARRAY_SWEEP_SEEDS="${arg#--array-sweep-seeds=}" ;;
    *) CONFIGS+=("${arg}") ;;
  esac
done
if [ ${#CONFIGS[@]} -eq 0 ]; then
  CONFIGS=(plain asan ubsan)
fi

run_config() {
  local name="$1"
  shift
  local dir="build-${name}"
  echo "=== ${name}: configure + build (${dir}) ==="
  cmake -B "${dir}" -S . "$@" > /dev/null
  cmake --build "${dir}" -j "${JOBS}" > /dev/null
  echo "=== ${name}: ctest ==="
  (cd "${dir}" && ctest -j "${JOBS}" --output-on-failure)
}

# Targeted gate for the multi-session host layer: builds only host_test in
# the ASan tree and runs it directly. Much faster than a full `asan` pass
# when iterating on src/host/.
run_host() {
  local dir="build-asan"
  echo "=== host: configure + build host_test (${dir}, ASan) ==="
  cmake -B "${dir}" -S . -DXFTL_ASAN=ON -DXFTL_UBSAN=OFF > /dev/null
  cmake --build "${dir}" -j "${JOBS}" --target host_test > /dev/null
  echo "=== host: host_test (ASan) ==="
  "./${dir}/tests/host_test"
}

for cfg in "${CONFIGS[@]}"; do
  case "${cfg}" in
    plain) run_config plain -DXFTL_ASAN=OFF -DXFTL_UBSAN=OFF ;;
    asan)  run_config asan -DXFTL_ASAN=ON -DXFTL_UBSAN=OFF ;;
    ubsan) run_config ubsan -DXFTL_ASAN=OFF -DXFTL_UBSAN=ON ;;
    host)  run_host ;;
    *) echo "unknown configuration: ${cfg} (plain|asan|ubsan|host)" >&2; exit 2 ;;
  esac
done

echo "all configurations passed"
