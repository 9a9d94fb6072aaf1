#!/usr/bin/env bash
# Runs the tier-1 ctest suite under every sanitizer configuration.
#
#   tools/verify_matrix.sh [plain|address|undefined|address,undefined|thread ...]
#
# With no arguments, runs the full matrix: plain RelWithDebInfo, then
# address+undefined combined, then thread. Each configuration builds into
# its own build-verify-<name> directory so the matrix is incremental across
# invocations. The suite includes the cache-budget tests (CacheBudgetTest,
# BudgetSoakMatrix, the node-failure fault tests), so concurrent
# evict/recompute, the prefetch lane's store fetches and node-failure drops
# all run under ASan/UBSan and TSan here. Any unsuppressed sanitizer
# report fails the corresponding
# ctest run (UBSan is built with -fno-sanitize-recover=all; ASan and TSan
# are fail-by-default). Suppressions live in tools/sanitizers/ — see
# docs/STATIC_ANALYSIS.md before adding one.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
CONFIGS=("$@")
if [ ${#CONFIGS[@]} -eq 0 ]; then
  CONFIGS=(plain address,undefined thread)
fi

export ASAN_OPTIONS="${ASAN_OPTIONS:-strict_string_checks=1:detect_stack_use_after_return=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:suppressions=$ROOT/tools/sanitizers/ubsan.supp}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-suppressions=$ROOT/tools/sanitizers/tsan.supp:history_size=7}"
export LSAN_OPTIONS="${LSAN_OPTIONS:-suppressions=$ROOT/tools/sanitizers/lsan.supp}"

failures=()
for config in "${CONFIGS[@]}"; do
  name="${config//,/ -}"
  dir="$ROOT/build-verify-${config//,/-}"
  echo "==== verify_matrix: $name -> $dir ===="
  sanitize=""
  [ "$config" != "plain" ] && sanitize="$config"
  cmake -S "$ROOT" -B "$dir" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSPARKSCORE_SANITIZE="$sanitize" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  if ctest --test-dir "$dir" --output-on-failure -j "$JOBS"; then
    echo "==== verify_matrix: $name OK ===="
  else
    echo "==== verify_matrix: $name FAILED ===="
    failures+=("$name")
  fi
done

if [ ${#failures[@]} -gt 0 ]; then
  echo "verify_matrix: FAILED configurations: ${failures[*]}" >&2
  exit 1
fi
echo "verify_matrix: all configurations passed (${CONFIGS[*]})"
