# deadlock_smoke: end-to-end contract for the lock-order analyzer.
#
# 1. `deadlock_abba clean` exits 0 in every configuration.
# 2. `deadlock_abba abba` must die (not exit 0) with "potential deadlock"
#    and BOTH acquisition chains when the analyzer is active, and exit 0
#    when it is compiled out or disabled via SS_LOCK_CHECK=0.
# 3. A clean tier-1 selftest records an acyclic graph with zero rank
#    violations (lock.cycles == 0, lock.rank_violations == 0).
# 4. Bitwise-identity: the selftest's resampling result hash is unchanged
#    when the analyzer is disabled at runtime — the analyzer observes,
#    it never steers.
# Steps 3 and 4 are gated by check_bench.py in same-result mode.
#
# Invoked as:
#   cmake -DABBA=<deadlock_abba> -DSPARKSCORE=<sparkscore> -DPYTHON=<python3>
#         -DOUT_DIR=<dir> -P deadlock_smoke.cmake

foreach(var ABBA SPARKSCORE PYTHON OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "deadlock_smoke: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")

# Is the analyzer compiled in AND runtime-enabled for this build?
execute_process(
  COMMAND "${ABBA}" active
  OUTPUT_VARIABLE active_out
  RESULT_VARIABLE active_rc
  OUTPUT_STRIP_TRAILING_WHITESPACE)
if(NOT active_rc EQUAL 0)
  message(FATAL_ERROR "deadlock_smoke: '${ABBA} active' failed (rc=${active_rc})")
endif()

# --- 1. clean nesting never trips the analyzer -------------------------------
execute_process(
  COMMAND "${ABBA}" clean
  RESULT_VARIABLE clean_rc
  OUTPUT_QUIET ERROR_QUIET)
if(NOT clean_rc EQUAL 0)
  message(FATAL_ERROR "deadlock_smoke: clean sequence failed (rc=${clean_rc})")
endif()

# --- 2. injected ABBA inversion ---------------------------------------------
execute_process(
  COMMAND "${ABBA}" abba
  RESULT_VARIABLE abba_rc
  OUTPUT_VARIABLE abba_out
  ERROR_VARIABLE abba_err)
if(active_out STREQUAL "1")
  if(abba_rc EQUAL 0)
    message(FATAL_ERROR "deadlock_smoke: analyzer active but ABBA inversion "
                        "was NOT detected (exit 0)")
  endif()
  # The report must name the cycle and print both acquisition chains.
  foreach(needle
      "potential deadlock"
      "current acquisition chain"
      "previously recorded chain"
      "abba.outer"
      "abba.inner")
    string(FIND "${abba_err}" "${needle}" pos)
    if(pos EQUAL -1)
      message(FATAL_ERROR "deadlock_smoke: ABBA report missing \"${needle}\":\n${abba_err}")
    endif()
  endforeach()
  message(STATUS "deadlock_smoke: ABBA inversion caught with both chains")

  # Runtime kill-switch: SS_LOCK_CHECK=0 must neuter detection entirely.
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env SS_LOCK_CHECK=0 "${ABBA}" abba
    RESULT_VARIABLE off_rc
    OUTPUT_QUIET ERROR_QUIET)
  if(NOT off_rc EQUAL 0)
    message(FATAL_ERROR "deadlock_smoke: SS_LOCK_CHECK=0 should disable "
                        "detection but abba exited ${off_rc}")
  endif()
else()
  if(NOT abba_rc EQUAL 0)
    message(FATAL_ERROR "deadlock_smoke: analyzer inactive but abba exited "
                        "${abba_rc}:\n${abba_err}")
  endif()
  message(STATUS "deadlock_smoke: analyzer compiled out; ABBA passthrough OK")
endif()

# --- 3. clean tier-1 run: acyclic graph, zero rank violations ----------------
set(metrics_a "${OUT_DIR}/deadlock_metrics_on.json")
set(metrics_b "${OUT_DIR}/deadlock_metrics_off.json")
execute_process(
  COMMAND "${SPARKSCORE}" selftest "metrics=${metrics_a}"
  RESULT_VARIABLE self_rc
  OUTPUT_QUIET)
if(NOT self_rc EQUAL 0)
  message(FATAL_ERROR "deadlock_smoke: selftest failed (rc=${self_rc})")
endif()

# --- 4. same selftest with the analyzer off: result hash identical -----------
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env SS_LOCK_CHECK=0
          "${SPARKSCORE}" selftest "metrics=${metrics_b}"
  RESULT_VARIABLE self_off_rc
  OUTPUT_QUIET)
if(NOT self_off_rc EQUAL 0)
  message(FATAL_ERROR "deadlock_smoke: selftest with SS_LOCK_CHECK=0 failed "
                      "(rc=${self_off_rc})")
endif()

execute_process(
  COMMAND "${PYTHON}" "${CMAKE_CURRENT_LIST_DIR}/check_bench.py"
          "--analyzer-active=${active_out}" "${metrics_a}" "${metrics_b}"
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "deadlock_smoke: metrics check failed (rc=${check_rc})")
endif()

message(STATUS "deadlock_smoke: OK")
