# Driver for the profile_smoke ctest: exercises the task-timeline profiler
# end to end.
#   1. A baseline `skat` run with trace=/metrics= artifacts; both are
#      validated by check_trace.py (v4 schema, timeline invariants).
#   2. ss_prof.py --check reconciles the analyzer's critical path against
#      a recomputation from the raw trace and the measured wall-clock.
#   3. A deliberately heavier run (20x the SNPs, 4x the replicates; its
#      critical path is ~50x the light run's) must trip ss_prof.py
#      --compare's regression gate (nonzero exit) against the fastest of
#      three light runs interleaved with it, while comparing the baseline
#      against itself must pass.
#   4. profile=0 must still produce a valid v4 document (timeline section
#      present with collected:false).
# Invoked as:
#   cmake -DSPARKSCORE=<bin> -DPYTHON=<python3> -DCHECK=<check_trace.py>
#         -DPROF=<ss_prof.py> -DOUT_DIR=<dir> -P profile_smoke.cmake
file(MAKE_DIRECTORY "${OUT_DIR}")
set(trace_a "${OUT_DIR}/profile_smoke.a.trace.json")
set(metrics_a "${OUT_DIR}/profile_smoke.a.metrics.json")
set(metrics_a2 "${OUT_DIR}/profile_smoke.a2.metrics.json")
set(metrics_a3 "${OUT_DIR}/profile_smoke.a3.metrics.json")
set(metrics_b "${OUT_DIR}/profile_smoke.b.metrics.json")
set(metrics_off "${OUT_DIR}/profile_smoke.off.metrics.json")

# Baseline run. A single command (not selftest) so the trace holds exactly
# one instance of each stage id for ss_prof.py's trace recomputation.
execute_process(
  COMMAND "${SPARKSCORE}" skat patients=60 snps=400 sets=16 reps=25
          "trace=${trace_a}" "metrics=${metrics_a}"
  RESULT_VARIABLE run_result OUTPUT_QUIET
)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "baseline skat run failed (exit ${run_result})")
endif()

execute_process(
  COMMAND "${PYTHON}" "${CHECK}" "${trace_a}" "${metrics_a}"
  RESULT_VARIABLE check_result
)
if(NOT check_result EQUAL 0)
  message(FATAL_ERROR "check_trace.py rejected the artifacts (exit ${check_result})")
endif()

# Analyzer vs raw trace: critical-path totals must reconcile with each
# other and with the measured wall-clock.
execute_process(
  COMMAND "${PYTHON}" "${PROF}" --check "${metrics_a}" "${trace_a}"
  RESULT_VARIABLE prof_check_result
)
if(NOT prof_check_result EQUAL 0)
  message(FATAL_ERROR "ss_prof.py --check failed (exit ${prof_check_result})")
endif()

# Heavier run: ~50x the light run's critical path (~0.15 s against
# ~3 ms unloaded), on one worker thread so it does not crowd the timing
# gates `ctest -j` runs beside it. A light run's critical path is only a
# few milliseconds, so under a loaded `ctest -j` one light run alone can
# be inflated several-fold; the gate therefore compares against the
# fastest of three light runs taken before and after the heavy one. The
# regression gate must catch it...
execute_process(
  COMMAND "${SPARKSCORE}" skat patients=200 snps=8000 sets=128 reps=100
          threads=1 "metrics=${metrics_b}"
  RESULT_VARIABLE run_result OUTPUT_QUIET
)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "heavy skat run failed (exit ${run_result})")
endif()
foreach(light "${metrics_a2}" "${metrics_a3}")
  execute_process(
    COMMAND "${SPARKSCORE}" skat patients=60 snps=400 sets=16 reps=25
            "metrics=${light}"
    RESULT_VARIABLE run_result OUTPUT_QUIET
  )
  if(NOT run_result EQUAL 0)
    message(FATAL_ERROR "repeat light skat run failed (exit ${run_result})")
  endif()
endforeach()
execute_process(
  COMMAND "${PYTHON}" -c
          "import json, sys; print(min(sys.argv[1:], key=lambda p: json.load(open(p))['timeline']['critical_path']['seconds']), end='')"
          "${metrics_a}" "${metrics_a2}" "${metrics_a3}"
  RESULT_VARIABLE pick_result OUTPUT_VARIABLE fastest_light
)
if(NOT pick_result EQUAL 0)
  message(FATAL_ERROR "could not pick the fastest light run (exit ${pick_result})")
endif()
execute_process(
  COMMAND "${PYTHON}" "${PROF}" --compare "${fastest_light}" "${metrics_b}"
          --threshold 0.5
  RESULT_VARIABLE compare_result ERROR_QUIET OUTPUT_QUIET
)
if(compare_result EQUAL 0)
  message(FATAL_ERROR
    "ss_prof.py --compare did not flag a ~50x-heavier run as a regression")
endif()
# ...while a run compared against itself must not (the generous threshold
# guards only against gross inversions, not timing noise).
execute_process(
  COMMAND "${PYTHON}" "${PROF}" --compare "${metrics_a}" "${metrics_a}"
  RESULT_VARIABLE self_result OUTPUT_QUIET
)
if(NOT self_result EQUAL 0)
  message(FATAL_ERROR
    "ss_prof.py --compare flagged a run against itself (exit ${self_result})")
endif()

# profile=0 ablation: the metrics document must still be valid v4, with
# the timeline marked as not collected.
execute_process(
  COMMAND "${SPARKSCORE}" skat patients=60 snps=400 sets=16 reps=25
          profile=0 "trace=${trace_a}" "metrics=${metrics_off}"
  RESULT_VARIABLE run_result OUTPUT_QUIET
)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "profile=0 skat run failed (exit ${run_result})")
endif()
execute_process(
  COMMAND "${PYTHON}" "${CHECK}" "${trace_a}" "${metrics_off}"
  RESULT_VARIABLE off_result
)
if(NOT off_result EQUAL 0)
  message(FATAL_ERROR
    "check_trace.py rejected the profile=0 artifacts (exit ${off_result})")
endif()
message(STATUS "profile_smoke OK")
