# Driver for the bench_smoke ctest: runs bench_caching twice at tiny
# scale — once with per-replicate scheduling (batch=1), once batched
# (batch=64) — and asserts via the run-metrics counters that both reached
# bitwise-identical resampling results (`resampling.result_hash`); then a
# third constrained-budget run in the paper-faithful cost regime, checked
# by check_spill_benefit.py (reload-from-spill must beat recompute).
# Invoked as:
#   cmake -DBENCH=<bench_caching bin> -DPYTHON=<python3>
#         -DCHECK=<check_batch_equivalence.py>
#         -DCHECK_SPILL=<check_spill_benefit.py> -DOUT_DIR=<dir>
#         -P bench_smoke.cmake
file(MAKE_DIRECTORY "${OUT_DIR}")
set(scale "snps_small=80" "snps_large=160" "patients=30" "reps=1" "faithful=0")

foreach(batch 1 64)
  set(metrics_file "${OUT_DIR}/bench_smoke.batch${batch}.metrics.json")
  execute_process(
    COMMAND "${BENCH}" ${scale} "batch=${batch}" "metrics=${metrics_file}"
    RESULT_VARIABLE run_result
    OUTPUT_QUIET
  )
  if(NOT run_result EQUAL 0)
    message(FATAL_ERROR "bench_caching batch=${batch} failed (exit ${run_result})")
  endif()
endforeach()

execute_process(
  COMMAND "${PYTHON}" "${CHECK}"
          "${OUT_DIR}/bench_smoke.batch1.metrics.json"
          "${OUT_DIR}/bench_smoke.batch64.metrics.json"
  RESULT_VARIABLE check_result
)
if(NOT check_result EQUAL 0)
  message(FATAL_ERROR "batch=1 and batch=64 runs disagree (exit ${check_result})")
endif()

# Third run: constrained budget only (mode=budget), paper-faithful scores,
# enough patients that recomputing a U partition is clearly costlier than
# reloading its spilled bytes. batch=4 over 40 iterations gives ten engine
# passes, so spilled partitions are reloaded many times. Each configuration
# runs 5 times and the bench compares medians: a single millisecond-scale
# rep let one noisy run decide the strict reload < recompute check.
set(spill_metrics "${OUT_DIR}/bench_smoke.spill.metrics.json")
set(spill_stdout "${OUT_DIR}/bench_smoke.spill.stdout.txt")
execute_process(
  COMMAND "${BENCH}" "mode=budget" "faithful=1" "patients=120" "snps_small=80"
          "budget_iters=40" "batch=4" "reps=5" "metrics=${spill_metrics}"
  RESULT_VARIABLE spill_result
  OUTPUT_FILE "${spill_stdout}"
)
if(NOT spill_result EQUAL 0)
  message(FATAL_ERROR "bench_caching mode=budget failed (exit ${spill_result})")
endif()
execute_process(
  COMMAND "${PYTHON}" "${CHECK_SPILL}" "${spill_metrics}" "${spill_stdout}"
  RESULT_VARIABLE spill_check
)
if(NOT spill_check EQUAL 0)
  message(FATAL_ERROR "spill tier did not beat lineage recompute (exit ${spill_check})")
endif()
