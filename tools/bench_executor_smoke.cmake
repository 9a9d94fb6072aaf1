# Driver for the bench_executor_smoke ctest: bench_executor at tiny
# scale, writing a BENCH_executor.json datapoint, gated by
# check_executor_overlap.py (bitwise-identical result hashes between the
# synchronous and overlapped runs, plus structural evidence the I/O lane
# ran: lane jobs and staged Z-blocks). The overlapped
# run's metrics artifact is then cross-checked by check_trace.py so the
# new prefetch/io_wait phases and `prefetch` trace category stay schema-
# valid end to end.
# Invoked as:
#   cmake -DBENCH=<bench_executor bin> -DPYTHON=<python3>
#         -DCHECK=<check_executor_overlap.py> -DCHECK_TRACE=<check_trace.py>
#         -DOUT_DIR=<dir> -P bench_executor_smoke.cmake
# The executor-matrix CI job forces SS_PREFETCH over the whole suite; this
# smoke *is* the sync-vs-overlap comparison, so the override would
# collapse both sides into one configuration. Drop it.
unset(ENV{SS_PREFETCH})

file(MAKE_DIRECTORY "${OUT_DIR}")
set(datapoint "${OUT_DIR}/BENCH_executor.json")
set(metrics "${OUT_DIR}/bench_executor_metrics.json")
set(trace "${OUT_DIR}/bench_executor_trace.json")

execute_process(
  COMMAND "${BENCH}" "patients=60" "snps=200" "sets=20" "reps=1"
          "budget_iters=48" "batch=8" "prefetch=2" "io_threads=2"
          "faithful=1" "trace=${trace}"
          "metrics=${metrics}" "datapoint=${datapoint}"
  RESULT_VARIABLE run_result
  OUTPUT_QUIET
)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "bench_executor failed (exit ${run_result})")
endif()

execute_process(
  COMMAND "${PYTHON}" "${CHECK}" "${datapoint}"
  RESULT_VARIABLE check_result
)
if(NOT check_result EQUAL 0)
  message(FATAL_ERROR "executor overlap gate failed (exit ${check_result})")
endif()

execute_process(
  COMMAND "${PYTHON}" "${CHECK_TRACE}" "${trace}" "${metrics}"
  RESULT_VARIABLE trace_result
)
if(NOT trace_result EQUAL 0)
  message(FATAL_ERROR "executor trace/metrics schema check failed (exit ${trace_result})")
endif()
