# Driver for the bench_smoke ctest: runs bench_caching twice at tiny
# scale — once with per-replicate scheduling (batch=1), once batched
# (batch=64) — and asserts via the run-metrics counters that both reached
# bitwise-identical resampling results (`resampling.result_hash`).
# Invoked as:
#   cmake -DBENCH=<bench_caching bin> -DPYTHON=<python3>
#         -DCHECK=<check_batch_equivalence.py> -DOUT_DIR=<dir>
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
