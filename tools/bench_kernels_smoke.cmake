# Driver for the bench_kernels_smoke ctest: runs the kernel microbench at
# reduced scale, writing a BENCH_kernels.json datapoint, then gates on it
# with check_kernel_speedup.py (bitwise cross-level and sparse-vs-dense
# identity and the ~4x packing ratio always; the >= 1.5x AVX2-vs-scalar
# MAC speedup and the >= 1.4x AVX2 sparse-vs-dense speedup only on an
# optimized, unsanitized, AVX2-capable host).
# Invoked as:
#   cmake -DBENCH=<bench_kernels bin> -DPYTHON=<python3>
#         -DCHECK=<check_kernel_speedup.py> -DOUT_DIR=<dir>
#         -P bench_kernels_smoke.cmake
file(MAKE_DIRECTORY "${OUT_DIR}")
set(datapoint "${OUT_DIR}/BENCH_kernels.json")

execute_process(
  COMMAND "${BENCH}" "patients=2048" "count=128" "iters=30" "snps=256"
          "out=${datapoint}"
  RESULT_VARIABLE run_result
  OUTPUT_QUIET
)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "bench_kernels failed (exit ${run_result})")
endif()

execute_process(
  COMMAND "${PYTHON}" "${CHECK}" "${datapoint}"
  RESULT_VARIABLE check_result
)
if(NOT check_result EQUAL 0)
  message(FATAL_ERROR "kernel speedup/packing gate failed (exit ${check_result})")
endif()
