# Driver for the perm_batch_smoke ctest: runs `sparkscore skat
# method=perm` three times on the same small cohort — per-replicate
# scheduling (batch=1), batched (batch=8), and batched over unpacked
# genotypes (batch=8 pack=0) — each writing a run-metrics artifact, and
# asserts with check_batch_equivalence.py that all three reached the same
# `resampling.result_hash`: permutation score blocks are bitwise invariant
# to the batch size and to the genotype storage format.
# Invoked as:
#   cmake -DSPARKSCORE=<sparkscore bin> -DPYTHON=<python3>
#         -DCHECK=<check_batch_equivalence.py> -DOUT_DIR=<dir>
#         -P perm_batch_smoke.cmake
file(MAKE_DIRECTORY "${OUT_DIR}")
set(study "method=perm" "patients=120" "snps=400" "sets=20" "reps=40")

set(runs "batch1" "batch8" "batch8_pack0")
set(args_batch1 "batch=1")
set(args_batch8 "batch=8")
set(args_batch8_pack0 "batch=8" "pack=0")

foreach(run ${runs})
  set(metrics_file "${OUT_DIR}/perm_batch_smoke.${run}.metrics.json")
  execute_process(
    COMMAND "${SPARKSCORE}" skat ${study} ${args_${run}}
            "metrics=${metrics_file}"
    RESULT_VARIABLE run_result
    OUTPUT_QUIET
  )
  if(NOT run_result EQUAL 0)
    message(FATAL_ERROR "sparkscore skat ${run} failed (exit ${run_result})")
  endif()
endforeach()

foreach(run "batch8" "batch8_pack0")
  execute_process(
    COMMAND "${PYTHON}" "${CHECK}"
            "${OUT_DIR}/perm_batch_smoke.batch1.metrics.json"
            "${OUT_DIR}/perm_batch_smoke.${run}.metrics.json"
    RESULT_VARIABLE check_result
  )
  if(NOT check_result EQUAL 0)
    message(FATAL_ERROR
            "permutation batch1 and ${run} runs disagree (exit ${check_result})")
  endif()
endforeach()
