# Driver for the perm_batch_smoke ctest: runs `sparkscore skat` on the
# same small cohort for both genotype-scoring resampling methods — per-
# replicate scheduling (batch=1), batched (batch=8), and batched over
# unpacked genotypes (batch=8 pack=0) — for `method=perm` and
# `method=mc`, plus `model=gaussian method=mc` at batch=1 and batch=8.
# Each run writes a run-metrics artifact, and check_batch_equivalence.py
# asserts that every batched run reached its batch=1 run's
# `resampling.result_hash`: permutation and Monte Carlo score blocks are
# bitwise invariant to the batch size and to the genotype storage format.
# Invoked as:
#   cmake -DSPARKSCORE=<sparkscore bin> -DPYTHON=<python3>
#         -DCHECK=<check_batch_equivalence.py> -DOUT_DIR=<dir>
#         -P perm_batch_smoke.cmake
file(MAKE_DIRECTORY "${OUT_DIR}")
set(study "patients=120" "snps=400" "sets=20" "reps=40")

set(runs "perm_batch1" "perm_batch8" "perm_batch8_pack0"
         "mc_batch1" "mc_batch8" "mc_batch8_pack0"
         "gaussian_mc_batch1" "gaussian_mc_batch8")
set(args_perm_batch1 "method=perm" "batch=1")
set(args_perm_batch8 "method=perm" "batch=8")
set(args_perm_batch8_pack0 "method=perm" "batch=8" "pack=0")
set(args_mc_batch1 "method=mc" "batch=1")
set(args_mc_batch8 "method=mc" "batch=8")
set(args_mc_batch8_pack0 "method=mc" "batch=8" "pack=0")
set(args_gaussian_mc_batch1 "model=gaussian" "method=mc" "batch=1")
set(args_gaussian_mc_batch8 "model=gaussian" "method=mc" "batch=8")

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

# Each batched run against the batch=1 run of the same method and model.
set(pairs "perm_batch1:perm_batch8" "perm_batch1:perm_batch8_pack0"
          "mc_batch1:mc_batch8" "mc_batch1:mc_batch8_pack0"
          "gaussian_mc_batch1:gaussian_mc_batch8")
foreach(pair ${pairs})
  string(REPLACE ":" ";" pair_runs "${pair}")
  list(GET pair_runs 0 reference)
  list(GET pair_runs 1 run)
  execute_process(
    COMMAND "${PYTHON}" "${CHECK}"
            "${OUT_DIR}/perm_batch_smoke.${reference}.metrics.json"
            "${OUT_DIR}/perm_batch_smoke.${run}.metrics.json"
    RESULT_VARIABLE check_result
  )
  if(NOT check_result EQUAL 0)
    message(FATAL_ERROR "${reference} and ${run} runs disagree "
                        "(exit ${check_result})")
  endif()
endforeach()
