# Driver for the store_policy_smoke ctest: the one store= policy that
# `sparkscore` and `bench_scale` share (core::OpenStudy).
#   1. A missing store is staged once (no `.partial` left behind), and the
#      next run reopens it without staging.
#   2. A store holding another cohort (here: another patient count) is
#      refused by both tools with exit 2, and the file stays
#      byte-identical.
#   3. A corrupt store is refused by both tools with a non-zero exit, and
#      the file stays byte-identical.
# A refusal must come with an `error:` line.
# Invoked as:
#   cmake -DSPARKSCORE=<bin> -DBENCH_SCALE=<bin> -DOUT_DIR=<dir>
#         -P store_policy.cmake
file(MAKE_DIRECTORY "${OUT_DIR}")
set(store "${OUT_DIR}/store_policy.ssg")
file(REMOVE "${store}" "${store}.partial")
set(cohort patients=60 snps=80 sets=8)

function(run_tool out_var rc_var)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  set(${out_var} "${out}${err}" PARENT_SCOPE)
  set(${rc_var} "${rc}" PARENT_SCOPE)
endfunction()

# 1. Stage once, then reopen.
run_tool(out rc "${SPARKSCORE}" skat ${cohort} reps=5 "store=${store}")
if(NOT rc EQUAL 0 OR NOT out MATCHES "store: staged")
  message(FATAL_ERROR "first run did not stage the store (exit ${rc}):\n${out}")
endif()
if(EXISTS "${store}.partial")
  message(FATAL_ERROR "staging left ${store}.partial behind")
endif()
run_tool(out rc "${SPARKSCORE}" skat ${cohort} reps=5 "store=${store}")
if(NOT rc EQUAL 0 OR out MATCHES "store: staged")
  message(FATAL_ERROR "second run did not reopen the store (exit ${rc}):\n${out}")
endif()

# Runs both tools against `file` as the store of another cohort and expects
# exit `expect_rc` ("nonzero" for any failure) with the file unchanged.
function(expect_refused file expect_rc)
  file(SHA256 "${file}" before)
  foreach(tool "${SPARKSCORE};skat;reps=5" "${BENCH_SCALE};iters=1")
    run_tool(out rc ${tool} patients=61 snps=80 sets=8 "store=${file}")
    if(expect_rc STREQUAL "nonzero")
      set(refused FALSE)
      if(NOT rc EQUAL 0)
        set(refused TRUE)
      endif()
    else()
      set(refused FALSE)
      if(rc EQUAL expect_rc)
        set(refused TRUE)
      endif()
    endif()
    if(NOT refused OR NOT out MATCHES "error: ")
      message(FATAL_ERROR "${tool} store=${file}: exit ${rc}, expected "
                          "${expect_rc} with an error line:\n${out}")
    endif()
    file(SHA256 "${file}" after)
    if(NOT before STREQUAL after)
      message(FATAL_ERROR "${tool} changed ${file}")
    endif()
  endforeach()
endfunction()

# 2. Another cohort's store.
expect_refused("${store}" 2)

# 3. A corrupt store: a file of the right name but no store header.
set(corrupt "${OUT_DIR}/store_policy_corrupt.ssg")
string(REPEAT "not a genotype store\n" 16 junk)
file(WRITE "${corrupt}" "${junk}")
expect_refused("${corrupt}" nonzero)
message(STATUS "store_policy_smoke: OK")
