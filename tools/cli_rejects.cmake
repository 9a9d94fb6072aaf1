# Driver for the cli_rejects_* ctests: runs `sparkscore skat` with one bad
# key=value token and asserts that the CLI refuses it before any work —
# exit code 2, the problem named on stderr, and no study opened (the
# "study:" line OpenStudy prints never appears).
# Invoked as:
#   cmake -DSPARKSCORE=<sparkscore bin> -DBAD=<key=value> -DEXPECT=<regex>
#         -P cli_rejects.cmake
foreach(var SPARKSCORE BAD EXPECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_rejects.cmake: -D${var}= is required")
  endif()
endforeach()

execute_process(
  COMMAND "${SPARKSCORE}" skat patients=40 snps=80 sets=4 reps=5 "${BAD}"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT result EQUAL 2)
  message(FATAL_ERROR "sparkscore skat ${BAD}: exit ${result}, expected 2\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "sparkscore skat ${BAD}: stderr does not match "
                      "'${EXPECT}':\n${err}")
endif()
if(out MATCHES "study:")
  message(FATAL_ERROR "sparkscore skat ${BAD}: the study ran before the "
                      "command line was refused:\n${out}")
endif()
message(STATUS "sparkscore skat ${BAD}: refused with exit 2")
