# Driver for the cli_rejects_* and bench_rejects_* ctests: runs a tool with
# its base arguments plus one bad key=value token and asserts that the
# tool refuses it before any work — exit code 2, the problem named on
# stderr, and nothing on stdout (no study opened, no banner printed).
# Invoked as:
#   cmake "-DRUN=<program>;<base arg>..." -DBAD=<key=value> -DEXPECT=<regex>
#         -P cli_rejects.cmake
foreach(var RUN BAD EXPECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_rejects.cmake: -D${var}= is required")
  endif()
endforeach()

string(REPLACE ";" " " command "${RUN} ${BAD}")
execute_process(
  COMMAND ${RUN} "${BAD}"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT result EQUAL 2)
  message(FATAL_ERROR "${command}: exit ${result}, expected 2\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "error: [^\n]*${EXPECT}")
  message(FATAL_ERROR "${command}: stderr has no error line matching "
                      "'${EXPECT}':\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${command}: work started before the command line "
                      "was refused:\n${out}")
endif()
message(STATUS "${command}: refused with exit 2")
