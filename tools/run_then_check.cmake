# Driver for the smoke ctests that run one program and then gate on what
# it wrote with one checker. RUN is the program and its arguments, CHECK
# the checker command and its arguments; either exiting non-zero fails
# the test. FRESH, when set, names a file deleted before the run (an
# artifact from an earlier build the program would otherwise reopen).
# Invoked as:
#   cmake "-DRUN=<program>;<arg>..." "-DCHECK=<command>;<arg>..."
#         -DOUT_DIR=<dir> [-DFRESH=<file>] -P run_then_check.cmake
file(MAKE_DIRECTORY "${OUT_DIR}")
if(FRESH)
  file(REMOVE "${FRESH}")
endif()

execute_process(COMMAND ${RUN} RESULT_VARIABLE run_result OUTPUT_QUIET)
if(NOT run_result EQUAL 0)
  list(GET RUN 0 program)
  message(FATAL_ERROR "${program} failed (exit ${run_result})")
endif()

execute_process(COMMAND ${CHECK} RESULT_VARIABLE check_result)
if(NOT check_result EQUAL 0)
  string(REPLACE ";" " " checker "${CHECK}")
  message(FATAL_ERROR "gate failed (exit ${check_result}): ${checker}")
endif()
