# Driver for the smoke ctests that run one or more programs and then gate
# on what they wrote with one checker. RUN holds the programs and their
# arguments, one after another and separated by THEN, run in order; CHECK
# is the checker command and its arguments. Any of them exiting non-zero
# fails the test. FRESH, when set, names a file deleted before the first
# run (an artifact from an earlier build a program would otherwise reopen).
# Invoked as:
#   cmake "-DRUN=<program>;<arg>...[;THEN;<program>;<arg>...]..."
#         "-DCHECK=<command>;<arg>..." -DOUT_DIR=<dir> [-DFRESH=<file>]
#         -P run_then_check.cmake
file(MAKE_DIRECTORY "${OUT_DIR}")
if(FRESH)
  file(REMOVE "${FRESH}")
endif()

set(program "")
foreach(arg IN LISTS RUN ITEMS THEN)
  if(NOT arg STREQUAL "THEN")
    list(APPEND program "${arg}")
    continue()
  endif()
  execute_process(COMMAND ${program} RESULT_VARIABLE run_result OUTPUT_QUIET)
  if(NOT run_result EQUAL 0)
    string(REPLACE ";" " " command "${program}")
    message(FATAL_ERROR "${command} failed (exit ${run_result})")
  endif()
  set(program "")
endforeach()

execute_process(COMMAND ${CHECK} RESULT_VARIABLE check_result)
if(NOT check_result EQUAL 0)
  string(REPLACE ";" " " checker "${CHECK}")
  message(FATAL_ERROR "gate failed (exit ${check_result}): ${checker}")
endif()
