# Golden-document check (see rips_golden in CMakeLists.txt): runs TOOL with
# ARGS (one command-line string, split like a shell would) in the current
# directory and compares the document it writes at ACTUAL with the GOLDEN
# file byte for byte. On a mismatch the document is left at ACTUAL for
# diffing.
#
# Inputs: -DTOOL=<executable> -DARGS=<arguments> -DGOLDEN=<file>
#         -DACTUAL=<file the command writes>.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${TOOL}" ${args}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${TOOL} ${ARGS} failed (rc=${rc})")
endif()
file(READ "${GOLDEN}" expected)
file(READ "${ACTUAL}" actual)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${ACTUAL} differs from ${GOLDEN}")
endif()
file(REMOVE "${ACTUAL}")
