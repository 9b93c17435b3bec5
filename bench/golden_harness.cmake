# Golden-document check (ctest -L sweep): runs the harness's quick full
# suite under one --strategy and compares its --json document with the
# GOLDEN file byte for byte. On a mismatch the document is left at ACTUAL
# for diffing.
#
# Inputs: -DHARNESS=<executable> -DSTRATEGY=<name> -DGOLDEN=<file>
#         -DACTUAL=<file>.
execute_process(
  COMMAND "${HARNESS}" --suite=full --quick=1 --strategy=${STRATEGY}
          --jobs=2 --json=${ACTUAL}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${HARNESS} failed (rc=${rc})")
endif()
file(READ "${GOLDEN}" expected)
file(READ "${ACTUAL}" actual)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${ACTUAL} differs from ${GOLDEN}")
endif()
file(REMOVE "${ACTUAL}")
