# Golden-output check (ctest -L obs): runs COMMAND and compares its stdout
# with the GOLDEN file byte for byte. On a mismatch the actual output is
# written next to the build's other e2e artifacts for diffing.
#
# Inputs: -DCOMMAND=<executable> -DGOLDEN=<file> -DACTUAL=<file>.
execute_process(COMMAND "${COMMAND}" RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${COMMAND} failed (rc=${rc})")
endif()
file(READ "${GOLDEN}" expected)
if(NOT out STREQUAL expected)
  file(WRITE "${ACTUAL}" "${out}")
  message(FATAL_ERROR "stdout differs from ${GOLDEN}; actual output: ${ACTUAL}")
endif()
