# Exit-code check (ctest -L trace-tools): runs COMMAND with ARGS and fails
# unless it exits with EXPECT_RC and its stderr matches EXPECT_MSG. A
# PASS_REGULAR_EXPRESSION alone ignores the exit code, so an abort that
# prints the right message would pass it.
#
# Inputs: -DCOMMAND=<program> -DARGS=<;-list of flags> -DEXPECT_RC=<code>
#         -DEXPECT_MSG=<regex>.
execute_process(COMMAND "${COMMAND}" ${ARGS}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "exit code ${rc}, expected ${EXPECT_RC}\n${out}\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_MSG}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_MSG}':\n${err}")
endif()
