# Refusal check (ctest -L obs): bench_diff given BASELINE and CURRENT must
# exit 2 (a document it cannot gate) with stderr matching STDERR.
#
# Inputs: -DCOMMAND=<bench_diff> -DBASELINE=<file> -DCURRENT=<file>
#         -DSTDERR=<regular expression>.
execute_process(COMMAND "${COMMAND}" "${BASELINE}" "${CURRENT}"
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_VARIABLE out)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got ${rc}\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${STDERR}")
  message(FATAL_ERROR "stderr does not match \"${STDERR}\": ${err}")
endif()
