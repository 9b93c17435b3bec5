# Schema-mismatch check (ctest -L obs): bench_diff given documents of two
# different schemas must exit 2 and name both schemas on stderr.
#
# Inputs: -DCOMMAND=<bench_diff> -DBASELINE=<rips-bench-v1 file>
#         -DCURRENT=<rips-timeseries-v1 file>.
execute_process(COMMAND "${COMMAND}" "${BASELINE}" "${CURRENT}"
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_VARIABLE out)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got ${rc}\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "rips-bench-v1.*rips-timeseries-v1")
  message(FATAL_ERROR "stderr does not name both schemas: ${err}")
endif()
