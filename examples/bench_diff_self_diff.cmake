# Schema check (ctest -L obs): bench_diff validates each of FILES as it
# loads it, and every committed baseline must diff clean (exit 0, PASS)
# against itself, so a baseline that breaks its schema fails here.
#
# Inputs: -DCOMMAND=<bench_diff> -DFILES=<;-list of documents>.
foreach(file ${FILES})
  execute_process(COMMAND "${COMMAND}" "${file}" "${file}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR NOT out MATCHES "PASS")
    message(FATAL_ERROR "${file}: exit ${rc}\nstdout: ${out}\nstderr: ${err}")
  endif()
endforeach()
