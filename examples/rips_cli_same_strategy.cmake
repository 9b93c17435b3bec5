# Single-run check (ctest -L trace-tools): `rips_cli --strategy=<name>`
# runs the same dynamic strategy as the comparison sweep
# (`--strategy=<name>,rips`), Random's seed included, so for every name in
# STRATEGIES the single run's T, Th, Ti, speedup and efficiency equal the
# sweep's row, labeled by the matching entry of ROWS.
#
# Inputs: -DCOMMAND=<rips_cli> -DARGS=<;-list of shared flags>
#         -DSTRATEGIES=<;-list of names> -DROWS=<;-list of row labels>.
list(LENGTH STRATEGIES count)
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
  list(GET STRATEGIES ${i} strategy)
  list(GET ROWS ${i} row)
  execute_process(COMMAND "${COMMAND}" ${ARGS} --strategy=${strategy}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE single)
  execute_process(COMMAND "${COMMAND}" ${ARGS} --strategy=${strategy},rips
                  RESULT_VARIABLE rc2 OUTPUT_VARIABLE sweep)
  if(NOT rc EQUAL 0 OR NOT rc2 EQUAL 0)
    message(FATAL_ERROR "rips_cli failed (${rc}, ${rc2})\n${single}\n${sweep}")
  endif()
  if(NOT single MATCHES
     "T=([0-9.]+)s Th=([0-9.]+)s Ti=([0-9.]+)s mu=([0-9.]+)%.*speedup=([0-9.]+)")
    message(FATAL_ERROR "no metrics in the single run:\n${single}")
  endif()
  set(got "${CMAKE_MATCH_4} ${CMAKE_MATCH_5} ${CMAKE_MATCH_2} ${CMAKE_MATCH_3} ${CMAKE_MATCH_1}")
  if(NOT sweep MATCHES
     "\n${row} +([0-9.]+) +([0-9.]+) +([0-9.]+) +([0-9.]+) +([0-9.]+)")
    message(FATAL_ERROR "no ${row} row in the sweep:\n${sweep}")
  endif()
  set(want "${CMAKE_MATCH_1} ${CMAKE_MATCH_2} ${CMAKE_MATCH_3} ${CMAKE_MATCH_4} ${CMAKE_MATCH_5}")
  # The single run prints efficiency in percent (18.8%), the sweep as a
  # fraction (0.188): the same digits once the points and leading zeros go.
  foreach(side got want)
    string(REGEX MATCH "^[0-9.]+" mu "${${side}}")
    string(REPLACE "." "" digits "${mu}")
    string(REGEX REPLACE "^0+" "" digits "${digits}")
    string(REGEX REPLACE "^[0-9.]+" "${digits}" ${side} "${${side}}")
  endforeach()
  if(NOT got STREQUAL want)
    message(FATAL_ERROR
            "${strategy}: single run (mu speedup Th Ti T) ${got} != sweep ${want}")
  endif()
endforeach()
