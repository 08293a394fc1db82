# Runs one mlsim_cli (or bench) invocation and fails unless it exits 0 and
# its stdout matches the regex EXPECT. ARGS2/EXPECT2, when given, are a
# second run after the first (a --resume after a --checkpoint). Each test
# runs in its own emptied directory DIR, so relative output paths and the
# artifact cache stay private to it. tests/CMakeLists.txt registers one
# ctest per case:
#
#   cmake -DCLI=path/to/mlsim_cli -DDIR=scratch "-DARGS=stream xz 2000 16" \
#         "-DEXPECT=predicted CPI 1\\.6890" -P cli_run_test.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

function(run_case cli_args expect)
  separate_arguments(args UNIX_COMMAND "${cli_args}")
  execute_process(COMMAND "${CLI}" ${args}
                  WORKING_DIRECTORY "${DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 120)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${cli_args}: exit '${rc}', want 0\n${out}\n${err}")
  endif()
  if(NOT out MATCHES "${expect}")
    message(FATAL_ERROR "${cli_args}: stdout does not match '${expect}'\n${out}")
  endif()
endfunction()

run_case("${ARGS}" "${EXPECT}")
if(DEFINED ARGS2)
  run_case("${ARGS2}" "${EXPECT2}")
endif()
