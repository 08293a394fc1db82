# Runs one mlsim_cli (or bench) invocation and fails unless it exits 2, the
# usage-error code. tests/CMakeLists.txt registers one ctest per case:
#
#   cmake -DCLI=path/to/mlsim_cli "-DARGS=simulate xz --gpus=0" \
#         -P cli_usage_test.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "mlsim_cli ${ARGS}: exit '${rc}', want 2\n${err}")
endif()
