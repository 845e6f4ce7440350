# Run PROGRAM with ARGS (one space-separated string) and fail unless it exits
# with status EXPECTED exactly, so neither a crash nor a normal run passes:
#
#   cmake -DPROGRAM=path "-DARGS=--flag value" -DEXPECTED=2 \
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE stderr)
if(NOT status STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: exit status '${status}', "
                      "expected ${EXPECTED}\n${stderr}")
endif()
