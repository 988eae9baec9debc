# Runs `${BENCH} ${ARG}` and passes only when the binary rejects the
# argument: exit code 2 with a message on stderr.  Usage:
#   cmake -DBENCH=<binary> -DARG=<argument> -P expect_usage_error.cmake
execute_process(COMMAND ${BENCH} ${ARG}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${BENCH} ${ARG}: exit ${rc}, expected 2")
endif()
if(err STREQUAL "")
    message(FATAL_ERROR "${BENCH} ${ARG}: no message on stderr")
endif()
