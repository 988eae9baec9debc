# Runs `${BENCH}` with the arguments in ARGS and passes only when
# the binary rejects them: exit code 2 with a message on stderr.
# ARGS is one command line, split UNIX-style.  Usage:
#   cmake -DBENCH=<binary> "-DARGS=<arg> ..." -P expect_usage_error.cmake
separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BENCH} ${argv}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${BENCH} ${ARGS}: exit ${rc}, expected 2")
endif()
if(err STREQUAL "")
    message(FATAL_ERROR "${BENCH} ${ARGS}: no message on stderr")
endif()
