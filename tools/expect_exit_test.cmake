# Run RUNNER with the space-separated ARGS and require exit status
# EXPECT and a stderr matching STDERR_MATCH (if given).
#
#   cmake -DRUNNER=<exe> -DARGS="--iters abc" -DEXPECT=2
#         -DSTDERR_MATCH="--iters: 'abc'" -P expect_exit_test.cmake
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${RUNNER} ${arg_list}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
    message(FATAL_ERROR "expected exit ${EXPECT}, got ${rc}; stderr:\n${err}")
endif()
if(DEFINED STDERR_MATCH AND NOT err MATCHES "${STDERR_MATCH}")
    message(FATAL_ERROR "stderr does not match '${STDERR_MATCH}':\n${err}")
endif()
