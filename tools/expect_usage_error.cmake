# Run a command that must be rejected -- at argument parsing, or as a
# configuration the machine cannot hold: it has to exit 1, quickly, with
# MATCH in its stderr.
#   cmake -DCMD="bin;arg;..." -DMATCH=regex -P expect_usage_error.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc ERROR_VARIABLE err
                OUTPUT_QUIET TIMEOUT 10)
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "expected exit code 1, got '${rc}'\n${err}")
endif()
if(NOT err MATCHES "${MATCH}")
    message(FATAL_ERROR "stderr does not match '${MATCH}':\n${err}")
endif()
