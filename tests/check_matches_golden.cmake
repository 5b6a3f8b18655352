# Run a command and check that its stdout equals a golden file byte for
# byte.
#   cmake "-DCMD=bin;arg;..." -DGOLDEN=file -DOUT=file
#         -P check_matches_golden.cmake
execute_process(COMMAND ${CMD} OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${CMD} exited '${rc}':\n${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differ)
if(differ)
    message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
