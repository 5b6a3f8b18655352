# Run cdna_sim once with fault flags and once with the same directives
# in a --fault-plan file: both spellings go through one directive
# table, so the two --json reports must be byte-identical.
#   cmake -DSIM=bin -DOUT=prefix -P check_plan_file.cmake
set(run --mode cdna --guests 2 --warmup 5 --seconds 0.02 --json)
set(flags --drop-rate 0.01 --dma-delay-rate 0.1 --dma-delay-us 40
          --kill-guest 1@12)
file(WRITE ${OUT}-plan.txt
     "# the faults of the flags above, one directive per line\n"
     "drop-rate 0.01\n"
     "dma-delay-rate 0.1\n"
     "dma-delay-us 40   # us\n"
     "kill-guest 1@12\n")

function(sim out)
    execute_process(COMMAND ${SIM} ${run} ${ARGN} OUTPUT_FILE ${out}
                    RESULT_VARIABLE rc ERROR_VARIABLE err)
    if(NOT rc STREQUAL "0")
        message(FATAL_ERROR "cdna_sim ${ARGN} exited '${rc}':\n${err}")
    endif()
endfunction()

sim(${OUT}-flags.json ${flags})
sim(${OUT}-file.json --fault-plan ${OUT}-plan.txt)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${OUT}-flags.json ${OUT}-file.json
                RESULT_VARIABLE differ)
if(differ)
    message(FATAL_ERROR "the plan file and the flags built different runs")
endif()

# The comparison means something only if every fault fired.
file(READ ${OUT}-file.json json)
foreach(key frames_dropped dma_delays guest_kills)
    string(JSON n GET "${json}" ${key})
    if(n EQUAL 0)
        message(FATAL_ERROR "${key} is 0: the plan injected nothing")
    endif()
endforeach()
