# Run cdna_sweep with an observability flag and check what it wrote.
#   cmake -DSWEEP=bin -DOUT=prefix -DPRESET=name -DCELL=substring
#         -DMODE=TraceIsJson|KeepsOutIdentical -P check_observed_sweep.cmake
# TraceIsJson:       the trace of the observed run parses as JSON.
# KeepsOutIdentical: --out is byte-identical with and without --trace.
set(args --preset ${PRESET} -j 2 --quiet)
set(observed --observe ${CELL} --trace ${OUT}-trace.json --trace-filter hypervisor)

function(sweep)
    execute_process(COMMAND ${SWEEP} ${args} ${ARGN}
                    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
    if(NOT rc STREQUAL "0")
        message(FATAL_ERROR "cdna_sweep ${ARGN} exited '${rc}':\n${err}")
    endif()
endfunction()

if(MODE STREQUAL "TraceIsJson")
    file(REMOVE ${OUT}-trace.json)
    sweep(${observed})
    file(READ ${OUT}-trace.json json)
    string(JSON events ERROR_VARIABLE err LENGTH "${json}" traceEvents)
    if(err OR events EQUAL 0)
        message(FATAL_ERROR "trace is not JSON with traceEvents: ${err}")
    endif()
elseif(MODE STREQUAL "KeepsOutIdentical")
    sweep(--out ${OUT}-plain.json)
    sweep(--out ${OUT}-observed.json ${observed})
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${OUT}-plain.json ${OUT}-observed.json
                    RESULT_VARIABLE differ)
    if(differ)
        message(FATAL_ERROR "--out differs when the run is traced")
    endif()
else()
    message(FATAL_ERROR "unknown MODE ${MODE}")
endif()
