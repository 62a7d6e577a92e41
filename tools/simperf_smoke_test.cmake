# CTest script: run the host-throughput benchmark in quick mode and
# validate BENCH_simperf.json with check_simperf.py — schema, the
# multi-chip fabric row, and the overhead experiments' repeat, noise
# and zero-drift gates.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
    COMMAND ${RUNNER} --quick --jobs 2
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR
        "bench_simperf failed (${run_rc}):\n${run_out}\n${run_err}")
endif()

# Sanitizer builds instrument the sampler's allocations and gauge
# closures far more heavily than the simulation loop, so the fabric
# wall-clock gate is relaxed there — determinism (simCyclesDrift == 0)
# still holds absolutely.
set(fabric_gate 10)
if(SANITIZED)
    set(fabric_gate 30)
endif()
execute_process(
    COMMAND ${PYTHON} ${CHECKER} ${WORK_DIR}/BENCH_simperf.json
        --max-fabric-overhead ${fabric_gate}
    RESULT_VARIABLE check_rc
    OUTPUT_VARIABLE check_out
    ERROR_VARIABLE check_err)
if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR
        "check_simperf.py failed (${check_rc}):\n"
        "${check_out}\n${check_err}")
endif()
message(STATUS "${check_out}")
