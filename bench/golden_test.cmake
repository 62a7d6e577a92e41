# CTest script: run one figure benchmark in quick CSV mode and compare
# its output against the committed golden with check_goldens.py.
# JOBS (default 1) is the bench's --jobs sweep-lane count: its CSV is
# byte-identical at any count, so it only sets the wall time.
get_filename_component(name ${GOLDEN} NAME_WE)
if(NOT DEFINED JOBS)
    set(JOBS 1)
endif()
set(out ${WORK_DIR}/${name}.csv)
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
    COMMAND ${BENCH} --quick --csv --jobs ${JOBS}
    OUTPUT_FILE ${out}
    RESULT_VARIABLE run_rc
    ERROR_VARIABLE run_err)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} failed (${run_rc}):\n${run_err}")
endif()

execute_process(
    COMMAND ${PYTHON} ${CHECKER} --golden ${GOLDEN} --actual ${out}
    RESULT_VARIABLE check_rc
    OUTPUT_VARIABLE check_out
    ERROR_VARIABLE check_err)
if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR
        "golden mismatch (${check_rc}):\n${check_out}\n${check_err}")
endif()
message(STATUS "${check_out}")
