# CTest script: run cyclops-run with all observability exports on and
# validate the produced trace JSON, stats JSON and epoch CSV.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
    COMMAND ${RUNNER} -t 4
        --trace-out ${WORK_DIR}/trace.json --trace-cats all
        --stats-json ${WORK_DIR}/stats.json
        --stats-csv ${WORK_DIR}/series.csv --stats-interval 100
        ${PROGRAM}
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR
        "cyclops-run failed (${run_rc}):\n${run_out}\n${run_err}")
endif()

execute_process(
    COMMAND ${PYTHON} ${CHECKER}
        --trace ${WORK_DIR}/trace.json
        --stats ${WORK_DIR}/stats.json
        --csv ${WORK_DIR}/series.csv
    RESULT_VARIABLE check_rc
    OUTPUT_VARIABLE check_out
    ERROR_VARIABLE check_err)
if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR
        "check_trace.py failed (${check_rc}):\n${check_out}\n${check_err}")
endif()
message(STATUS "${check_out}")

# Second run at another thread count with the manifest on: the
# all-category trace and the stats JSON must validate, and the run
# manifest must carry its schema marker.
execute_process(
    COMMAND ${RUNNER} -t 8
        --trace-out ${WORK_DIR}/trace8.json --trace-cats all
        --stats-json ${WORK_DIR}/stats8.json
        --manifest ${WORK_DIR}/manifest.json
        ${PROGRAM}
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR
        "cyclops-run --manifest failed (${run_rc}):\n"
        "${run_out}\n${run_err}")
endif()

execute_process(
    COMMAND ${PYTHON} ${CHECKER}
        --trace ${WORK_DIR}/trace8.json
        --stats ${WORK_DIR}/stats8.json
    RESULT_VARIABLE check_rc
    OUTPUT_VARIABLE check_out
    ERROR_VARIABLE check_err)
if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR
        "check_trace.py failed on the second run (${check_rc}):\n"
        "${check_out}\n${check_err}")
endif()
message(STATUS "${check_out}")

if(NOT EXISTS ${WORK_DIR}/manifest.json)
    message(FATAL_ERROR "cyclops-run --manifest wrote no manifest")
endif()
file(READ ${WORK_DIR}/manifest.json manifest_text)
if(NOT manifest_text MATCHES "cyclops-manifest-v1")
    message(FATAL_ERROR "manifest.json lacks the schema marker:\n"
        "${manifest_text}")
endif()
