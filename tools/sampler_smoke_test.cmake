# Run RUNNER on PROGRAM with the host sampler preloaded, then require
# that it wrote one sample file and that host_profile.py reduces it
# (exit 0). The sample count depends on host speed and is not checked.
#
#   cmake -DRUNNER=<cyclops-run> -DSAMPLER=<libcyclops-sampler.so>
#         -DPYTHON=<python3> -DREDUCER=<host_profile.py>
#         -DPROGRAM=<smoke.s> -DWORK_DIR=<dir> -P sampler_smoke_test.cmake
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env LD_PRELOAD=${SAMPLER}
        ${RUNNER} ${PROGRAM}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${RUNNER} under the sampler exited ${rc}")
endif()
file(GLOB samples ${WORK_DIR}/host-samples.*.txt)
list(LENGTH samples n)
if(NOT n EQUAL 1)
    message(FATAL_ERROR "expected one sample file, found ${n}")
endif()
execute_process(
    COMMAND ${PYTHON} ${REDUCER} ${RUNNER} ${samples}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE report
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "host_profile.py exited ${rc}:\n${err}")
endif()
message(STATUS "${report}")
