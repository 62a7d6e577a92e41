# One ctest case: run command lines, check their exit status and
# output, byte-compare their artifacts, then run check commands.
#
#   cyclops_add_case(<name> [LABELS <label>...] [TIMEOUT <s>]
#       [EXIT <status>]           every run's exit status (default 0)
#       [STDOUT <regex>...]       every run's stdout matches each regex
#       [STDERR <regex>...]       every run's stderr matches each regex
#       [SAME <file>...]          files every run writes identically
#       [RUN <command>...]...     one command line per RUN
#       [CHECK <command>...]...)  each must exit 0
#
# Run i (from 1) executes in <case dir>/<i>, where its stdout and
# stderr are kept as the files "stdout" and "stderr"; the case dir is
# ${CMAKE_CURRENT_BINARY_DIR}/<name>, emptied first. Checks run in the
# case directory, so they name run i's files as "<i>/<file>". A check
# argument containing '*' is a glob that must match exactly one file.
#
# Included by the top-level CMakeLists.txt it defines the function;
# run with cmake -P (as the test command) it runs one case, passed as
# -DDIR=<case dir> and -DCASE=<the keywords and values above>.
if(NOT CMAKE_SCRIPT_MODE_FILE)
    find_package(Python3 COMPONENTS Interpreter)
    set(CYCLOPS_CHECK ${Python3_EXECUTABLE}
        ${CMAKE_CURRENT_LIST_DIR}/cyclops_check.py)
    set(CYCLOPS_CASE_SCRIPT ${CMAKE_CURRENT_LIST_FILE})
    function(cyclops_add_case name)
        set(spec "")
        set(labels "")
        set(timeout 120)
        set(into spec)
        foreach(arg IN LISTS ARGN)
            if(arg STREQUAL "LABELS")
                set(into labels)
            elseif(arg STREQUAL "TIMEOUT")
                set(into timeout)
                set(timeout "")
            elseif(arg MATCHES "^(EXIT|STDOUT|STDERR|SAME|RUN|CHECK)$")
                set(into spec)
                list(APPEND spec ${arg})
            else()
                list(APPEND ${into} "${arg}")
            endif()
        endforeach()
        add_test(NAME ${name}
            COMMAND ${CMAKE_COMMAND} -DDIR=${CMAKE_CURRENT_BINARY_DIR}/${name}
                "-DCASE=${spec}" -P ${CYCLOPS_CASE_SCRIPT})
        set_tests_properties(${name} PROPERTIES
            LABELS "${labels}" TIMEOUT ${timeout})
    endfunction()
    return()
endif()

# Split CASE into EXIT, STDOUT, STDERR, SAME and the numbered
# RUN<i>/CHECK<i> command lines.
foreach(arg IN LISTS CASE)
    if(arg MATCHES "^(RUN|CHECK)$")
        string(TOLOWER "${arg}s" count)
        list(LENGTH ${count} n)
        math(EXPR n "${n} + 1")
        list(APPEND ${count} ${n})
        set(into ${arg}${n})
    elseif(arg MATCHES "^(EXIT|STDOUT|STDERR|SAME)$")
        set(into ${arg})
    else()
        list(APPEND ${into} "${arg}")
    endif()
endforeach()
if(NOT DEFINED EXIT)
    set(EXIT 0)
endif()

file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})
foreach(i IN LISTS runs)
    file(MAKE_DIRECTORY ${DIR}/${i})
    execute_process(COMMAND ${RUN${i}}
        WORKING_DIRECTORY ${DIR}/${i}
        RESULT_VARIABLE rc
        OUTPUT_FILE ${DIR}/${i}/stdout
        ERROR_FILE ${DIR}/${i}/stderr)
    file(READ ${DIR}/${i}/stdout out)
    file(READ ${DIR}/${i}/stderr err)
    string(REPLACE ";" " " cmd "${RUN${i}}")
    if(NOT rc STREQUAL "${EXIT}")
        message(FATAL_ERROR "run ${i} exited ${rc}, want ${EXIT}: "
            "${cmd}\nstdout:\n${out}\nstderr:\n${err}")
    endif()
    foreach(regex IN LISTS STDOUT)
        if(NOT out MATCHES "${regex}")
            message(FATAL_ERROR "run ${i}'s stdout does not match "
                "'${regex}': ${cmd}\n${out}")
        endif()
    endforeach()
    foreach(regex IN LISTS STDERR)
        if(NOT err MATCHES "${regex}")
            message(FATAL_ERROR "run ${i}'s stderr does not match "
                "'${regex}': ${cmd}\n${err}")
        endif()
    endforeach()
endforeach()

foreach(file IN LISTS SAME)
    foreach(i IN LISTS runs)
        execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
            ${DIR}/1/${file} ${DIR}/${i}/${file}
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR "${file} differs between runs 1 and ${i} "
                "(or is missing): the output is not deterministic")
        endif()
    endforeach()
endforeach()

foreach(i IN LISTS checks)
    set(cmd "")
    foreach(arg IN LISTS CHECK${i})
        if(arg MATCHES "\\*")
            file(GLOB matches RELATIVE ${DIR} ${DIR}/${arg})
            list(LENGTH matches n)
            if(NOT n EQUAL 1)
                message(FATAL_ERROR "check ${i}: '${arg}' must match one "
                    "file, matches ${n}: ${matches}")
            endif()
            set(arg ${matches})
        endif()
        list(APPEND cmd "${arg}")
    endforeach()
    execute_process(COMMAND ${cmd}
        WORKING_DIRECTORY ${DIR}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    string(REPLACE ";" " " cmd "${cmd}")
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "check ${i} failed (${rc}): ${cmd}\n${out}${err}")
    endif()
    message(STATUS "${cmd}\n${out}")
endforeach()
