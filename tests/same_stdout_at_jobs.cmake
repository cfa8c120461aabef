# Fails unless BINARY prints the same bytes at --jobs JOBS as with no
# --jobs at all (the default pool size).  Both stdouts land in WORK_DIR.
#
#   cmake -DBINARY=<path> -DARGS="<args>" -DJOBS=<n> -DWORK_DIR=<dir>
#         -P same_stdout_at_jobs.cmake

foreach(var BINARY JOBS WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "same_stdout_at_jobs: -D${var}= is required")
    endif()
endforeach()
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(explicit_out "${WORK_DIR}/jobs_${JOBS}.out")
set(default_out "${WORK_DIR}/jobs_default.out")

execute_process(COMMAND "${BINARY}" ${args} --jobs ${JOBS}
    OUTPUT_FILE "${explicit_out}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BINARY} ${ARGS} --jobs ${JOBS} exited ${rc}")
endif()
execute_process(COMMAND "${BINARY}" ${args}
    OUTPUT_FILE "${default_out}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BINARY} ${ARGS} exited ${rc}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${explicit_out}" "${default_out}" RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
    message(FATAL_ERROR "stdout at --jobs ${JOBS} (${explicit_out}) "
                        "differs from the default (${default_out})")
endif()
