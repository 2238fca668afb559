# Shared by the smoke scripts: every script takes -DSPARCH=<sparch
# binary> and -DWORK_DIR=<scratch dir>, which is emptied first.

foreach(var SPARCH WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR
            "${CMAKE_SCRIPT_MODE_FILE}: -D${var}=... is required")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Run a command and fail on a non-zero exit; its stderr is left in
# `err` in the caller's scope.
function(run_ok)
    execute_process(COMMAND ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        string(JOIN " " cmd ${ARGN})
        message(FATAL_ERROR "${cmd} exited with ${rc}\n${out}${err}")
    endif()
    set(err "${err}" PARENT_SCOPE)
endfunction()
