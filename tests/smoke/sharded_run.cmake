# Smoke case: a sharded `sparch run` passes --check and writes the same
# CSV bytes whether its row blocks run serially (--threads 1) or on
# spare executor workers (--threads 4, one task).
#
#   cmake -DSPARCH=<sparch binary> -DWORK_DIR=<scratch dir> \
#         -P tests/smoke/sharded_run.cmake

foreach(var SPARCH WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "sharded_run.cmake: -D${var}=... is required")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# A mid-size roadNet-CA proxy, generated in process from a fixed seed.
set(workload --nnz 200000 --wseed 3 --shards 4 --policy nnz
    suite:roadNet-CA)

function(sparch_run csv)
    execute_process(
        COMMAND "${SPARCH}" run ${ARGN} --csv "${WORK_DIR}/${csv}"
                ${workload}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        string(JOIN " " flags ${ARGN})
        message(FATAL_ERROR
            "sparch run ${flags} exited with ${rc}\n${out}${err}")
    endif()
endfunction()

sparch_run(serial.csv --threads 1)
sparch_run(pooled.csv --threads 4 --check)

file(READ "${WORK_DIR}/serial.csv" serial)
file(READ "${WORK_DIR}/pooled.csv" pooled)
if(serial STREQUAL "")
    message(FATAL_ERROR "sparch run wrote an empty CSV")
endif()
if(NOT serial STREQUAL pooled)
    message(FATAL_ERROR "sharded CSV depends on --threads:\n"
        "--threads 1:\n${serial}--threads 4:\n${pooled}")
endif()
