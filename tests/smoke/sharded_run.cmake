# Smoke case: a sharded `sparch run` passes --check and writes the same
# CSV bytes whether its row blocks run serially (--threads 1) or on
# spare executor workers (--threads 4, one task).
#
#   cmake -DSPARCH=<sparch binary> -DWORK_DIR=<scratch dir> \
#         -P tests/smoke/sharded_run.cmake

include(${CMAKE_CURRENT_LIST_DIR}/common.cmake)

# A mid-size roadNet-CA proxy, generated in process from a fixed seed.
set(workload --nnz 200000 --wseed 3 --shards 4 --policy nnz
    suite:roadNet-CA)

run_ok("${SPARCH}" run --threads 1 --csv "${WORK_DIR}/serial.csv"
    ${workload})
run_ok("${SPARCH}" run --threads 4 --check
    --csv "${WORK_DIR}/pooled.csv" ${workload})

file(READ "${WORK_DIR}/serial.csv" serial)
file(READ "${WORK_DIR}/pooled.csv" pooled)
if(serial STREQUAL "")
    message(FATAL_ERROR "sparch run wrote an empty CSV")
endif()
if(NOT serial STREQUAL pooled)
    message(FATAL_ERROR "sharded CSV depends on --threads:\n"
        "--threads 1:\n${serial}--threads 4:\n${pooled}")
endif()
