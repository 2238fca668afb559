# Smoke case: sweep CSV bytes on banked DRAM, where the cycle loop
# skips most cycles (DDR4 and LPDDR4 wait on long, already known DRAM
# latencies). The sweep must write the recorded bytes under the
# in-process and the worker-process executor alike; the md5 was taken
# from a loop that ticked every cycle.
#
#   cmake -DSPARCH=<sparch binary> -DWORK_DIR=<scratch dir> \
#         -P tests/smoke/banked_dram_csv.cmake

include(${CMAKE_CURRENT_LIST_DIR}/common.cmake)

set(expected_md5 4f699e8e7919aabf27964dd6e48c7375)

file(WRITE "${WORK_DIR}/banked.grid"
    "nnz = 4000\n"
    "shards = 1 2\n"
    "[config ddr4-l5]\n"
    "memory = ddr4\nmerge_layers = 5\nprefetch_lines = 256\n"
    "[config lpddr4-l5]\n"
    "memory = lpddr4\nmerge_layers = 5\nprefetch_lines = 256\n"
    "[workloads]\n"
    "suite:wiki-Vote\nsuite:scircuit\nsuite:poisson3Da\nsuite:m133-b3\n")

foreach(exec inline procs)
    run_ok("${SPARCH}" sweep --grid "${WORK_DIR}/banked.grid"
        --exec ${exec} --procs 2 --csv "${WORK_DIR}/${exec}.csv")
    message(STATUS "${err}")
    if(NOT err MATCHES "simulated=16, ")
        message(FATAL_ERROR "--exec ${exec}: no 'simulated=16, ' in:\n${err}")
    endif()
    file(MD5 "${WORK_DIR}/${exec}.csv" md5)
    if(NOT md5 STREQUAL expected_md5)
        file(READ "${WORK_DIR}/${exec}.csv" csv)
        message(FATAL_ERROR "--exec ${exec}: CSV md5 ${md5}, expected "
            "${expected_md5}:\n${csv}")
    endif()
endforeach()
