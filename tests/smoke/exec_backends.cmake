# Smoke case: the execution backends and the worker-process crash
# paths, on the Fig. 12 grid (20 points).
#  - `--exec threads`, `inline` and `procs --procs 4` write
#    byte-identical CSVs, and the procs sweep simulates all 20 points
#    with none failed.
#  - With SPARCH_TEST_KILL_WORKER_AFTER=2, worker 0 of four hard-exits
#    after 2 records: its in-flight task requeues to the survivors and
#    the sweep still simulates all 20 points, bit for bit.
#  - With SPARCH_TEST_KILL_WORKER_AFTER=6 and a single worker, the
#    worker dies after 6 records: the sweep exits 3 with 14 points
#    failed and 6 cached, and a cached re-run on four workers
#    simulates exactly the 14 missing points and writes the full
#    grid's bytes.
# Every CSV must also hold the recorded Fig. 12 bytes (md5 below), so
# a sanitizer or DCHECK build writes what a Release build writes.
# Under the asan-ubsan preset the same case runs the kill and resume
# paths (requeue bookkeeping, pipe teardown, manifest temp files)
# leak- and UB-checked.
#
#   cmake -DSPARCH=<sparch binary> -DWORK_DIR=<scratch dir> \
#         -P tests/smoke/exec_backends.cmake

include(${CMAKE_CURRENT_LIST_DIR}/common.cmake)

set(expected_md5 3557c302bee4b3ae57027621b0626b23)

file(WRITE "${WORK_DIR}/fig12.grid"
    "nnz = 4000\n[config table-I]\n[workloads]\nsuite:*\n")

# Fail unless every regex in ARGN matches the sweep summary `err`.
function(expect_summary what)
    foreach(pattern IN LISTS ARGN)
        if(NOT err MATCHES "${pattern}")
            message(FATAL_ERROR "${what}: no '${pattern}' in:\n${err}")
        endif()
    endforeach()
endfunction()

# Fail unless CSV `name` holds the bytes of the threads sweep.
function(expect_same_csv name)
    file(READ "${WORK_DIR}/threads.csv" want)
    file(READ "${WORK_DIR}/${name}" got)
    if(NOT got STREQUAL want)
        message(FATAL_ERROR "${name} differs from threads.csv:\n"
            "threads:\n${want}${name}:\n${got}")
    endif()
endfunction()

set(grid --grid "${WORK_DIR}/fig12.grid")
set(all_ok "simulated=20, " "failed=0([^0-9]|$)")

# All three backends emit byte-identical CSVs.
run_ok("${SPARCH}" sweep ${grid} --exec=threads
    --csv "${WORK_DIR}/threads.csv")
file(MD5 "${WORK_DIR}/threads.csv" md5)
if(NOT md5 STREQUAL expected_md5)
    file(READ "${WORK_DIR}/threads.csv" csv)
    message(FATAL_ERROR "--exec threads: CSV md5 ${md5}, expected "
        "${expected_md5}:\n${csv}")
endif()
run_ok("${SPARCH}" sweep ${grid} --exec=inline
    --csv "${WORK_DIR}/inline.csv")
expect_same_csv(inline.csv)
run_ok("${SPARCH}" sweep ${grid} --exec=procs --procs=4
    --csv "${WORK_DIR}/procs.csv")
message(STATUS "${err}")
expect_summary("--exec procs" ${all_ok})
expect_same_csv(procs.csv)

# A killed worker's tasks requeue to the survivors.
run_ok("${CMAKE_COMMAND}" -E env SPARCH_TEST_KILL_WORKER_AFTER=2
    "${SPARCH}" sweep ${grid} --exec=procs --procs=4
    --csv "${WORK_DIR}/requeue.csv")
message(STATUS "${err}")
expect_summary("killed worker, four procs" ${all_ok})
expect_same_csv(requeue.csv)

# The only worker dies mid-sweep; a cached re-run fills the holes.
execute_process(COMMAND "${CMAKE_COMMAND}" -E env
        SPARCH_TEST_KILL_WORKER_AFTER=6
        "${SPARCH}" sweep ${grid} --exec=procs --procs=1
        --cache "${WORK_DIR}/kill.cache" --csv "${WORK_DIR}/kill.csv"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
message(STATUS "${err}")
if(NOT rc EQUAL 3)
    message(FATAL_ERROR "killed sole worker: expected exit 3, got "
        "${rc}:\n${out}${err}")
endif()
expect_summary("killed sole worker" "simulated=6, " "failed=14([^0-9]|$)")
run_ok("${SPARCH}" sweep ${grid} --exec=procs --procs=4
    --cache "${WORK_DIR}/kill.cache" --csv "${WORK_DIR}/resumed.csv")
message(STATUS "${err}")
expect_summary("cached re-run" "simulated=14, " "cache-hits=6, "
    "failed=0([^0-9]|$)")
expect_same_csv(resumed.csv)
