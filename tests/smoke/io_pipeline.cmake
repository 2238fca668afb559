# Smoke case: the file-operand pipeline. `sparch convert` passes its own
# content-hash verification, writes the same bytes on every run, and
# those bytes are pinned; a sweep of the converted .scsr writes the same
# CSV bytes as a sweep of the .mtx (same workload name, same cycles,
# same everything), and a truncated .scsr is rejected loudly at
# workload registration, never loaded quietly wrong.
#
#   cmake -DSPARCH=<sparch binary> -DWORK_DIR=<scratch dir> \
#         -P tests/smoke/io_pipeline.cmake

include(${CMAKE_CURRENT_LIST_DIR}/common.cmake)

# A deterministic 300 x 300 matrix with 3000 entries (file workloads
# compute C = A^2) from a 31-bit LCG, ending in a duplicate of the
# first coordinate and an explicit zero, so the duplicate merge and the
# zero drop are exercised, not just the copy.
set(side 300)
set(x 20240229)
set(body "")
foreach(i RANGE 1 2998)
    math(EXPR x "(${x} * 1103515245 + 12345) % 2147483648")
    math(EXPR row "(${x} >> 16) % ${side} + 1")
    math(EXPR col "(${x} >> 4) % ${side} + 1")
    math(EXPR val "${x} % 2000 - 1000")
    set(line "${row} ${col} ${val}.5\n")
    if(i EQUAL 1)
        set(first "${line}")
    endif()
    string(APPEND body "${line}")
endforeach()
file(WRITE "${WORK_DIR}/m.mtx"
    "%%MatrixMarket matrix coordinate real general\n"
    "${side} ${side} 3000\n${body}${first}7 7 0.0\n")

run_ok("${SPARCH}" convert "${WORK_DIR}/m.mtx" "${WORK_DIR}/m.scsr"
    --verify)
run_ok("${SPARCH}" convert "${WORK_DIR}/m.mtx" "${WORK_DIR}/m2.scsr")
file(SHA256 "${WORK_DIR}/m.scsr" one)
file(SHA256 "${WORK_DIR}/m2.scsr" two)
if(NOT one STREQUAL two)
    message(FATAL_ERROR "a second convert of m.mtx changed the bytes")
endif()
# The .scsr bytes are part of the format: their header checksum is the
# workload identity behind every cached result. Pinned on the bytes the
# streaming converter wrote before convert became read + writeScsr.
set(pinned 9b7bfd3f4bf9c42c84f31e58a294e036ce851638cfcb3591966c9e7f52ce5acc)
if(NOT one STREQUAL pinned)
    message(FATAL_ERROR "m.scsr changed: SHA256 ${one}, pinned ${pinned}")
endif()

# Sweep one file workload; its CSV lands in `csv_<ext>`.
foreach(ext mtx scsr)
    file(WRITE "${WORK_DIR}/${ext}.grid"
        "[config table-I]\n[workloads]\n${WORK_DIR}/m.${ext}\n")
    run_ok("${SPARCH}" sweep --grid "${WORK_DIR}/${ext}.grid"
        --csv "${WORK_DIR}/${ext}.csv")
    message(STATUS "${ext}: ${err}")
    if(NOT err MATCHES "simulated=1, ")
        message(FATAL_ERROR "sweep of m.${ext}: no 'simulated=1, ' in:\n${err}")
    endif()
    file(READ "${WORK_DIR}/${ext}.csv" csv_${ext})
endforeach()
if(NOT csv_mtx STREQUAL csv_scsr)
    message(FATAL_ERROR "the .mtx and .scsr sweeps differ:\n"
        "mtx:\n${csv_mtx}scsr:\n${csv_scsr}")
endif()

# CMake cannot cut a binary file, so coreutils' truncate does.
run_ok(truncate -s 4096 "${WORK_DIR}/m2.scsr")
file(WRITE "${WORK_DIR}/bad.grid"
    "[config table-I]\n[workloads]\n${WORK_DIR}/m2.scsr\n")
execute_process(COMMAND "${SPARCH}" sweep --grid "${WORK_DIR}/bad.grid"
        --csv "${WORK_DIR}/bad.csv"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
message(STATUS "truncated: exit ${rc}: ${err}")
if(rc EQUAL 0)
    message(FATAL_ERROR "a sweep of a truncated .scsr exited 0:\n${out}${err}")
endif()
string(FIND "${err}" "${WORK_DIR}/m2.scsr" at)
if(at EQUAL -1)
    message(FATAL_ERROR "the truncated file is not named on stderr:\n${err}")
endif()
