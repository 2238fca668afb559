# Smoke case: sweep output does not depend on the working directory.
# One Matrix Market file, copied into two directories and swept from
# each (once by absolute path, once by a path relative to the working
# directory), writes the same CSV bytes; its workload column is the
# file's stem.
#
#   cmake -DSPARCH=<sparch binary> -DWORK_DIR=<scratch dir> \
#         -P tests/smoke/file_workload_cwd.cmake

include(${CMAKE_CURRENT_LIST_DIR}/common.cmake)

set(matrix
    "%%MatrixMarket matrix coordinate real general\n"
    "6 6 10\n"
    "1 1 1.0\n1 4 2.0\n2 2 3.0\n2 6 -1.0\n3 1 4.0\n"
    "3 5 0.5\n4 3 2.5\n5 5 1.5\n6 2 -2.0\n6 6 3.0\n")
foreach(dir a b)
    file(MAKE_DIRECTORY "${WORK_DIR}/${dir}")
    file(WRITE "${WORK_DIR}/${dir}/m.mtx" ${matrix})
endforeach()
file(WRITE "${WORK_DIR}/a/m.grid" "[workloads]\n${WORK_DIR}/a/m.mtx\n")
file(WRITE "${WORK_DIR}/b/m.grid" "[workloads]\nmtx:m.mtx\n")

foreach(dir a b)
    run_ok("${CMAKE_COMMAND}" -E chdir "${WORK_DIR}/${dir}"
        "${SPARCH}" sweep --grid m.grid --csv out.csv)
    message(STATUS "${dir}: ${err}")
    if(NOT err MATCHES "simulated=1, ")
        message(FATAL_ERROR "sweep in ${dir}: no 'simulated=1, ' in:\n${err}")
    endif()
    file(READ "${WORK_DIR}/${dir}/out.csv" csv_${dir})
endforeach()

if(NOT csv_a MATCHES "\n0,default,m,")
    message(FATAL_ERROR "the workload column is not the stem 'm':\n${csv_a}")
endif()
if(NOT csv_a STREQUAL csv_b)
    message(FATAL_ERROR "the CSV depends on the directory:\n"
        "a:\n${csv_a}b:\n${csv_b}")
endif()
