# Smoke case: a Matrix Market size line that declares 4e9 entries
# ahead of a single one. Under a 4 GB address-space limit, `sparch run`
# must fail the point at "truncated at entry 1": the reader reserves no
# more entries than the file's bytes can hold, where a reserve sized by
# the size line alone (64 GB) ends in std::bad_alloc.
#
#   cmake -DSPARCH=<sparch binary> -DWORK_DIR=<scratch dir> \
#         -P tests/smoke/mtx_reserve.cmake

include(${CMAKE_CURRENT_LIST_DIR}/common.cmake)

file(WRITE "${WORK_DIR}/lie.mtx"
    "%%MatrixMarket matrix coordinate real general\n"
    "4000000000 4000000000 4000000000\n"
    "1 1 1.0\n")
execute_process(
    COMMAND sh -c "ulimit -v 4000000 && exec \"$0\" run --threads 1 \"$1\""
        "${SPARCH}" "mtx:${WORK_DIR}/lie.mtx"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
message(STATUS "exit ${rc}: ${err}")
if(rc EQUAL 0)
    message(FATAL_ERROR "a lying size line was accepted:\n${out}${err}")
endif()
if(err MATCHES "bad_alloc")
    message(FATAL_ERROR "the size line's count was reserved:\n${err}")
endif()
if(NOT err MATCHES "truncated at entry 1")
    message(FATAL_ERROR "no 'truncated at entry 1' on stderr:\n${err}")
endif()
