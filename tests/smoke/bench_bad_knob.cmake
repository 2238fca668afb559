# Smoke case: a bench given a bad knob exits 2 with a message that
# names the knob, instead of aborting on an uncaught FatalError (exit
# 134). SPARCH_BENCH_RMAT_DIV=5001 would scale bench_fig14_rmat's
# 5k-vertex points to no vertices, so the bench rejects it up front.
#
#   cmake -DSPARCH=<sparch binary> -DWORK_DIR=<scratch dir> \
#         -DBENCH=<bench_fig14_rmat binary> \
#         -P tests/smoke/bench_bad_knob.cmake

include(${CMAKE_CURRENT_LIST_DIR}/common.cmake)

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env SPARCH_BENCH_RMAT_DIV=5001 "${BENCH}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got ${rc}:\n${out}${err}")
endif()
if(NOT err MATCHES "SPARCH_BENCH_RMAT_DIV=5001")
    message(FATAL_ERROR "the message does not name the knob:\n${err}")
endif()
