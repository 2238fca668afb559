# Smoke case: liveness of the deadlock report. A 3-layer tree with a
# 32-line buffer of 2-element lines deadlocks merge round 26 on this
# operand (ROADMAP item 11). The round must end at its cycle cap and
# `sparch run` must report the point as failed ("deadlocked", exit 3)
# instead of hanging: a round with no module event left jumps to the
# cap at once, and one whose ports keep polling (this one) ticks to it.
# Fixing item 11 flips the expected outcome: the run then completes
# with exit 0.
#
#   cmake -DSPARCH=<sparch binary> -DWORK_DIR=<scratch dir> \
#         -P tests/smoke/deadlock_report.cmake

include(${CMAKE_CURRENT_LIST_DIR}/common.cmake)

execute_process(COMMAND "${SPARCH}" run --threads 1
        --config merge_layers=3,prefetch_lines=32,prefetch_line_elems=2
        uniform:200x200:3000
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 3)
    message(FATAL_ERROR "expected exit 3, got ${rc}:\n${out}${err}")
endif()
if(NOT err MATCHES "deadlocked")
    message(FATAL_ERROR "no 'deadlocked' on stderr:\n${err}")
endif()
