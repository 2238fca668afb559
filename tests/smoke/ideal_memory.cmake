# Smoke case: an infinite-bandwidth memory is never slower. Over the
# 20 suite proxies at nnz 16000, every memory=ideal point takes at
# most the cycles of the same workload on HBM. The scale is
# memory-bound on purpose: at toy scales the pipeline is
# structure-bound and arrival-order noise can cost ideal a handful of
# cycles.
#
#   cmake -DSPARCH=<sparch binary> -DWORK_DIR=<scratch dir> \
#         -P tests/smoke/ideal_memory.cmake

include(${CMAKE_CURRENT_LIST_DIR}/common.cmake)

file(WRITE "${WORK_DIR}/mem.grid"
    "nnz = 16000\n[config hbm]\n[config ideal]\nmemory = ideal\n"
    "[workloads]\nsuite:*\n")
run_ok("${SPARCH}" sweep --grid "${WORK_DIR}/mem.grid"
    --csv "${WORK_DIR}/mem.csv")
message(STATUS "${err}")
if(NOT err MATCHES "simulated=40, ")
    message(FATAL_ERROR "expected 40 simulated points:\n${err}")
endif()

file(STRINGS "${WORK_DIR}/mem.csv" rows)
list(POP_FRONT rows header)
if(NOT header MATCHES "^id,config,workload,seed,shards,cycles,")
    message(FATAL_ERROR "unexpected CSV columns: ${header}")
endif()

# Rows are config-major (all hbm, then all ideal): pair each ideal row
# with the hbm row of its workload.
set(hbm_workloads "")
set(hbm_cycles "")
set(checked 0)
foreach(row IN LISTS rows)
    string(REPLACE "," ";" f "${row}")
    list(GET f 1 config)
    list(GET f 2 workload)
    list(GET f 5 cycles)
    if(config STREQUAL "hbm")
        list(APPEND hbm_workloads "${workload}")
        list(APPEND hbm_cycles "${cycles}")
        continue()
    endif()
    list(FIND hbm_workloads "${workload}" at)
    if(NOT config STREQUAL "ideal" OR at EQUAL -1)
        message(FATAL_ERROR "no hbm row before ${config} x ${workload}")
    endif()
    list(GET hbm_cycles ${at} hbm)
    if(cycles GREATER hbm)
        message(FATAL_ERROR
            "ideal slower than hbm on ${workload}: ${cycles} > ${hbm}")
    endif()
    math(EXPR checked "${checked} + 1")
endforeach()
message(STATUS "checked ${checked} grid points")
if(NOT checked EQUAL 20)
    message(FATAL_ERROR "expected 20 ideal grid points, checked ${checked}")
endif()
