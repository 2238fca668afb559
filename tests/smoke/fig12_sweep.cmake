# Smoke case: the result cache and the Fig. 12 byte-identity pin. A
# sweep of the Fig. 12 grid simulates all 20 points; a second sweep
# through the same cache simulates none (20 cache hits) and writes the
# same CSV bytes, and `sparch cache stats` reads that cache. Given
# -DBENCH, the CSV must also equal bench_fig12_energy's
# SPARCH_BENCH_CSV dump at SPARCH_BENCH_NNZ=4000.
#
#   cmake -DSPARCH=<sparch binary> -DWORK_DIR=<scratch dir> \
#         [-DBENCH=<bench_fig12_energy binary>] \
#         -P tests/smoke/fig12_sweep.cmake

include(${CMAKE_CURRENT_LIST_DIR}/common.cmake)

file(WRITE "${WORK_DIR}/fig12.grid"
    "nnz = 4000\n[config table-I]\n[workloads]\nsuite:*\n")

# Sweep the grid into `csv` through the shared cache; the summary line
# on stderr must match `summary`.
function(sweep csv summary)
    run_ok("${SPARCH}" sweep --grid "${WORK_DIR}/fig12.grid"
        --csv "${WORK_DIR}/${csv}" --cache "${WORK_DIR}/cache.csv")
    message(STATUS "${err}")
    if(NOT err MATCHES "${summary}")
        message(FATAL_ERROR "sweep into ${csv}: no '${summary}' in:\n${err}")
    endif()
endfunction()

sweep(cli.csv "simulated=20, ")
sweep(cli2.csv "simulated=0, cache-hits=20, ")

file(READ "${WORK_DIR}/cli.csv" first)
file(READ "${WORK_DIR}/cli2.csv" second)
if(first STREQUAL "")
    message(FATAL_ERROR "sparch sweep wrote an empty CSV")
endif()
if(NOT first STREQUAL second)
    message(FATAL_ERROR "the cached re-sweep changed the CSV:\n"
        "first:\n${first}second:\n${second}")
endif()

run_ok("${SPARCH}" cache stats --cache "${WORK_DIR}/cache.csv")

if(DEFINED BENCH)
    run_ok("${CMAKE_COMMAND}" -E env SPARCH_BENCH_NNZ=4000
        "SPARCH_BENCH_CSV=${WORK_DIR}/bench.csv" "${BENCH}")
    file(READ "${WORK_DIR}/bench.csv" bench)
    if(NOT first STREQUAL bench)
        message(FATAL_ERROR "sparch sweep and bench_fig12_energy differ:\n"
            "sweep:\n${first}bench:\n${bench}")
    endif()
endif()
