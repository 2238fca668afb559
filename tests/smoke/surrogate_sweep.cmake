# Smoke case: surrogate-first sweeps. On the 10-config Fig. 17 grid
# (2 workloads, 20 points) the analytic tier scores every point, the
# Pareto filter cuts the simulated tier to 1..20% of the grid, the
# two-tier CSV keeps the record schema plus a trailing `tier` column,
# and every simulated row is byte-equal to the plain sweep's row with
# the same id.
#
#   cmake -DSPARCH=<sparch binary> -DWORK_DIR=<scratch dir> \
#         -P tests/smoke/surrogate_sweep.cmake

include(${CMAKE_CURRENT_LIST_DIR}/common.cmake)

file(WRITE "${WORK_DIR}/fig17.grid"
    "nnz = 4000\n"
    "[config table-I]\n"
    "[config lines-256]\nprefetch_lines = 256\n"
    "[config lines-512]\nprefetch_lines = 512\n"
    "[config lines-2048]\nprefetch_lines = 2048\n"
    "[config lines-4096]\nprefetch_lines = 4096\n"
    "[config wide]\nmerger_width = 32\n"
    "[config shallow]\nmerge_layers = 5\n"
    "[config seq]\nscheduler = sequential\n"
    "[config no-condense]\ncondensing = off\n"
    "[config ddr4]\nmemory = ddr4\n"
    "[workloads]\nsuite:wiki-Vote\nuniform:400x400:3000\n")

run_ok("${SPARCH}" sweep --grid "${WORK_DIR}/fig17.grid" --surrogate
    --csv "${WORK_DIR}/tiered.csv")
message(STATUS "${err}")
foreach(line "surrogate tier: 20 points evaluated" "surrogate calibration")
    string(FIND "${err}" "sparch: ${line}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "tiered sweep: no '${line}' in:\n${err}")
    endif()
endforeach()

run_ok("${SPARCH}" sweep --grid "${WORK_DIR}/fig17.grid"
    --csv "${WORK_DIR}/plain.csv")
message(STATUS "${err}")
if(NOT err MATCHES "simulated=20, ")
    message(FATAL_ERROR "plain sweep: no 'simulated=20, ' in:\n${err}")
endif()

# Index the plain sweep's rows by id.
file(STRINGS "${WORK_DIR}/plain.csv" plain)
list(POP_FRONT plain)
foreach(row IN LISTS plain)
    string(REGEX MATCH "^[0-9]+" id "${row}")
    set("plain_${id}" "${row}")
endforeach()

file(STRINGS "${WORK_DIR}/tiered.csv" rows)
list(POP_FRONT rows header)
if(NOT header MATCHES ",tier$")
    message(FATAL_ERROR "tiered CSV header lacks the tier column: ${header}")
endif()
string(REGEX MATCHALL "," commas "${header}")
list(LENGTH commas columns)

set(surrogate_rows 0)
set(sim_rows 0)
foreach(row IN LISTS rows)
    string(REGEX MATCHALL "," commas "${row}")
    list(LENGTH commas n)
    if(NOT n EQUAL columns)
        message(FATAL_ERROR
            "row has ${n} commas, header ${columns}: ${row}")
    endif()
    string(REGEX MATCH "[^,]*$" tier "${row}")
    if(tier STREQUAL "surrogate")
        math(EXPR surrogate_rows "${surrogate_rows} + 1")
    elseif(tier STREQUAL "sim")
        math(EXPR sim_rows "${sim_rows} + 1")
        string(REGEX MATCH "^[0-9]+" id "${row}")
        if(NOT DEFINED "plain_${id}" OR NOT row STREQUAL "${plain_${id}}")
            message(FATAL_ERROR "sim row diverges from the plain sweep:\n"
                "  tiered: ${row}\n  plain:  ${plain_${id}}")
        endif()
    else()
        message(FATAL_ERROR "unknown tier '${tier}': ${row}")
    endif()
endforeach()
if(NOT surrogate_rows EQUAL 20)
    message(FATAL_ERROR
        "surrogate tier scored ${surrogate_rows} of 20 points")
endif()
math(EXPR sim_x5 "${sim_rows} * 5")
if(sim_rows EQUAL 0 OR sim_x5 GREATER surrogate_rows)
    message(FATAL_ERROR "simulated tier ran ${sim_rows} of "
        "${surrogate_rows} points; want 1..20%")
endif()
message(STATUS "two-tier CSV OK: ${surrogate_rows} surrogate rows, "
    "${sim_rows} sim rows, survivors byte-identical")
