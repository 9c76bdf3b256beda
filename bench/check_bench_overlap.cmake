# Pins bench_overlap's virtual-time report to the committed
# BENCH_overlap.json:
#
#   cmake -DBENCH=<bench_overlap> -DBASELINE=<BENCH_overlap.json>
#         -DOUT=<report.json> -P check_bench_overlap.cmake
#
# The run must pass the bench's own gates (exit 0), and every value of its
# report must equal the committed one, except the overlapped
# arm's optimized_s, speedup and hidden_measured. Concurrent handles reserve
# a rank's NIC timeline first-fit in host pump order, so those three move by
# a few alpha from run to run; the bench's gates bound them. The blocking
# baseline (legacy_s), the prediction and the config are deterministic.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

execute_process(COMMAND "${BENCH}" --out "${OUT}" RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_overlap exited ${rc}: its overlap gates failed")
endif()
file(READ "${BASELINE}" base)
file(READ "${OUT}" cur)

set(host_order_dependent optimized_s speedup hidden_measured)
set(mismatches "")

# Compare the members of the object at key path ARGN in both reports.
function(compare_object)
  string(JOIN "." where ${ARGN})
  string(JSON n LENGTH "${base}" ${ARGN})
  string(JSON n_cur LENGTH "${cur}" ${ARGN})
  if(NOT n EQUAL n_cur)
    set(mismatches "${mismatches}\n  ${where}: ${n} members, now ${n_cur}" PARENT_SCOPE)
    return()
  endif()
  math(EXPR last "${n} - 1")
  foreach(i RANGE ${last})
    string(JSON key MEMBER "${base}" ${ARGN} ${i})
    string(JSON type TYPE "${base}" ${ARGN} ${key})
    if(type STREQUAL "OBJECT")
      compare_object(${ARGN} ${key})
    elseif(NOT key IN_LIST host_order_dependent)
      string(JSON want GET "${base}" ${ARGN} ${key})
      string(JSON got ERROR_VARIABLE err GET "${cur}" ${ARGN} ${key})
      if(NOT want STREQUAL got)
        set(mismatches "${mismatches}\n  ${where}.${key}: ${want}, now ${got}")
      endif()
    endif()
  endforeach()
  set(mismatches "${mismatches}" PARENT_SCOPE)
endfunction()

compare_object()
if(mismatches)
  message(FATAL_ERROR "bench_overlap report differs from ${BASELINE}:${mismatches}")
endif()
