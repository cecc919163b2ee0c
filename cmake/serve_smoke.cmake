# serve_smoke.cmake -- end-to-end smoke of the concurrent serving
# engine: serve_churn on a small graph with the full label-vs-BFS
# cross-check (--verify) must report zero torn reads and a
# deterministic mutation stream (its exit code says both), and the
# `dash_lab serve-bench` verb must produce the JSON report. Every round
# of both reports must have cross-checked reads during play: zero torn
# reads out of zero checks certifies nothing.
#
# Expects: SERVE_CHURN, DASH_LAB, WORK_DIR.

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(require_checked_rounds report expected_rounds)
  string(REGEX MATCHALL "\"distance_reads\": [0-9]+" counts "${report}")
  list(LENGTH counts found)
  if(NOT found EQUAL expected_rounds)
    message(FATAL_ERROR "expected ${expected_rounds} rounds with "
                        "distance_reads, found ${found}:\n${report}")
  endif()
  foreach(count IN LISTS counts)
    if(count MATCHES ": 0$")
      message(FATAL_ERROR "a round cross-checked no read during play:\n"
                          "${report}")
    endif()
  endforeach()
endfunction()

execute_process(
  COMMAND ${SERVE_CHURN} --n 512 --readers 2,4
          --scenario churn:0.3,0.1x300 --verify
          --json ${WORK_DIR}/serve_churn.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve_churn --verify failed (rc=${rc}):\n${out}\n${err}")
endif()
if(NOT EXISTS ${WORK_DIR}/serve_churn.json)
  message(FATAL_ERROR "serve_churn wrote no JSON report")
endif()
file(READ ${WORK_DIR}/serve_churn.json report)
if(NOT report MATCHES "\"torn_reads\": 0")
  message(FATAL_ERROR "serve_churn reported torn reads:\n${report}")
endif()
if(NOT report MATCHES "\"deterministic\": true")
  message(FATAL_ERROR "mutation stream diverged across reader counts:\n${report}")
endif()
require_checked_rounds("${report}" 2)

execute_process(
  COMMAND ${DASH_LAB} serve-bench --n 256 --readers 4
          --scenario churn:0.3,0.1x200 --distance-every 4
          --rows ${WORK_DIR}/serve_rows.csv
          --json ${WORK_DIR}/serve_bench.json --quiet
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dash_lab serve-bench failed (rc=${rc}):\n${out}\n${err}")
endif()
if(NOT EXISTS ${WORK_DIR}/serve_bench.json)
  message(FATAL_ERROR "dash_lab serve-bench wrote no JSON report")
endif()
file(READ ${WORK_DIR}/serve_bench.json report)
require_checked_rounds("${report}" 1)
# The async row pipeline streamed the last round's rows: header + data.
file(STRINGS ${WORK_DIR}/serve_rows.csv rows_lines)
list(LENGTH rows_lines rows_count)
if(rows_count LESS 2)
  message(FATAL_ERROR "serve-bench rows CSV is empty (${rows_count} lines)")
endif()

message(STATUS "serve smoke passed: zero torn reads in checked rounds, "
               "deterministic, ${rows_count} row lines")
