# replay_chaos_smoke.cmake -- crash-fault injection for grid runs,
# run as a ctest (and by the CI replay-fuzz-smoke job). A single-process
# run streaming its records (--out) and rows (--rows) is SIGKILLed at a
# chosen cell (--chaos kill:<cell>); a --resume rerun must produce a
# BENCH document AND rows CSV byte-identical to the undisturbed
# sequential run. A second round does the same with a torn half-written
# record (--chaos torn:<cell>).
#
#   cmake -DDASH_LAB=<path> -DWORK_DIR=<scratch dir> -P replay_chaos_smoke.cmake
if(NOT DASH_LAB OR NOT WORK_DIR)
  message(FATAL_ERROR "need -DDASH_LAB=<binary> and -DWORK_DIR=<dir>")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(GRID "name=chaos n=24|32 healer=dash|graph scenario=paper-churn instances=2 seed=11")

function(run_lab)
  execute_process(COMMAND ${DASH_LAB} ${ARGN}
                  RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dash_lab ${ARGN} failed (${rc}):\n${err}")
  endif()
endfunction()

function(assert_same a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${what}: ${a} and ${b} differ")
  endif()
endfunction()

# 1. Undisturbed single-process reference (document + rows).
run_lab(run --grid ${GRID} --threads 1 --quiet
        --json ${WORK_DIR}/seq.json --rows ${WORK_DIR}/seq_rows.csv)

# 2. A run SIGKILLed at cell 2: must fail, with cells 0 and 1 (and
#    no more) recorded in the resume manifest.
execute_process(COMMAND ${DASH_LAB} run --grid ${GRID} --chaos kill:2
                --quiet --out ${WORK_DIR}/kill.jsonl
                --json ${WORK_DIR}/kill.json --rows ${WORK_DIR}/kill_rows.csv
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "chaos kill:2 run unexpectedly succeeded")
endif()
file(STRINGS ${WORK_DIR}/kill.jsonl kill_records)
list(LENGTH kill_records kill_count)
if(NOT kill_count EQUAL 2)
  message(FATAL_ERROR "kill:2 left ${kill_count} records, expected 2")
endif()

# 3. Resume without chaos: only the missing cells are recomputed;
#    document and rows must be byte-identical to the sequential run.
run_lab(run --grid ${GRID} --resume --quiet --out ${WORK_DIR}/kill.jsonl
        --json ${WORK_DIR}/kill_resumed.json
        --rows ${WORK_DIR}/kill_rows.csv)
assert_same(${WORK_DIR}/seq.json ${WORK_DIR}/kill_resumed.json
            "resumed-after-kill document vs sequential")
assert_same(${WORK_DIR}/seq_rows.csv ${WORK_DIR}/kill_rows.csv
            "resumed-after-kill rows vs sequential")

# 4. Torn write: the run flushes half of cell 1's record line (no
#    newline) before dying. The record loader's truncated-final-line
#    recovery must eat it on resume and the bytes must still match.
#    (--rows is passed on both runs: resume keeps completed cells' rows
#    from the first run's rows file rather than recomputing them.)
execute_process(COMMAND ${DASH_LAB} run --grid ${GRID} --chaos torn:1
                --quiet --out ${WORK_DIR}/torn.jsonl
                --json ${WORK_DIR}/torn.json --rows ${WORK_DIR}/torn_rows.csv
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "chaos torn:1 run unexpectedly succeeded")
endif()
file(READ ${WORK_DIR}/torn.jsonl torn)
if(torn MATCHES "\n$")
  message(FATAL_ERROR "torn:1 left no torn final line:\n${torn}")
endif()
run_lab(run --grid ${GRID} --resume --quiet --out ${WORK_DIR}/torn.jsonl
        --json ${WORK_DIR}/torn_resumed.json
        --rows ${WORK_DIR}/torn_rows.csv)
assert_same(${WORK_DIR}/seq.json ${WORK_DIR}/torn_resumed.json
            "resumed-after-torn document vs sequential")
assert_same(${WORK_DIR}/seq_rows.csv ${WORK_DIR}/torn_rows.csv
            "resumed-after-torn rows vs sequential")

message(STATUS "chaos kill/torn + resume identity OK")
