# dash_lab_smoke.cmake -- end-to-end shard/merge identity check, run as
# a ctest (and by the CI smoke job). Drives the dash_lab binary through
# the run/merge paths over one tiny grid and asserts the exp layer's
# core guarantee: the merged document of any partition of the cells is
# byte-identical to the single-process sequential run, including after
# --resume from dropped or truncated record files. It also checks that
# a failed output write fails the command.
#
#   cmake -DDASH_LAB=<path> -DWORK_DIR=<scratch dir> -P dash_lab_smoke.cmake
if(NOT DASH_LAB OR NOT WORK_DIR)
  message(FATAL_ERROR "need -DDASH_LAB=<binary> and -DWORK_DIR=<dir>")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(GRID "name=smoke n=24|32 healer=dash|graph scenario=paper-churn|until-quarter instances=2 seed=11")

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

# 1. Single-process sequential reference.
run_lab(run --grid ${GRID} --threads 1 --quiet --json ${WORK_DIR}/seq.json)

# 2. Two single-shard worker invocations (the distributed path, driven
#    by hand) + merge.
run_lab(run --grid ${GRID} --shard 0/2 --threads 1 --quiet
        --out ${WORK_DIR}/s0.jsonl)
run_lab(run --grid ${GRID} --shard 1/2 --threads 1 --quiet
        --out ${WORK_DIR}/s1.jsonl)
run_lab(merge --grid ${GRID}
        --inputs ${WORK_DIR}/s0.jsonl,${WORK_DIR}/s1.jsonl
        --quiet --json ${WORK_DIR}/merged.json)
assert_same(${WORK_DIR}/seq.json ${WORK_DIR}/merged.json
            "2-shard merge vs sequential")

# 3. The whole grid streamed to a record file in one process: the
#    document it emits alongside is the same bytes.
run_lab(run --grid ${GRID} --quiet --out ${WORK_DIR}/all.jsonl
        --json ${WORK_DIR}/recorded.json)
assert_same(${WORK_DIR}/seq.json ${WORK_DIR}/recorded.json
            "single-process run with a record file vs sequential")

# 4. Resume: drop shard 1's record file and rerun both shards with
#    --resume. Shard 0 is complete, so it must recompute nothing (no
#    progress lines); shard 1 recomputes everything; the merge still
#    matches.
file(REMOVE ${WORK_DIR}/s1.jsonl)
execute_process(COMMAND ${DASH_LAB} run --grid ${GRID} --shard 0/2
                --out ${WORK_DIR}/s0.jsonl --resume
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resume of complete shard 0 failed (${rc}):\n${err}")
endif()
if(err MATCHES "\\[[0-9]+/[0-9]+\\]")
  message(FATAL_ERROR "resume of a complete shard recomputed cells:\n${err}")
endif()
run_lab(run --grid ${GRID} --shard 1/2 --out ${WORK_DIR}/s1.jsonl --resume
        --quiet)
run_lab(merge --grid ${GRID}
        --inputs ${WORK_DIR}/s0.jsonl,${WORK_DIR}/s1.jsonl
        --quiet --json ${WORK_DIR}/resumed.json)
assert_same(${WORK_DIR}/seq.json ${WORK_DIR}/resumed.json
            "resumed shards vs sequential")

# 5. Resume after an *interrupted write*: chop the final record of
#    shard 0 mid-line (no trailing newline); the truncated cell must be
#    recomputed, the manifest rewritten cleanly (merge rejects a
#    malformed interior line), and the bytes still match.
file(READ ${WORK_DIR}/s0.jsonl shard0)
string(LENGTH "${shard0}" shard0_len)
math(EXPR cut "${shard0_len} - 25")
string(SUBSTRING "${shard0}" 0 ${cut} shard0)
file(WRITE ${WORK_DIR}/s0.jsonl "${shard0}")
run_lab(run --grid ${GRID} --shard 0/2 --out ${WORK_DIR}/s0.jsonl --resume
        --quiet)
run_lab(merge --grid ${GRID}
        --inputs ${WORK_DIR}/s0.jsonl,${WORK_DIR}/s1.jsonl
        --quiet --json ${WORK_DIR}/resumed_truncated.json)
assert_same(${WORK_DIR}/seq.json ${WORK_DIR}/resumed_truncated.json
            "resume after truncated shard write vs sequential")

# 6. Output writes that fail (a full disk) must fail the command: every
#    output flag, and stdout, is probed against /dev/full.
if(EXISTS /dev/full)
  set(TINY "name=t n=24 healer=dash scenario=paper-churn instances=1 seed=3")
  function(expect_write_failure what)
    execute_process(COMMAND ${DASH_LAB} ${ARGN} --quiet
                    RESULT_VARIABLE rc ERROR_VARIABLE err
                    OUTPUT_FILE /dev/full)
    if(rc EQUAL 0)
      message(FATAL_ERROR "${what} to /dev/full exited 0")
    endif()
    if(NOT err MATCHES "cannot write")
      message(FATAL_ERROR "${what} to /dev/full: no write error:\n${err}")
    endif()
  endfunction()
  expect_write_failure("run --json" run --grid ${TINY} --json /dev/full)
  expect_write_failure("run --rows" run --grid ${TINY} --rows /dev/full
                       --json ${WORK_DIR}/tiny.json)
  expect_write_failure("run --out" run --grid ${TINY} --out /dev/full)
  expect_write_failure("run to stdout" run --grid ${TINY})
  expect_write_failure("merge --json" merge --grid ${GRID}
                       --inputs ${WORK_DIR}/s0.jsonl,${WORK_DIR}/s1.jsonl
                       --json /dev/full)
endif()

message(STATUS "dash_lab shard/merge identity OK")
