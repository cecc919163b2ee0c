# cli_errors_smoke.cmake -- the CLI error paths, run as a ctest: a bad
# healer name exits 2 listing the registered healers, a bad size sweep
# exits 2 naming the flag, and an output file that cannot be written
# (/dev/full, a missing directory, a hunt artifact symlinked to
# /dev/full) exits 1 with "cannot write" instead of reporting it
# written.
#
#   cmake -DBIN_DIR=<dir with the binaries> -DWORK_DIR=<scratch dir>
#         -P cli_errors_smoke.cmake
if(NOT BIN_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "need -DBIN_DIR=<binary dir> and -DWORK_DIR=<dir>")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Run BIN_DIR/<binary> with the remaining arguments; the exit code must
# be exactly `want_rc` and standard error must match `want_err`.
function(expect what want_rc want_err binary)
  execute_process(COMMAND ${BIN_DIR}/${binary} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL want_rc)
    message(FATAL_ERROR "${what}: exit ${rc}, want ${want_rc}\n${out}\n${err}")
  endif()
  if(NOT err MATCHES "${want_err}")
    message(FATAL_ERROR "${what}: stderr lacks '${want_err}':\n${err}")
  endif()
endfunction()

expect("quickstart --healer bogus" 2
       "unknown healing strategy: 'bogus' \\(registered: dash, sdash"
       quickstart --n 32 --healer bogus)

# A size sweep that is not one fails by name before any work: --min-n 0
# never advances the doubling, --min-n above --max-n is empty, and a
# --max-n past the node id range would wrap the doubling.
foreach(binary thm1_bounds sim_distributed)
  expect("${binary} --min-n 0" 2 "--min-n must be >= 1"
         ${binary} --min-n 0 --max-n 64 --instances 1)
  expect("${binary} --min-n 64 --max-n 32" 2 "--min-n 64 exceeds --max-n 32"
         ${binary} --min-n 64 --max-n 32 --instances 1)
  expect("${binary} --max-n 2^63" 2
         "--max-n 9223372036854775808 exceeds the largest graph size"
         ${binary} --min-n 64 --max-n 9223372036854775808 --instances 1)
endforeach()

# A scenario whose attack parameter is bad fails by name when the
# phase runs, not with an uncaught exception.
expect("quickstart --scenario strike:rank:abcx3" 2
       "bad scenario: .*rank"
       quickstart --n 32 --scenario strike:rank:abcx3)

set(FIG --min-n 16 --max-n 16 --instances 1)
expect("ablation_leaf_placement --json to a missing directory" 1
       "cannot write '${WORK_DIR}/no/such/dir/x.json'"
       ablation_leaf_placement ${FIG} --json ${WORK_DIR}/no/such/dir/x.json)

if(EXISTS /dev/full)
  foreach(flag --json --csv)
    expect("ablation_leaf_placement ${flag} /dev/full" 1
           "cannot write '/dev/full'"
           ablation_leaf_placement ${FIG} ${flag} /dev/full)
  endforeach()

  file(MAKE_DIRECTORY ${WORK_DIR}/hunt)
  file(CREATE_LINK /dev/full ${WORK_DIR}/hunt/HUNT_probe.json SYMBOLIC)
  expect("hunt with an unwritable leaderboard" 1
         "cannot write '${WORK_DIR}/hunt/HUNT_probe.json'"
         dash_lab hunt --name probe --n 24 --budget 6 --strategy random
         --state-dir ${WORK_DIR}/hunt --quiet)
endif()

message(STATUS "CLI error paths OK")
