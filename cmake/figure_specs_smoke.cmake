# figure_specs_smoke.cmake -- keeps the checked-in grid specs from
# rotting, run as a ctest (`ctest -L bench-smoke`): every
# examples/*.spec must enumerate through `dash_lab list-cells`, and the
# paper-figure specs (fig8.spec for Figs. 8/9(a)/9(b), fig10.spec for
# Fig. 10) must run whole and print their tables on stderr. A sharded
# or --quiet run prints none.
#
#   cmake -DDASH_LAB=<binary> -DSPEC_DIR=<examples dir> -DWORK_DIR=<dir>
#         -P figure_specs_smoke.cmake
if(NOT DASH_LAB OR NOT SPEC_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR
          "need -DDASH_LAB=<binary> -DSPEC_DIR=<dir> -DWORK_DIR=<dir>")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Run dash_lab with the remaining arguments; it must exit 0. The
# captured stderr lands in `err_var`.
function(lab err_var what)
  execute_process(COMMAND ${DASH_LAB} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what}: exit ${rc}\n${out}\n${err}")
  endif()
  set(${err_var} "${err}" PARENT_SCOPE)
endfunction()

file(GLOB specs ${SPEC_DIR}/*.spec)
if(NOT specs)
  message(FATAL_ERROR "no *.spec files in ${SPEC_DIR}")
endif()
foreach(spec ${specs})
  lab(err "list-cells ${spec}" list-cells --spec ${spec})
endforeach()

# Each figure spec: the tables it must print, in order.
set(fig8_tables
    "Figure 8: maximum degree increase vs graph size.*2log2\\(n\\).*Figure 9\\(a\\): max ID changes per node.*2ln\\(n\\).*Figure 9\\(b\\): max messages sent per node")
set(fig10_tables
    "Figure 8: maximum degree increase.*Figure 9\\(b\\).*Figure 10: max stretch vs graph size.*log2\\(n\\)")
foreach(fig fig8 fig10)
  lab(err "run ${fig}.spec" run --spec ${SPEC_DIR}/${fig}.spec --threads 1
      --json ${WORK_DIR}/BENCH_${fig}.json)
  if(NOT err MATCHES "${${fig}_tables}")
    message(FATAL_ERROR "run ${fig}.spec: stderr lacks its tables:\n${err}")
  endif()
  if(NOT err MATCHES "\\[[0-9]+/[0-9]+\\][^\n]*\n.*== Figure")
    message(FATAL_ERROR "run ${fig}.spec: tables not after progress:\n${err}")
  endif()
endforeach()
if(err MATCHES "Figure 10.*Figure 10")
  message(FATAL_ERROR "fig10.spec: one scenario, one stretch table:\n${err}")
endif()

set(GRID "n=16|32 healer=dash|sdash scenario=until-half instances=1 seed=5")
lab(err "run --quiet" run --grid ${GRID} --quiet --json ${WORK_DIR}/q.json)
if(NOT err STREQUAL "")
  message(FATAL_ERROR "run --quiet wrote to stderr:\n${err}")
endif()
lab(err "run --shard 0/2" run --grid ${GRID} --shard 0/2
    --out ${WORK_DIR}/s0.jsonl)
if(err MATCHES "== Figure")
  message(FATAL_ERROR "a shard printed tables of a partial grid:\n${err}")
endif()

message(STATUS "figure specs OK")
