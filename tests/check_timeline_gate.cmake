# Hermetic gate for the service timeline (DESIGN.md §18): the epoch
# series digest must be bit-identical across thread counts AND across a
# hard kill + --resume, the per-epoch outcome deltas must reconcile
# exactly against the run's shot count, arming the timeline must not
# perturb any other artifact, and the sentinel's offline re-render must
# round-trip the HTML byte-exactly.
#
#   1. unarmed run                       -> no timeline artifacts; snapshot
#                                           the per-device CSV
#   2. armed run at --threads 2          -> timeline.json/html land,
#                                           digest.timeline D in meta.json,
#                                           per-device CSV byte-identical
#                                           to the unarmed snapshot
#   3. armed run at --threads 1          -> digest.timeline == D
#   4. armed --kill-after-ckpt 2         -> must exit 7 (epoch 5 vs ckpt
#                                           cadence 7: the checkpoint lands
#                                           mid-epoch)
#   5. armed --resume                    -> digest.timeline == D
#   6. edgestab_sentinel render FILE     -> "shots accounted: 640" and a
#                                           --out re-render byte-identical
#                                           to the bench's HTML
#
# Expected -D variables: BENCH_EXE, SENTINEL_EXE, WORK_DIR, CACHE_DIR.
foreach(var BENCH_EXE SENTINEL_EXE WORK_DIR CACHE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_timeline_gate: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# The soak-gate geometry: all three device classes, a deadline tight
# enough to open breakers (so the transition stream is non-empty),
# moderate capture/delivery faults. 640 shots is the reconciliation
# target the sentinel must account for.
set(common_args
  --devices 8 --shots 640 --bank 4 --scene 32
  --faults "moderate,budget,deadline_ms=24")
# 5-slot epochs against a 7-slot checkpoint cadence: every checkpoint
# boundary lands mid-epoch, so resume must restore the open partial
# epoch exactly.
set(timeline_args --timeline --timeline-epoch 5)
set(ckpt_file "${WORK_DIR}/timeline.ckpt.json")
set(out_dir "${WORK_DIR}/bench_out")

function(run_soak out_var expect_rc)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
      "EDGESTAB_CACHE=${CACHE_DIR}"
      "${BENCH_EXE}" ${common_args} ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR
      "timeline_gate: ${ARGN} exited with ${rc} (expected ${expect_rc}):\n${out}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Pull the timeline digest out of a meta.json manifest.
function(timeline_digest out_var file)
  file(READ "${file}" body)
  string(REGEX MATCH "\"timeline\":\"([0-9a-f]+)\"" m "${body}")
  if(m STREQUAL "")
    message(FATAL_ERROR "timeline_gate: no timeline digest in ${file}")
  endif()
  set(${out_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

function(compare_files label a b)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "timeline_gate: ${label}: ${a} and ${b} differ")
  endif()
endfunction()

message(STATUS "==== timeline_gate: unarmed run writes no timeline ====")
run_soak(out 0 --threads 2)
if(EXISTS "${out_dir}/fleet_soak.timeline.json" OR
   EXISTS "${out_dir}/fleet_soak.timeline.html")
  message(FATAL_ERROR
    "timeline_gate: unarmed run wrote timeline artifacts")
endif()
file(READ "${out_dir}/fleet_soak.meta.json" unarmed_meta)
if(unarmed_meta MATCHES "\"timeline\":")
  message(FATAL_ERROR
    "timeline_gate: unarmed manifest carries a timeline digest")
endif()
configure_file("${out_dir}/fleet_soak_devices.csv"
  "${WORK_DIR}/unarmed_devices.csv" COPYONLY)

message(STATUS "==== timeline_gate: armed reference run (--threads 2) ====")
run_soak(out 0 --threads 2 ${timeline_args})
foreach(artifact fleet_soak.timeline.json fleet_soak.timeline.html)
  if(NOT EXISTS "${out_dir}/${artifact}")
    message(FATAL_ERROR "timeline_gate: armed run wrote no ${artifact}")
  endif()
endforeach()
timeline_digest(ref_digest "${out_dir}/fleet_soak.meta.json")
# Arming the timeline must not perturb the rest of the artifact set.
compare_files("armed run changed the per-device CSV"
  "${out_dir}/fleet_soak_devices.csv" "${WORK_DIR}/unarmed_devices.csv")

message(STATUS "==== timeline_gate: thread invariance (--threads 1) ====")
run_soak(out 0 --threads 1 ${timeline_args})
timeline_digest(t1_digest "${out_dir}/fleet_soak.meta.json")
if(NOT t1_digest STREQUAL ref_digest)
  message(FATAL_ERROR
    "timeline_gate: series digest differs across thread counts:\n"
    "  threads 2: ${ref_digest}\n  threads 1: ${t1_digest}")
endif()

message(STATUS "==== timeline_gate: hard kill after 2 checkpoints ====")
run_soak(out 7 --threads 2 ${timeline_args}
  --ckpt "${ckpt_file}" --ckpt-slots 7 --kill-after-ckpt 2)
if(NOT EXISTS "${ckpt_file}")
  message(FATAL_ERROR "timeline_gate: hard kill left no checkpoint file")
endif()

message(STATUS "==== timeline_gate: resume continues the series ====")
run_soak(resume_out 0 --threads 2 ${timeline_args}
  --ckpt "${ckpt_file}" --ckpt-slots 7 --resume)
if(NOT resume_out MATCHES "resumed from")
  message(FATAL_ERROR "timeline_gate: resume run did not report resuming")
endif()
timeline_digest(resumed_digest "${out_dir}/fleet_soak.meta.json")
if(NOT resumed_digest STREQUAL ref_digest)
  message(FATAL_ERROR
    "timeline_gate: kill/resume series differs from the uninterrupted "
    "run:\n  reference: ${ref_digest}\n  resumed:   ${resumed_digest}")
endif()

message(STATUS "==== timeline_gate: sentinel reconciliation + re-render ====")
execute_process(
  COMMAND "${SENTINEL_EXE}" render "${out_dir}/fleet_soak.timeline.json"
    --out "${WORK_DIR}/rerender.html"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "timeline_gate: sentinel render failed with ${rc}:\n${out}")
endif()
# The per-epoch outcome deltas must sum exactly to the run's shot count.
if(NOT out MATCHES "shots accounted: 640")
  message(FATAL_ERROR
    "timeline_gate: outcome deltas do not reconcile to 640 shots:\n${out}")
endif()
compare_files("sentinel re-render is not byte-identical"
  "${WORK_DIR}/rerender.html" "${out_dir}/fleet_soak.timeline.html")

message(STATUS
  "timeline_gate OK — series bit-identical across threads and "
  "kill/resume, outcomes reconcile, HTML round-trips")
