# Hermetic crash/resume gate for the streaming fleet service
# (DESIGN.md §17): the soak digests must be bit-identical across thread
# counts AND across a hard kill (std::_Exit right after a checkpoint
# rename) followed by --resume. Also exercises the sentinel's offline
# soak renderer.
#
#   1. reference soak at --threads 2            -> digests D
#   2. same soak at --threads 1                 -> digests == D
#   3. same soak at --threads 4                 -> digests == D
#   4. same soak with --kill-after-ckpt 2       -> must exit 7
#   5. --resume from the surviving checkpoint   -> digests == D
#   6. edgestab_sentinel soak <report>          -> renders, mentions resume
#   7. --backend int8 --batch 64 at --threads 1 and 4 -> equal digests
#      (--batch no longer shapes the service, where each develop worker
#      classifies its own shot; the leg still pins that the flag cannot
#      move an int8 result at any thread count)
#
# Expected -D variables: BENCH_EXE, SENTINEL_EXE, WORK_DIR, CACHE_DIR.
foreach(var BENCH_EXE SENTINEL_EXE WORK_DIR CACHE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_soak_gate: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# A geometry that exercises every tier and control path: all three
# device classes, a deadline tight enough to open breakers, moderate
# capture/delivery faults, telemetry with a 4-item window so the 7-slot
# checkpoint cadence lands mid-window.
set(common_args
  --devices 8 --shots 640 --bank 4 --scene 32
  --faults "moderate,budget,deadline_ms=24" --telemetry)
set(ckpt_file "${WORK_DIR}/soak.ckpt.json")

function(run_soak out_var expect_rc)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
      "EDGESTAB_CACHE=${CACHE_DIR}"
      "EDGESTAB_TELEMETRY_WINDOW=4"
      "${BENCH_EXE}" ${common_args} ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR
      "soak_gate: ${ARGN} exited with ${rc} (expected ${expect_rc}):\n${out}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Pull the four guarded digests out of a .soak.json.
function(soak_digests out_var file)
  file(READ "${file}" body)
  string(REGEX MATCH
    "\"digests\":{[^}]*}" digests "${body}")
  if(digests STREQUAL "")
    message(FATAL_ERROR "soak_gate: no digests block in ${file}")
  endif()
  set(${out_var} "${digests}" PARENT_SCOPE)
endfunction()

message(STATUS "==== soak_gate: reference run (--threads 2) ====")
run_soak(out 0 --threads 2 --soak-out "${WORK_DIR}/ref.soak.json")
soak_digests(ref_digests "${WORK_DIR}/ref.soak.json")

message(STATUS "==== soak_gate: thread invariance (--threads 1) ====")
run_soak(out 0 --threads 1 --soak-out "${WORK_DIR}/t1.soak.json")
soak_digests(t1_digests "${WORK_DIR}/t1.soak.json")
if(NOT t1_digests STREQUAL ref_digests)
  message(FATAL_ERROR
    "soak_gate: digests differ across thread counts:\n"
    "  threads 2: ${ref_digests}\n  threads 1: ${t1_digests}")
endif()

# Four develop workers: the width the pool runs at on a 4-core host.
message(STATUS "==== soak_gate: thread invariance (--threads 4) ====")
run_soak(out 0 --threads 4 --soak-out "${WORK_DIR}/t4.soak.json")
soak_digests(t4_digests "${WORK_DIR}/t4.soak.json")
if(NOT t4_digests STREQUAL ref_digests)
  message(FATAL_ERROR
    "soak_gate: digests differ across thread counts:\n"
    "  threads 2: ${ref_digests}\n  threads 4: ${t4_digests}")
endif()

message(STATUS "==== soak_gate: hard kill after 2 checkpoints ====")
run_soak(out 7 --threads 2
  --ckpt "${ckpt_file}" --ckpt-slots 7 --kill-after-ckpt 2)
if(NOT EXISTS "${ckpt_file}")
  message(FATAL_ERROR "soak_gate: hard kill left no checkpoint file")
endif()
if(EXISTS "${ckpt_file}.tmp")
  message(FATAL_ERROR "soak_gate: stale checkpoint tmp file after rename")
endif()

message(STATUS "==== soak_gate: resume to completion ====")
run_soak(resume_out 0 --threads 2
  --ckpt "${ckpt_file}" --ckpt-slots 7 --resume
  --soak-out "${WORK_DIR}/resumed.soak.json")
if(NOT resume_out MATCHES "resumed from")
  message(FATAL_ERROR "soak_gate: resume run did not report resuming")
endif()
soak_digests(resumed_digests "${WORK_DIR}/resumed.soak.json")
if(NOT resumed_digests STREQUAL ref_digests)
  message(FATAL_ERROR
    "soak_gate: kill/resume digests differ from the uninterrupted run:\n"
    "  reference: ${ref_digests}\n  resumed:   ${resumed_digests}")
endif()

message(STATUS "==== soak_gate: sentinel offline render ====")
execute_process(
  COMMAND "${SENTINEL_EXE}" soak "${WORK_DIR}/resumed.soak.json"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "soak_gate: sentinel soak failed with ${rc}:\n${out}")
endif()
if(NOT out MATCHES "resumed from slot" OR NOT out MATCHES "OUTCOME" OR
   NOT out MATCHES "BUSY-MS")
  message(FATAL_ERROR "soak_gate: sentinel soak render incomplete:\n${out}")
endif()

message(STATUS "==== soak_gate: int8 at --batch 64 (--threads 1 vs 4) ====")
run_soak(out 0 --backend int8 --batch 64 --threads 1
  --soak-out "${WORK_DIR}/int8_t1.soak.json")
soak_digests(int8_t1_digests "${WORK_DIR}/int8_t1.soak.json")
run_soak(out 0 --backend int8 --batch 64 --threads 4
  --soak-out "${WORK_DIR}/int8_t4.soak.json")
soak_digests(int8_t4_digests "${WORK_DIR}/int8_t4.soak.json")
if(NOT int8_t4_digests STREQUAL int8_t1_digests)
  message(FATAL_ERROR
    "soak_gate: int8 --batch 64 digests differ across thread counts:\n"
    "  threads 1: ${int8_t1_digests}\n  threads 4: ${int8_t4_digests}")
endif()

message(STATUS
  "soak_gate OK — digests bit-identical across threads and kill/resume")
