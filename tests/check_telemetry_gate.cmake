# Hermetic end-to-end check of the fleet health telemetry stack.
#
# Flow (all inside WORK_DIR, smoke-size rig, faults moderate so the
# anomaly engine has something to page about):
#   1. Warm-up/reference run WITHOUT --telemetry: warms the model cache,
#      snapshots the result CSVs as the observe-never-alter reference,
#      and asserts no fleet artifacts land when telemetry is unarmed.
#   2. Run --telemetry --threads 1: fleet.json + fleet.html +
#      events.jsonl must land with their schemas, the alert cross-check
#      must pass on stdout, and every CSV must be byte-identical to the
#      untelemetered reference.
#   3. Run --telemetry --threads 2: fleet.json and events.jsonl must be
#      byte-identical to the single-threaded run and the alert-ledger
#      digest in the manifest bit-identical (lane-merge determinism).
#   4. `sentinel render` re-renders the dashboard offline from fleet.json
#      as text and, with --out, as HTML byte-identical to fleet.html.
#   5. Promote the candidate BENCH_fig3.json — which must carry the
#      telemetry headline metrics — and re-run telemetered: `sentinel
#      compare` must exit 0 with zero regressed metrics.
#
# Expected -D variables: BENCH_EXE, SENTINEL_EXE, WORK_DIR, CACHE_DIR.
foreach(var BENCH_EXE SENTINEL_EXE WORK_DIR CACHE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_telemetry_gate: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/baselines")

set(smoke_env "EDGESTAB_CACHE=${CACHE_DIR}" "EDGESTAB_RIG_OBJECTS=2")
set(fault_plan "moderate")

function(run_bench label out_var)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${smoke_env} "${BENCH_EXE}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label}: bench exited with ${rc}\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Pull the alert-ledger digest out of the provenance manifest.
function(read_alert_digest path out_var)
  file(READ "${path}" doc)
  if(NOT doc MATCHES "\"alert_ledger\":\"([0-9a-f]+)\"")
    message(FATAL_ERROR "${path} carries no alert_ledger digest")
  endif()
  set(${out_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

function(check_csvs_match label)
  file(GLOB ref_csvs "${WORK_DIR}/ref_csv/*.csv")
  if(ref_csvs STREQUAL "")
    message(FATAL_ERROR "${label}: no reference CSVs were captured")
  endif()
  foreach(ref ${ref_csvs})
    get_filename_component(csv_name "${ref}" NAME)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
        "${ref}" "${WORK_DIR}/bench_out/${csv_name}"
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "${label}: ${csv_name} differs from the untelemetered reference — "
        "telemetry must observe, never alter")
    endif()
  endforeach()
endfunction()

# --- 1. warm-up + untelemetered reference --------------------------------
run_bench("reference run" ref_out --threads 1 --faults ${fault_plan})
file(GLOB plain_csvs "${WORK_DIR}/bench_out/fig3[abcd]_*.csv")
if(plain_csvs STREQUAL "")
  message(FATAL_ERROR "reference run produced no fig3 CSVs")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}/ref_csv")
file(COPY ${plain_csvs} DESTINATION "${WORK_DIR}/ref_csv")
foreach(artifact fig3.fleet.json fig3.fleet.html fig3.events.jsonl)
  if(EXISTS "${WORK_DIR}/bench_out/${artifact}")
    message(FATAL_ERROR
      "unarmed run wrote ${artifact} — telemetry must stay opt-in")
  endif()
endforeach()

# --- 2. telemetered single-threaded run ----------------------------------
run_bench("telemetry t1 run" t1_out
  --threads 1 --faults ${fault_plan} --telemetry)
foreach(artifact fig3.fleet.json fig3.fleet.html fig3.events.jsonl)
  if(NOT EXISTS "${WORK_DIR}/bench_out/${artifact}")
    message(FATAL_ERROR "telemetered run wrote no bench_out/${artifact}")
  endif()
endforeach()
file(READ "${WORK_DIR}/bench_out/fig3.fleet.json" fleet_doc)
if(NOT fleet_doc MATCHES "\"schema\":\"edgestab-fleet-v1\"")
  message(FATAL_ERROR "fig3.fleet.json lacks the edgestab-fleet-v1 schema")
endif()
file(READ "${WORK_DIR}/bench_out/fig3.events.jsonl" events_doc)
if(NOT events_doc MATCHES "\"schema\":\"edgestab-events-v1\"")
  message(FATAL_ERROR "fig3.events.jsonl lacks the edgestab-events-v1 schema")
endif()
if(NOT t1_out MATCHES "\\[alert\\] ledger matches receipts")
  message(FATAL_ERROR
    "telemetered run did not pass the alert cross-check:\n${t1_out}")
endif()
check_csvs_match("telemetry t1 run")
read_alert_digest("${WORK_DIR}/bench_out/fig3.meta.json" t1_digest)
file(COPY "${WORK_DIR}/bench_out/fig3.fleet.json"
          "${WORK_DIR}/bench_out/fig3.events.jsonl"
  DESTINATION "${WORK_DIR}/t1_ref")

# --- 3. telemetered two-thread run: lane-merge determinism ---------------
run_bench("telemetry t2 run" t2_out
  --threads 2 --faults ${fault_plan} --telemetry)
read_alert_digest("${WORK_DIR}/bench_out/fig3.meta.json" t2_digest)
if(NOT t1_digest STREQUAL t2_digest)
  message(FATAL_ERROR
    "alert-ledger digest differs across thread counts: "
    "t1=${t1_digest} t2=${t2_digest}")
endif()
foreach(artifact fig3.fleet.json fig3.events.jsonl)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
      "${WORK_DIR}/t1_ref/${artifact}" "${WORK_DIR}/bench_out/${artifact}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "${artifact} differs between --threads 1 and 2 — the telemetry "
      "determinism contract is broken")
  endif()
endforeach()
check_csvs_match("telemetry t2 run")

# --- 4. offline re-render via the sentinel -------------------------------
execute_process(
  COMMAND "${SENTINEL_EXE}" render bench_out/fig3.fleet.json
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sentinel render (text) exited ${rc}:\n${out}${err}")
endif()
if(NOT out MATCHES "fleet health" OR NOT out MATCHES "${t1_digest}")
  message(FATAL_ERROR
    "sentinel render rendered no per-device table / digest:\n${out}")
endif()
execute_process(
  COMMAND "${SENTINEL_EXE}" render bench_out/fig3.fleet.json
    --out rerender.html
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sentinel render (html) exited ${rc}:\n${out}${err}")
endif()
if(NOT EXISTS "${WORK_DIR}/rerender.html")
  message(FATAL_ERROR "sentinel render --out wrote no file")
endif()
# The dashboard is a pure function of fleet.json: the offline re-render
# must be byte-identical to the one the bench wrote.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    "${WORK_DIR}/rerender.html" "${WORK_DIR}/bench_out/fig3.fleet.html"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "sentinel render --out is not byte-identical to bench_out/fig3.fleet.html")
endif()

# --- 5. telemetry metrics must survive a clean sentinel compare ----------
file(READ "${WORK_DIR}/bench_out/BENCH_fig3.json" candidate)
foreach(metric alerts_total devices_degraded "health\\." digest.alert_ledger)
  if(NOT candidate MATCHES "${metric}")
    message(FATAL_ERROR "BENCH_fig3.json lacks the ${metric} metric")
  endif()
endforeach()
file(COPY "${WORK_DIR}/bench_out/BENCH_fig3.json"
  DESTINATION "${WORK_DIR}/baselines")

run_bench("compare run" cmp_out
  --threads 2 --faults ${fault_plan} --telemetry)
execute_process(
  COMMAND "${SENTINEL_EXE}" compare --bench fig3 --rel-tol 0.5
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "telemetered compare exited ${rc}:\n${out}${err}")
endif()
if(NOT out MATCHES "0 regressed")
  message(FATAL_ERROR "telemetered compare reported regressions:\n${out}")
endif()

message(STATUS "telemetry gate OK in ${WORK_DIR}")
