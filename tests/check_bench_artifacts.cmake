# Runs one bench binary end-to-end in a scratch directory and asserts its
# artifacts land: the result CSV, provenance manifest, Chrome trace,
# stage-timing CSV and drift reports. Invoked by the `bench_artifacts`
# ctest entry; the model cache lives in the build tree so only the first
# run pays for pretraining.
#
# Expected -D variables: BENCH_EXE, WORK_DIR, CACHE_DIR, BENCH_NAME,
# CSV_FILE.
foreach(var BENCH_EXE WORK_DIR CACHE_DIR BENCH_NAME CSV_FILE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_bench_artifacts: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}/bench_out")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "EDGESTAB_CACHE=${CACHE_DIR}" "${BENCH_EXE}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "bench exited with ${bench_rc}")
endif()

set(out "${WORK_DIR}/bench_out")
foreach(artifact "${CSV_FILE}" "${BENCH_NAME}.meta.json")
  if(NOT EXISTS "${out}/${artifact}")
    message(FATAL_ERROR "missing artifact ${out}/${artifact}")
  endif()
endforeach()

# The manifest must be non-trivial (schema header present).
file(READ "${out}/${BENCH_NAME}.meta.json" meta)
if(NOT meta MATCHES "edgestab-run-manifest-v1")
  message(FATAL_ERROR "manifest ${out}/${BENCH_NAME}.meta.json lacks schema")
endif()

set(trace "${out}/${BENCH_NAME}.trace.json")
if(NOT EXISTS "${trace}")
  message(FATAL_ERROR "bench produced no ${trace}")
endif()
file(READ "${trace}" trace_doc)
if(NOT trace_doc MATCHES "traceEvents")
  message(FATAL_ERROR "${trace} is not a Chrome trace document")
endif()
if(NOT EXISTS "${out}/${BENCH_NAME}_stage_timing.csv")
  message(FATAL_ERROR "missing ${out}/${BENCH_NAME}_stage_timing.csv")
endif()

set(drift_json "${out}/${BENCH_NAME}.drift.json")
set(drift_html "${out}/${BENCH_NAME}.drift.html")
if(NOT EXISTS "${drift_json}")
  message(FATAL_ERROR "bench produced no ${drift_json}")
endif()
file(READ "${drift_json}" drift_doc)
if(NOT drift_doc MATCHES "edgestab-drift-report-v1")
  message(FATAL_ERROR "${drift_json} lacks the drift report schema")
endif()
if(NOT EXISTS "${drift_html}")
  message(FATAL_ERROR "bench produced no ${drift_html}")
endif()
# The manifest must carry the drift digests bench::Run folded in.
if(NOT meta MATCHES "drift_report")
  message(FATAL_ERROR "manifest lacks the drift_report digest")
endif()

message(STATUS "bench artifacts OK in ${out}")
