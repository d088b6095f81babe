# Builds the tree with -DEDGESTAB_TSAN=ON in a child build tree and runs
# bench_table4_isp --threads 4 (smoke-size rig, shared model cache), then
# a faulted and a clean bench_fleet_soak --threads 4, under
# ThreadSanitizer. The parallel runtime's determinism contract is checked
# by test_runtime's digest tests; this test checks the other half — that
# the pool, the drift auditor's off-lock comparisons and the codec/ISP
# bodies running on pool lanes are free of data races, with TSAN as the
# judge. halt_on_error makes the bench exit non-zero on the first report.
#
# Expected -D variables: SOURCE_DIR, WORK_DIR, CACHE_DIR.
foreach(var SOURCE_DIR WORK_DIR CACHE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_tsan_smoke: ${var} not set")
  endif()
endforeach()

set(build_dir "${WORK_DIR}/tsan_build")
message(STATUS "==== tsan_smoke: configure ====")
execute_process(
  COMMAND ${CMAKE_COMMAND} -S "${SOURCE_DIR}" -B "${build_dir}"
    -DCMAKE_BUILD_TYPE=Release
    -DEDGESTAB_TSAN=ON
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tsan_smoke: configure failed with ${rc}")
endif()

message(STATUS "==== tsan_smoke: build bench_table4_isp ====")
include(ProcessorCount)
ProcessorCount(ncpu)
if(ncpu EQUAL 0)
  set(ncpu 2)
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} --build "${build_dir}"
    --target bench_table4_isp --parallel ${ncpu}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tsan_smoke: build failed with ${rc}")
endif()

message(STATUS "==== tsan_smoke: run under ThreadSanitizer ====")
set(run_dir "${build_dir}/smoke_run")
file(REMOVE_RECURSE "${run_dir}")
file(MAKE_DIRECTORY "${run_dir}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
    "EDGESTAB_CACHE=${CACHE_DIR}"
    "EDGESTAB_RIG_OBJECTS=2"
    "TSAN_OPTIONS=halt_on_error=1"
    "${build_dir}/bench/bench_table4_isp" --threads 4
  WORKING_DIRECTORY "${run_dir}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "tsan_smoke: bench exited with ${rc} (a ThreadSanitizer report fails "
    "the run; see output above)")
endif()

if(NOT EXISTS "${run_dir}/bench_out/table4_isp.meta.json")
  message(FATAL_ERROR "tsan_smoke: bench produced no provenance manifest")
endif()

# The streaming service is the most thread-shaped subsystem in the tree
# (bounded MPMC queues, a condvar lead cap, concurrent per-worker model
# forwards), so a tiny faulted soak runs under TSAN too.
message(STATUS "==== tsan_smoke: build bench_fleet_soak ====")
execute_process(
  COMMAND ${CMAKE_COMMAND} --build "${build_dir}"
    --target bench_fleet_soak --parallel ${ncpu}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tsan_smoke: soak build failed with ${rc}")
endif()

message(STATUS "==== tsan_smoke: run service soak under ThreadSanitizer ====")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
    "EDGESTAB_CACHE=${CACHE_DIR}"
    "TSAN_OPTIONS=halt_on_error=1"
    "${build_dir}/bench/bench_fleet_soak" --threads 4
    --devices 6 --shots 120 --bank 2 --scene 32
    --faults "light,budget,deadline_ms=24" --telemetry
  WORKING_DIRECTORY "${run_dir}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "tsan_smoke: bench_fleet_soak exited with ${rc} (a ThreadSanitizer "
    "report fails the run; see output above)")
endif()

# A clean soak classifies every shot, so the develop workers' model
# clones run their forwards concurrently for the whole run.
message(STATUS "==== tsan_smoke: run clean soak under ThreadSanitizer ====")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
    "EDGESTAB_CACHE=${CACHE_DIR}"
    "TSAN_OPTIONS=halt_on_error=1"
    "${build_dir}/bench/bench_fleet_soak" --threads 4
    --devices 8 --shots 320 --bank 2 --scene 32
  WORKING_DIRECTORY "${run_dir}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "tsan_smoke: clean bench_fleet_soak exited with ${rc} (a "
    "ThreadSanitizer report fails the run; see output above)")
endif()

message(STATUS "tsan_smoke OK — no races reported at --threads 4")
