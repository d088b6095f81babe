# Build file of the benchmark driver. run.py configures the repository's
# top-level project with -DCMAKE_PROJECT_edgestab_INCLUDE=<this file>, so
# the driver links the edgestab libraries built with exactly the
# repository's options, flags and flavors. This file runs right after
# the top-level project() call, before the libraries and the global
# compile definitions exist, so the target is added at the end of the
# top-level CMakeLists instead.
function(perfbench_add_driver)
  add_executable(perfbench_driver
    "${CMAKE_CURRENT_FUNCTION_LIST_DIR}/driver.cpp")
  target_link_libraries(perfbench_driver PRIVATE edgestab_service)
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
  CALL perfbench_add_driver)
