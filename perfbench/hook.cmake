# Injected into the repository's own top-level configure through
# -DCMAKE_PROJECT_INCLUDE=perfbench/hook.cmake (see run.py). It runs
# right after project(), before any target exists, so it defers the
# benchmark package (perfbench/CMakeLists.txt) until the top-level
# CMakeLists.txt has been processed. The harness then links the exact
# targets, compile flags and build type that `vrdrepro` itself is built
# with, and the repository's build files need no change. A deferred
# call may not add a subdirectory, hence include(); its arguments are
# expanded when it runs, hence the variable.
if(NOT PERFBENCH_DIR)
  set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})
  cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR} CALL
    include "${PERFBENCH_DIR}/CMakeLists.txt")
endif()
