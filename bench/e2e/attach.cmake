# Builds the end-to-end benchmark against an unmodified repository root:
#
#   cmake -S . -B .bench_build/bgl -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/bench/e2e/attach.cmake
#   cmake --build .bench_build/bgl --target bench_e2e
#
# CMake includes this file right after the root project() call, before the
# library targets exist, so the benchmark's targets are defined at the end
# of the root CMakeLists.txt instead (deferred calls may not
# add_subdirectory, hence include()). Deferred arguments are expanded when
# the call runs, so the path goes through a variable of the root scope.
include_guard(GLOBAL)
set(BGL_E2E_LISTS "${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL
               include "${BGL_E2E_LISTS}")
