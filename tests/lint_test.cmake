# pramlint under ctest: the fixture suite proves every rule still fires
# (and every exemption still holds), the whole-tree run proves the tree
# itself is clean modulo the reasoned allowlist. Both gate tier-1.
# Included from the top-level CMakeLists.txt when a Python interpreter
# is available; PRAMSIM_SOURCE_DIR is the repository root.

add_test(NAME lint_selftest
  COMMAND ${Python3_EXECUTABLE}
          ${PRAMSIM_SOURCE_DIR}/tools/lint/pramlint.py --self-test)

# check_bench_baseline.py's built-in cases: CI's BENCH shape diff must
# read titles with measured numbers of any magnitude as one shape.
add_test(NAME bench_baseline_selftest
  COMMAND ${Python3_EXECUTABLE}
          ${PRAMSIM_SOURCE_DIR}/tools/check_bench_baseline.py --self-test)

add_test(NAME lint_tree
  COMMAND ${Python3_EXECUTABLE}
          ${PRAMSIM_SOURCE_DIR}/tools/lint/pramlint.py
          ${PRAMSIM_SOURCE_DIR})
