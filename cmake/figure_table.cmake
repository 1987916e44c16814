# Figure-table pin, run by ctest (label: figures).
#
# 1. Run one paper-figure bench (bench_fig8 ... bench_fig16).
# 2. Drop its BENCH_JSON lines: they carry wall time and RSS.
# 3. What is left, the capture tables and their notes, must be
#    byte-identical to the committed expected file.
#
# Expects: BENCH_BIN, EXPECTED, ACTUAL (where the stripped output goes).

execute_process(
  COMMAND "${BENCH_BIN}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH_BIN} failed (${rc}):\n${err}")
endif()

string(REGEX REPLACE "BENCH_JSON [^\n]*\n" "" tables "${out}")
get_filename_component(actual_dir "${ACTUAL}" DIRECTORY)
file(MAKE_DIRECTORY "${actual_dir}")
file(WRITE "${ACTUAL}" "${tables}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${ACTUAL}" "${EXPECTED}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "${ACTUAL} differs from the expected tables ${EXPECTED}; compare them "
    "with diff. If the figure change is intended, regenerate the file "
    "with: ${BENCH_BIN} | grep -v '^BENCH_JSON' > ${EXPECTED}")
endif()
