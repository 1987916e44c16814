# Proof that the overload gate can fail, run by ctest (label: serve).
#
# tools/check.sh hard-gates bench_serve_load --overload on its p99_us
# against bench/baselines/serve_load.overload.log. A host where the
# regime never sheds never shows that gate tripping, so this test feeds
# tools/bench_diff.py edited copies of the baseline:
#
# 1. The baseline against itself must pass (exit 0).
# 2. A copy with p99_us doubled must fail the hard tail gate (exit 1,
#    with a "TAIL ... p99" line), without --fail-on-latency.
# 3. A copy with n halved must be refused as not comparable (exit 2).
#
# Expects: BENCH_DIFF, BASELINE, PYTHON (may be empty), WORK_DIR.

if(NOT PYTHON)
  message(STATUS "python3 not found; skipping the overload gate test")
  return()
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
file(READ "${BASELINE}" baseline)

function(expect_diff candidate expected_rc expected_output)
  execute_process(
    COMMAND "${PYTHON}" "${BENCH_DIFF}" "${BASELINE}" "${candidate}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL expected_rc)
    message(FATAL_ERROR
      "bench_diff.py on ${candidate}: exit ${rc}, expected ${expected_rc}:\n"
      "${out}${err}")
  endif()
  if(NOT "${out}${err}" MATCHES "${expected_output}")
    message(FATAL_ERROR
      "bench_diff.py on ${candidate}: output lacks \"${expected_output}\":\n"
      "${out}${err}")
  endif()
endfunction()

expect_diff("${BASELINE}" 0 "^OK: ")

# Double p99_us exactly: drop its decimal point, multiply the digits by
# two, and put the point back as many digits from the end.
if(NOT baseline MATCHES "\"p99_us\":([0-9]+)\\.?([0-9]*)")
  message(FATAL_ERROR "${BASELINE}: no p99_us field")
endif()
set(p99 "${CMAKE_MATCH_0}")
set(fraction "${CMAKE_MATCH_2}")
math(EXPR digits "${CMAKE_MATCH_1}${fraction} * 2")
string(LENGTH "${fraction}" places)
if(places GREATER 0)
  string(LENGTH "${digits}" length)
  math(EXPR point "${length} - ${places}")
  string(SUBSTRING "${digits}" 0 ${point} whole)
  string(SUBSTRING "${digits}" ${point} -1 fraction)
  set(digits "${whole}.${fraction}")
endif()
string(REPLACE "${p99}" "\"p99_us\":${digits}" doubled "${baseline}")
file(WRITE "${WORK_DIR}/p99_doubled.log" "${doubled}")
expect_diff("${WORK_DIR}/p99_doubled.log" 1 "TAIL [^\n]* p99 ")

if(NOT baseline MATCHES "\"n\":([0-9]+)")
  message(FATAL_ERROR "${BASELINE}: no n field")
endif()
math(EXPR half "${CMAKE_MATCH_1} / 2")
string(REPLACE "${CMAKE_MATCH_0}" "\"n\":${half}" halved "${baseline}")
file(WRITE "${WORK_DIR}/n_halved.log" "${halved}")
expect_diff("${WORK_DIR}/n_halved.log" 2 "not comparable")
