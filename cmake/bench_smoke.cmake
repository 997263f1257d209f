# Bench-smoke gate (ctests perf_smoke, serving_smoke, cluster_smoke,
# stream_smoke): runs one bench harness in quick mode, checks the
# performance record it writes, and exercises the `s2fa perf-diff`
# regression gate against the harness's checked-in golden records:
#
#   1. the harness exits 0 (every exit-code gate passes) and its record
#      counts no failed check, stamped with S2FA_GIT_REV;
#   2. every required entry is present, positive, and of the required kind;
#   3. golden vs fresh passes perf-diff: modeled and exact entries must be
#      equal, and the huge threshold keeps host timing out of the gate;
#   4. identical records exit 0, and the synthetic regressed record (one
#      entry doubled) exits 1.
#
# Inputs (all -D): NAME BENCH_BIN QUICK RECORD REQUIRED CLI_BIN GOLDEN
# REGRESSED WORK_DIR. QUICK is the harness's quick-mode switch: an argument
# when it starts with "--", else an environment assignment (empty: none).
# REQUIRED is a comma-separated list of entry:kind.
cmake_minimum_required(VERSION 3.20)

foreach(var NAME BENCH_BIN QUICK RECORD REQUIRED CLI_BIN GOLDEN REGRESSED
            WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_smoke: missing -D${var}=...")
  endif()
endforeach()

set(out_dir "${WORK_DIR}/out")
set(record_file "${out_dir}/${RECORD}.record.json")
file(REMOVE_RECURSE "${out_dir}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(env "S2FA_BENCH_OUT=${out_dir}" "S2FA_GIT_REV=${NAME}")
set(args "")
if(QUICK MATCHES "^--")
  set(args "${QUICK}")
elseif(QUICK)
  list(APPEND env "${QUICK}")
endif()

# --- 1. The harness's own gates, and its record's checks.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env ${env} "${BENCH_BIN}" ${args}
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE bench_rc
  OUTPUT_VARIABLE bench_out ERROR_VARIABLE bench_out)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "${NAME}: ${BENCH_BIN} failed (${bench_rc}):\n"
          "${bench_out}")
endif()
if(NOT EXISTS "${record_file}")
  message(FATAL_ERROR "${NAME}: no record written to ${record_file}")
endif()
file(READ "${record_file}" content)
string(JSON failed GET "${content}" failed)
string(JSON source GET "${content}" host source)
if(NOT failed EQUAL 0 OR NOT source STREQUAL NAME)
  message(FATAL_ERROR
          "${NAME}: record has ${failed} failed checks, source '${source}'")
endif()

# --- 2. Coverage: each required entry, with its kind.
string(REPLACE "," ";" required "${REQUIRED}")
foreach(entry IN LISTS required)
  string(REPLACE ":" ";" pair "${entry}")
  list(GET pair 0 metric)
  list(GET pair 1 want)
  string(JSON kind ERROR_VARIABLE json_err
         GET "${content}" metrics ${metric} kind)
  if(json_err OR NOT kind STREQUAL want)
    message(FATAL_ERROR "${NAME}: ${metric} must be a ${want} entry, got "
            "'${kind}'")
  endif()
  string(JSON value GET "${content}" metrics ${metric} value)
  if(NOT value GREATER 0)
    message(FATAL_ERROR "${NAME}: ${metric} value '${value}' is not > 0")
  endif()
endforeach()

# --- 3-4. perf-diff on golden vs fresh, identical, and regressed records.
function(expect_diff want old new)
  execute_process(
    COMMAND "${CLI_BIN}" perf-diff "${old}" "${new}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc EQUAL want)
    list(JOIN ARGN " " flags)
    message(FATAL_ERROR "${NAME}: perf-diff ${old} ${new} ${flags} exited "
            "${rc}, wanted ${want}:\n${out}")
  endif()
endfunction()
expect_diff(0 "${GOLDEN}" "${record_file}" --threshold 1000000)
expect_diff(0 "${GOLDEN}" "${GOLDEN}")
expect_diff(1 "${GOLDEN}" "${REGRESSED}")

message(STATUS "${NAME}: gates pass, record valid, diff catches regressions")
