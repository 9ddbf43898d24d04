# Tier-1 thread-count invariance check for catalog workloads, run as a CTest
# test (see src/tools/).
#
# Runs a tiny configs × workloads × L2-size sweep twice — single-threaded and
# on every hardware thread — and requires the two CSVs to be byte-identical.
#
# Usage: cmake -DPLRUPART_CLI=<binary> -DWORK_DIR=<scratch dir> -P threads_roundtrip.cmake
if(NOT PLRUPART_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "PLRUPART_CLI and WORK_DIR must be set")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})

set(MATRIX_FLAGS
  --workload 2T_01,2T_02,2T_03
  --configs NOPART-L,M-0.75N
  --l2-kb-sweep 128,256
  --instr 20000 --interval 40000 --sampling 8 --seed 7)

function(run_cli out_var)
  execute_process(
    COMMAND ${PLRUPART_CLI} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "plrupart ${ARGN} failed (rc=${rc}):\n${stderr}")
  endif()
endfunction()

run_cli(_ ${MATRIX_FLAGS} --threads 1 --csv ${WORK_DIR}/serial.csv)
run_cli(_ ${MATRIX_FLAGS} --threads 0 --csv ${WORK_DIR}/threads.csv)

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK_DIR}/serial.csv ${WORK_DIR}/threads.csv
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
    "sweep CSV depends on the thread count "
    "(${WORK_DIR}/serial.csv vs ${WORK_DIR}/threads.csv)")
endif()
message(STATUS "threads round-trip OK: --threads 0 CSV is byte-identical to --threads 1")
