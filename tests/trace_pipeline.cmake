# Tier-1 trace-ingestion pipeline check, run as a CTest test (see src/tools/).
# The trace-backed sibling of threads_roundtrip.cmake.
#
# Converts the checked-in ChampSim fixture to native v2 AND v1 (same basename,
# different directories), then runs the same --trace + --l2-kb-sweep matrix
# three ways — v2 single-threaded, v2 all-threads, and v1 all-threads — and
# requires every CSV to be byte-identical: thread counts and the on-disk trace
# encoding must both be invisible in the results.
#
# Usage: cmake -DPLRUPART_CLI=<plrupart> -DPLRUPART_CONVERT=<plrupart-trace-convert>
#              -DFIXTURE=<champsim_small.champsim> -DWORK_DIR=<scratch>
#              -P trace_pipeline.cmake
if(NOT PLRUPART_CLI OR NOT PLRUPART_CONVERT OR NOT FIXTURE OR NOT WORK_DIR)
  message(FATAL_ERROR "PLRUPART_CLI, PLRUPART_CONVERT, FIXTURE and WORK_DIR must be set")
endif()
file(MAKE_DIRECTORY ${WORK_DIR}/v1 ${WORK_DIR}/v2)

function(run out_var)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${ARGN} failed (rc=${rc}):\n${stderr}")
  endif()
endfunction()

function(require_identical a b what)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "${what}: ${a} differs from ${b}")
  endif()
endfunction()

# 1. Ingest the ChampSim fixture into both native encodings.
run(_ ${PLRUPART_CONVERT} --in ${FIXTURE} --from champsim --to v2
    --out ${WORK_DIR}/v2/fix.trace)
run(_ ${PLRUPART_CONVERT} --in ${FIXTURE} --from champsim --to v1
    --out ${WORK_DIR}/v1/fix.trace)

# 2. The same sweep matrix over the converted trace. The fixture is tiny and
#    loops; determinism is what is under test, not the numbers.
set(MATRIX_FLAGS
  --configs NOPART-L,M-0.75N
  --l2-kb-sweep 128,256
  --instr 20000 --interval 40000 --sampling 8 --seed 7)

run(_ ${PLRUPART_CLI} --trace ${WORK_DIR}/v2/fix.trace ${MATRIX_FLAGS}
    --threads 1 --csv ${WORK_DIR}/full.csv)
run(_ ${PLRUPART_CLI} --trace ${WORK_DIR}/v2/fix.trace ${MATRIX_FLAGS}
    --threads 0 --csv ${WORK_DIR}/threads.csv)
require_identical(${WORK_DIR}/full.csv ${WORK_DIR}/threads.csv
  "trace-backed sweep CSV depends on the thread count")

# 3. Encoding-invariance: the v1 conversion of the same capture (same
#    basename, so workload ids match) must reproduce the v2 CSV exactly.
run(_ ${PLRUPART_CLI} --trace ${WORK_DIR}/v1/fix.trace ${MATRIX_FLAGS}
    --threads 0 --csv ${WORK_DIR}/from_v1.csv)
require_identical(${WORK_DIR}/full.csv ${WORK_DIR}/from_v1.csv
  "v1- and v2-encoded copies of one capture produced different results")

# 4. A bad trace path must fail before any CSV is produced.
execute_process(
  COMMAND ${PLRUPART_CLI} --trace ${WORK_DIR}/does_not_exist.trace ${MATRIX_FLAGS}
          --csv ${WORK_DIR}/never.csv
  RESULT_VARIABLE bad_rc
  OUTPUT_QUIET ERROR_QUIET)
if(bad_rc EQUAL 0)
  message(FATAL_ERROR "--trace accepted a nonexistent trace file")
endif()

message(STATUS "trace pipeline OK: convert -> --trace sweep is byte-stable across "
               "threads and encodings")
