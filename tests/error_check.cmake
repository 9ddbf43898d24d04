# CTest script: run a tool that must fail, and require its exit status and
# its whole stderr to equal the expected ones.
#
# Usage (see src/tools/CMakeLists.txt):
#   cmake -DTOOL=<binary> -DARGS=<;-list> -DEXPECTED_RC=<n> -DEXPECTED_STDERR=<text>
#         -P error_check.cmake
cmake_minimum_required(VERSION 3.20)

foreach(var TOOL EXPECTED_RC EXPECTED_STDERR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "error_check.cmake: missing -D${var}=")
  endif()
endforeach()

execute_process(COMMAND "${TOOL}" ${ARGS}
                OUTPUT_QUIET
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL EXPECTED_RC)
  message(FATAL_ERROR "'${TOOL} ${ARGS}' exited with ${rc}, want ${EXPECTED_RC}")
endif()
if(NOT err STREQUAL "${EXPECTED_STDERR}\n")
  message(FATAL_ERROR "'${TOOL} ${ARGS}' stderr differs:\n"
                      "--- got ---\n${err}--- want ---\n${EXPECTED_STDERR}\n")
endif()
message(STATUS "'${TOOL} ${ARGS}' failed as expected (ok)")
