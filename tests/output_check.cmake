# CTest script: run a tool and require its stdout to equal a checked-in file,
# byte for byte.
#
# Usage (see src/tools/CMakeLists.txt):
#   cmake -DTOOL=<binary> -DARGS=<;-list> -DEXPECTED=<file> -P output_check.cmake
cmake_minimum_required(VERSION 3.20)

foreach(var TOOL EXPECTED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "output_check.cmake: missing -D${var}=")
  endif()
endforeach()

execute_process(COMMAND "${TOOL}" ${ARGS}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "'${TOOL} ${ARGS}' exited with ${rc}")
endif()

file(READ "${EXPECTED}" expected)
if(NOT out STREQUAL expected)
  message(FATAL_ERROR "'${TOOL} ${ARGS}' output differs from ${EXPECTED}:\n"
                      "--- got ---\n${out}--- want ---\n${expected}")
endif()
message(STATUS "'${TOOL} ${ARGS}' output == ${EXPECTED} (ok)")
