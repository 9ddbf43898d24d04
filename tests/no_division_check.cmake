# CTest script: disassemble the object built from src/cache/cache.cpp and fail
# on any integer division instruction in it. The L2 access path decomposes
# addresses with precomputed shifts and masks; a `%` or `/` by a runtime set
# count there costs tens of cycles per access, and a throughput gate run on a
# shared host is too noisy to see one.
#
# Usage (see tests/CMakeLists.txt):
#   cmake -DOBJDUMP=<objdump> -DOBJECTS=<;-list of the library's objects>
#         -P no_division_check.cmake
cmake_minimum_required(VERSION 3.20)

foreach(var OBJDUMP OBJECTS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "no_division_check.cmake: missing -D${var}=")
  endif()
endforeach()

set(objects ${OBJECTS})
list(FILTER objects INCLUDE REGEX "/cache/cache\\.cpp\\.o(bj)?$")
list(LENGTH objects n)
if(NOT n EQUAL 1)
  message(FATAL_ERROR "want one cache/cache.cpp object, found ${n} in: ${OBJECTS}")
endif()

execute_process(COMMAND "${OBJDUMP}" -d -C --no-show-raw-insn "${objects}"
                OUTPUT_VARIABLE asm
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "'${OBJDUMP} -d ${objects}' exited with ${rc}: ${err}")
endif()
# Not vacuous: the object holds machine code for the access entry (an LTO
# build's object may hold only intermediate code).
if(NOT asm MATCHES "SetAssocCache::access")
  message(FATAL_ERROR "no code for SetAssocCache::access in ${objects}")
endif()

# An instruction line is `<address>: <mnemonic> <operands>`. x86 spells the
# integer divides div/idiv (with an optional b/w/l/q size suffix), AArch64
# udiv/sdiv.
string(REGEX MATCHALL "\n *[0-9a-f]+:[\t ]+(i|u|s)?div[bwlq]?[\t ][^\n]*" divs "${asm}")
list(LENGTH divs n)
if(n GREATER 0)
  string(REPLACE ";" "" lines "${divs}")
  message(FATAL_ERROR "${n} integer division(s) in ${objects}:${lines}")
endif()
message(STATUS "no integer division in ${objects} (ok)")
