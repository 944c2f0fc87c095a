# EXPERIMENTS.md's "Current CHECK snapshot" must not drift from the
# paper-scale CHECK ledger: every line of the fenced block under that
# heading must appear verbatim as a line of GOLDEN
# (tests/golden/checks_default.txt). Compares the two files only; runs
# no experiment.
#
#   cmake -DEXPERIMENTS=EXPERIMENTS.md
#         -DGOLDEN=tests/golden/checks_default.txt
#         -P tests/golden/check_snapshot.cmake

foreach(var IN ITEMS EXPERIMENTS GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_snapshot.cmake: -D${var}=... is required")
  endif()
endforeach()

set(heading "## Current CHECK snapshot")
file(READ "${EXPERIMENTS}" doc)
file(READ "${GOLDEN}" golden)
# CMake lists split on ';' and treat '[' ']' and '\' specially, and
# CHECK lines may hold any of them: mask them in both files alike.
foreach(var IN ITEMS doc golden)
  string(REPLACE "\\" "<bs>" ${var} "${${var}}")
  string(REPLACE ";" "<sc>" ${var} "${${var}}")
  string(REPLACE "[" "<lb>" ${var} "${${var}}")
  string(REPLACE "]" "<rb>" ${var} "${${var}}")
endforeach()
string(REPLACE "\n" ";" doc_lines "${doc}")
set(golden "\n${golden}\n")

# state: 0 before the heading, 1 before the opening fence, 2 inside
# the block, 3 past the closing fence.
set(state 0)
set(lineno 0)
set(checked 0)
set(missing "")
foreach(line IN LISTS doc_lines)
  math(EXPR lineno "${lineno} + 1")
  if(state EQUAL 0)
    if(line STREQUAL heading)
      set(state 1)
    endif()
  elseif(state EQUAL 1)
    if(line MATCHES "^```")
      set(state 2)
    elseif(line MATCHES "^#")
      break()
    endif()
  elseif(line MATCHES "^```")
    set(state 3)
    break()
  else()
    math(EXPR checked "${checked} + 1")
    string(FIND "${golden}" "\n${line}\n" at)
    if(at EQUAL -1)
      string(REPLACE "<bs>" "\\" line "${line}")
      string(REPLACE "<sc>" ";" line "${line}")
      string(REPLACE "<lb>" "[" line "${line}")
      string(REPLACE "<rb>" "]" line "${line}")
      string(APPEND missing "\n  ${EXPERIMENTS}:${lineno}: ${line}")
    endif()
  endif()
endforeach()

if(NOT state EQUAL 3)
  message(FATAL_ERROR "check_snapshot.cmake: no fenced block under "
                      "'${heading}' in ${EXPERIMENTS}")
endif()
if(checked EQUAL 0)
  message(FATAL_ERROR "check_snapshot.cmake: the block under "
                      "'${heading}' in ${EXPERIMENTS} is empty")
endif()
if(missing)
  message(FATAL_ERROR "check_snapshot.cmake: these snapshot lines are "
                      "not in ${GOLDEN}:${missing}")
endif()
message(STATUS "check_snapshot.cmake: all ${checked} snapshot lines "
               "are in the ledger")
