# Byte-identity gate for the smoke-scale reports.
#
# Runs `vrdrepro run --all --smoke --no-cache` and the smoke-scale
# variants below at --threads 1 and 8, and each example once, then
# compares the SHA-256 of every report and of every example's stdout
# with the digests in GOLDEN. A mismatch names the experiments (or
# examples) that moved and prints the command that rewrites GOLDEN.
#
#   cmake -DVRDREPRO=<build>/bench/vrdrepro -DEXAMPLES_DIR=<build>/examples
#         -DGOLDEN=tests/golden/smoke_reports.txt -DWORK_DIR=<scratch dir>
#         [-DTOOLCHAIN="<compiler> <version> <arch>"]
#         [-DUPDATE=ON] -P tests/golden/smoke_reports.cmake
#
# UPDATE=ON writes GOLDEN from the --threads=1 run instead of
# comparing. The digests depend on the compiler and libm, so the file's
# header records both; a mismatch under another toolchain says so.
#
# Paper-scale CHECK ledger: with -DCHECKS=ON (EXAMPLES_DIR is then not
# needed) the script instead runs `vrdrepro run --all --no-cache` once at
# default scale and compares every report's CHECK lines, in report-name
# order, with GOLDEN (tests/golden/checks_default.txt); UPDATE=ON
# rewrites GOLDEN from the run.

set(required VRDREPRO GOLDEN WORK_DIR)
if(NOT CHECKS)
  list(APPEND required EXAMPLES_DIR)
endif()
foreach(var IN LISTS required)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "smoke_reports.cmake: -D${var}=... is required")
  endif()
endforeach()
set(examples quickstart characterization_campaign mitigation_tuning
    ecc_tradeoff)
# Paths `run --all --smoke` does not take, as "<name>|<run arguments>":
# fig14 under FR-FCFS and fig01's worst-case scan. Each report lands in
# variants/<name>.txt.
set(variants
    "fig14_mitigation_overhead.frfcfs|fig14_mitigation_overhead --frfcfs=true"
    "fig01_rdt_series.scan|fig01_rdt_series --scan=M1,S2")

execute_process(COMMAND getconf GNU_LIBC_VERSION
                OUTPUT_VARIABLE libc OUTPUT_STRIP_TRAILING_WHITESPACE
                ERROR_QUIET)
set(toolchain "${TOOLCHAIN}, ${libc}")

# Appends "<sha256>  <dir>/<file>" for every file of WORK_DIR/<dir>
# to the list `out_var`, in file-name order.
function(append_digests dir out_var)
  file(GLOB files RELATIVE "${WORK_DIR}/${dir}" "${WORK_DIR}/${dir}/*.txt")
  list(SORT files)
  set(lines ${${out_var}})
  foreach(name IN LISTS files)
    file(SHA256 "${WORK_DIR}/${dir}/${name}" digest)
    list(APPEND lines "${digest}  ${dir}/${name}")
  endforeach()
  set(${out_var} ${lines} PARENT_SCOPE)
endfunction()

if(CHECKS)
  file(REMOVE_RECURSE "${WORK_DIR}")
  execute_process(COMMAND "${VRDREPRO}" run --all --no-cache --threads=0
                          "--out_dir=${WORK_DIR}/reports"
                  OUTPUT_QUIET ERROR_VARIABLE stderr RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "vrdrepro run --all exited ${status}:\n${stderr}")
  endif()
  file(GLOB reports RELATIVE "${WORK_DIR}/reports" "${WORK_DIR}/reports/*.txt")
  list(SORT reports)
  set(ledger "")
  foreach(name IN LISTS reports)
    file(STRINGS "${WORK_DIR}/reports/${name}" lines REGEX "^CHECK ")
    foreach(line IN LISTS lines)
      string(APPEND ledger "${line}\n")
    endforeach()
  endforeach()
  set(got "${WORK_DIR}/checks_default.txt")
  file(WRITE "${got}" "${ledger}")
  if(UPDATE)
    file(WRITE "${GOLDEN}"
         "# Every CHECK line of `vrdrepro run --all --no-cache` at default\n"
         "# (paper) scale, in report-name order. Regenerate only for a\n"
         "# documented correction.\n"
         "# toolchain: ${toolchain}\n"
         "${ledger}")
    message(STATUS "wrote ${GOLDEN}")
    return()
  endif()
  file(STRINGS "${GOLDEN}" want REGEX "^CHECK ")
  file(STRINGS "${got}" have REGEX "^CHECK ")
  list(LENGTH have have_count)
  list(JOIN want "\n" want_text)
  list(JOIN have "\n" have_text)
  if(NOT want_text STREQUAL have_text)
    list(LENGTH want want_count)
    set(moved)
    foreach(line IN LISTS have)
      list(FIND want "${line}" at)
      if(at EQUAL -1)
        list(APPEND moved "${line}")
      endif()
    endforeach()
    list(JOIN moved "\n  " moved_text)
    file(STRINGS "${GOLDEN}" golden_toolchain REGEX "^# toolchain: ")
    message(FATAL_ERROR
            "paper-scale CHECK lines differ from ${GOLDEN} "
            "(${have_count} lines, ${want_count} expected); this run's lines "
            "missing from it (if none, their order differs):\n"
            "  ${moved_text}\n"
            "this build: # toolchain: ${toolchain}\n"
            "golden:     ${golden_toolchain}\n"
            "This run's ledger is ${got}. If the change is a documented "
            "correction, regenerate the file with:\n"
            "  cmake -DCHECKS=ON -DVRDREPRO=${VRDREPRO} -DGOLDEN=${GOLDEN} "
            "-DWORK_DIR=${WORK_DIR} \"-DTOOLCHAIN=${TOOLCHAIN}\" -DUPDATE=ON "
            "-P ${CMAKE_CURRENT_LIST_FILE}")
  endif()
  message(STATUS "all ${have_count} paper-scale CHECK lines match")
  return()
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/examples")
set(example_lines)
foreach(example IN LISTS examples)
  execute_process(COMMAND "${EXAMPLES_DIR}/${example}"
                  OUTPUT_FILE "${WORK_DIR}/examples/${example}.txt"
                  ERROR_VARIABLE stderr RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "example ${example} exited ${status}:\n${stderr}")
  endif()
endforeach()
append_digests(examples example_lines)

set(regenerate "cmake -DVRDREPRO=${VRDREPRO} -DEXAMPLES_DIR=${EXAMPLES_DIR} \
-DGOLDEN=${GOLDEN} -DWORK_DIR=${WORK_DIR} \"-DTOOLCHAIN=${TOOLCHAIN}\" \
-DUPDATE=ON -P ${CMAKE_CURRENT_LIST_FILE}")

# Fails naming every entry whose digest in `lines` differs from GOLDEN,
# is missing from it, or is new to it.
function(compare_digests threads lines)
  file(STRINGS "${GOLDEN}" golden_lines REGEX "^[0-9a-f]+  ")
  file(STRINGS "${GOLDEN}" golden_toolchain REGEX "^# toolchain: ")
  set(entries)
  foreach(line IN LISTS golden_lines)
    string(REGEX MATCH "^([0-9a-f]+)  (.*)$" unused "${line}")
    set("want_${CMAKE_MATCH_2}" "${CMAKE_MATCH_1}")
    list(APPEND entries "${CMAKE_MATCH_2}")
  endforeach()
  foreach(line IN LISTS lines)
    string(REGEX MATCH "^([0-9a-f]+)  (.*)$" unused "${line}")
    set("got_${CMAKE_MATCH_2}" "${CMAKE_MATCH_1}")
    list(APPEND entries "${CMAKE_MATCH_2}")
  endforeach()
  list(REMOVE_DUPLICATES entries)
  list(SORT entries)
  set(moved)
  foreach(entry IN LISTS entries)
    if(NOT DEFINED "want_${entry}")
      list(APPEND moved "${entry} (new)")
    elseif(NOT DEFINED "got_${entry}")
      list(APPEND moved "${entry} (missing)")
    elseif(NOT "${want_${entry}}" STREQUAL "${got_${entry}}")
      list(APPEND moved "${entry}")
    endif()
  endforeach()
  if(moved)
    list(JOIN moved "\n  " moved_text)
    message(FATAL_ERROR
            "smoke digests differ from ${GOLDEN} at --threads=${threads}:\n"
            "  ${moved_text}\n"
            "this build: # toolchain: ${toolchain}\n"
            "golden:     ${golden_toolchain}\n"
            "The reports are in ${WORK_DIR}. If the change is a documented "
            "correction, regenerate the digests with:\n  ${regenerate}")
  endif()
  list(LENGTH lines count)
  message(STATUS "--threads=${threads}: all ${count} digests match")
endfunction()

foreach(threads 1 8)
  file(REMOVE_RECURSE "${WORK_DIR}/reports")
  execute_process(COMMAND "${VRDREPRO}" run --all --smoke --no-cache
                          --threads=${threads} "--out_dir=${WORK_DIR}/reports"
                  OUTPUT_QUIET ERROR_VARIABLE stderr RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "vrdrepro run --all --smoke --threads=${threads} exited "
            "${status}:\n${stderr}")
  endif()
  file(REMOVE_RECURSE "${WORK_DIR}/variants")
  file(MAKE_DIRECTORY "${WORK_DIR}/variants")
  foreach(variant IN LISTS variants)
    string(REGEX MATCH "^([^|]+)\\|(.*)$" unused "${variant}")
    set(name "${CMAKE_MATCH_1}")
    set(run_args "${CMAKE_MATCH_2}")
    separate_arguments(args UNIX_COMMAND "${run_args}")
    execute_process(COMMAND "${VRDREPRO}" run ${args} --smoke --no-cache
                            --threads=${threads}
                    OUTPUT_FILE "${WORK_DIR}/variants/${name}.txt"
                    ERROR_VARIABLE stderr RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR
              "vrdrepro run ${run_args} --smoke --threads=${threads} "
              "exited ${status}:\n${stderr}")
    endif()
  endforeach()
  set(lines)
  append_digests(reports lines)
  append_digests(variants lines)
  list(APPEND lines ${example_lines})

  if(UPDATE)
    list(JOIN lines "\n" body)
    file(WRITE "${GOLDEN}"
         "# SHA-256 of every `vrdrepro run --all --smoke --no-cache` report\n"
         "# (reports/<experiment>.txt), of the smoke-scale variants that\n"
         "# smoke_reports.cmake lists (variants/<name>.txt) and of each\n"
         "# example's stdout (examples/<example>.txt). Checked at --threads\n"
         "# 1 and 8; regenerate only for a documented correction.\n"
         "# toolchain: ${toolchain}\n"
         "${body}\n")
    message(STATUS "wrote ${GOLDEN} from --threads=${threads}")
    return()
  endif()

  compare_digests(${threads} "${lines}")
endforeach()
