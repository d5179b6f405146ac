cmake_minimum_required(VERSION 3.19)
# The reproduce contract of mrsc_verify: a failing case prints
# `reproduce: mrsc_verify --kinds K --start-seed S --seeds 1`, and those
# flags must regenerate the same case. Sweeps 6 seeds (every kind once, raw
# twice), then reruns each case alone through its reproduce flags and
# requires the same verbose line and the same --json failure entry (none
# for a clean case).
#
#   cmake -DVERIFY=mrsc_verify -DWORK_DIR=dir -P check_verify_reproduce.cmake
if(NOT DEFINED VERIFY OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "check_verify_reproduce.cmake needs -DVERIFY and -DWORK_DIR")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})

# Runs mrsc_verify with ARGN plus --verbose --json JSON_PATH; a sweep with
# violations exits 1, which is still a report.
function(verify json_path)
  execute_process(COMMAND ${VERIFY} ${ARGN} --verbose --json ${json_path}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0 AND NOT code EQUAL 1)
    message(FATAL_ERROR "'${VERIFY} ${ARGN}' exited ${code}\n${out}\n${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

# The --json failure entry of `seed` in report `json_path`, or "" when the
# case passed.
function(failure_entry json_path seed)
  file(READ ${json_path} report)
  string(JSON count LENGTH "${report}" failures)
  set(entry "")
  if(count GREATER 0)
    math(EXPR last "${count} - 1")
    foreach(i RANGE ${last})
      string(JSON entry_seed GET "${report}" failures ${i} seed)
      if(entry_seed EQUAL seed)
        string(JSON entry GET "${report}" failures ${i})
      endif()
    endforeach()
  endif()
  set(entry "${entry}" PARENT_SCOPE)
endfunction()

verify(${WORK_DIR}/sweep.json --seeds 6)
string(REGEX MATCHALL "seed [0-9]+ \\[[a-z]+\\][^\n]*" cases "${out}")
list(LENGTH cases case_count)
if(NOT case_count EQUAL 6)
  message(FATAL_ERROR "expected 6 case lines, got ${case_count}:\n${out}")
endif()

foreach(line IN LISTS cases)
  string(REGEX MATCH "^seed ([0-9]+) \\[([a-z]+)\\]" _ "${line}")
  set(seed ${CMAKE_MATCH_1})
  set(kind ${CMAKE_MATCH_2})
  verify(${WORK_DIR}/case.json --kinds ${kind} --start-seed ${seed} --seeds 1)
  string(REGEX MATCH "seed [0-9]+ \\[[a-z]+\\][^\n]*" rerun "${out}")
  if(NOT rerun STREQUAL line)
    message(FATAL_ERROR
      "--kinds ${kind} --start-seed ${seed} --seeds 1 reads '${rerun}', "
      "the sweep read '${line}'")
  endif()
  failure_entry(${WORK_DIR}/sweep.json ${seed})
  set(swept "${entry}")
  failure_entry(${WORK_DIR}/case.json ${seed})
  if(NOT entry STREQUAL swept)
    message(FATAL_ERROR
      "seed ${seed} [${kind}]: rerun failure entry '${entry}', "
      "sweep entry '${swept}'")
  endif()
endforeach()
message(STATUS "6 cases reproduce through --kinds/--start-seed/--seeds 1")
