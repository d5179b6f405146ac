# Linting a network file at --opt 1 must lint the network that
# `mrsc_compile FILE --opt 1 --out` writes for it: both runs end in the same
# summary line. The file is the -O0 counter.
#
#   cmake -DCOMPILE=mrsc_compile -DLINT=mrsc_lint -DWORK_DIR=dir
#         -P check_lint_file_opt.cmake
if(NOT DEFINED COMPILE OR NOT DEFINED LINT OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
    "check_lint_file_opt.cmake needs -DCOMPILE, -DLINT and -DWORK_DIR")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})
set(o0 ${WORK_DIR}/counter_O0.crn)
set(o1 ${WORK_DIR}/counter_O1.crn)

function(run)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "'${ARGN}' exited ${code}\n${out}\n${err}")
  endif()
  # The lint summary is the last line of the listing.
  string(REGEX MATCH "[^\n]*check\\(s\\) run[^\n]*" summary "${out}")
  set(summary "${summary}" PARENT_SCOPE)
endfunction()

run(${COMPILE} --design counter --opt 0 --out ${o0})
run(${COMPILE} ${o0} --opt 1 --out ${o1})
run(${LINT} ${o0} --opt 1)
set(at_opt "${summary}")
run(${LINT} ${o1})
set(optimized "${summary}")
if(at_opt STREQUAL "" OR NOT at_opt STREQUAL optimized)
  message(FATAL_ERROR
    "mrsc_lint FILE --opt 1 reads '${at_opt}', the -O1 file '${optimized}'")
endif()
