# Asserts that a command exits with an exact code (CTest's WILL_FAIL only
# distinguishes zero from nonzero, which cannot tell "job failed" (1) from
# "bad usage" (2)). An optional MATCH regex must also match stdout.
#
#   cmake -DCMD="prog;arg1;arg2" -DEXPECTED=2 [-DMATCH=regex]
#         -P check_exit_code.cmake
if(NOT DEFINED CMD OR NOT DEFINED EXPECTED)
  message(FATAL_ERROR "check_exit_code.cmake needs -DCMD and -DEXPECTED")
endif()
execute_process(COMMAND ${CMD} RESULT_VARIABLE actual
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT actual EQUAL EXPECTED)
  message(FATAL_ERROR
    "expected exit code ${EXPECTED}, got '${actual}'\n"
    "command: ${CMD}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED MATCH AND NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR
    "stdout does not match '${MATCH}'\n"
    "command: ${CMD}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED ERROR_MATCH AND NOT err MATCHES "${ERROR_MATCH}")
  message(FATAL_ERROR
    "stderr does not match '${ERROR_MATCH}'\n"
    "command: ${CMD}\nstdout:\n${out}\nstderr:\n${err}")
endif()
