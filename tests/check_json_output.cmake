cmake_minimum_required(VERSION 3.19)
# Runs a command that writes a JSON file, then asserts that it exited 0 and
# that the file parses as JSON (string(JSON) needs CMake >= 3.19).
#
#   cmake -DCMD="prog;arg1;arg2" -DOUTPUT=path.json -P check_json_output.cmake
if(NOT DEFINED CMD OR NOT DEFINED OUTPUT)
  message(FATAL_ERROR "check_json_output.cmake needs -DCMD and -DOUTPUT")
endif()
file(REMOVE ${OUTPUT})
execute_process(COMMAND ${CMD} RESULT_VARIABLE actual
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT actual EQUAL 0)
  message(FATAL_ERROR
    "expected exit code 0, got '${actual}'\n"
    "command: ${CMD}\nstdout:\n${out}\nstderr:\n${err}")
endif()
file(READ ${OUTPUT} content)
string(JSON type ERROR_VARIABLE parse_error TYPE "${content}")
if(parse_error)
  message(FATAL_ERROR "${OUTPUT} is not valid JSON: ${parse_error}\n${content}")
endif()
