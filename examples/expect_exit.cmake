# Runs a command and passes only when it exits with EXPECT_EXIT and its
# stderr matches the regex EXPECT_STDERR; a crash, a signal or a clean run
# fails. Usage:
#   cmake -DEXPECT_EXIT=2 -DEXPECT_STDERR=regex -P expect_exit.cmake -- cmd args...
set(cmd)
set(after_sep FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_sep)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_sep TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got '${rc}'\n${err}")
endif()
if(NOT "${err}" MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
