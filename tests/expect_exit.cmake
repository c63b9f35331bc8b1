# Runs a binary and checks its exit status and stderr: a configuration the
# model rejects must exit with a usage status and say why, not crash.
#
# Usage: cmake -DBIN=<binary> -DARGS=<args;list> -DCODE=<expected status>
#              -DSTDERR_REGEX=<regex> -P expect_exit.cmake
if(NOT BIN OR NOT DEFINED CODE OR NOT STDERR_REGEX)
  message(FATAL_ERROR "pass -DBIN, -DCODE and -DSTDERR_REGEX")
endif()
execute_process(COMMAND "${BIN}" ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL CODE)
  message(FATAL_ERROR "expected exit status ${CODE}, got ${rc}\n${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
