# Runs the dtpsim binary once and checks its exit status and output:
#
#   cmake -DBIN=<dtpsim> "-DARGS=--flag=a --flag=b" -DEXPECT_EXIT=<n>
#         "-DEXPECT_OUTPUT=<regex>" -P expect_cli.cmake
#
# EXPECT_OUTPUT is matched against stdout and stderr together; leave it
# empty to check the exit status alone.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "dtpsim ${ARGS}: exit ${rc}, expected ${EXPECT_EXIT}\n${out}${err}")
endif()
if(NOT EXPECT_OUTPUT STREQUAL "" AND NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "dtpsim ${ARGS}: output does not match '${EXPECT_OUTPUT}'\n${out}${err}")
endif()
