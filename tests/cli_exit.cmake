# Runs `${MALI} ${ARGS}` (ARGS one space-separated string) and fails unless
# it exits with ${EXPECT_RC} and, when EXPECT_STDERR is set, prints exactly
# that line on stderr.
#   cmake -DMALI=path/to/mali "-DARGS=solve --bogus 7" -DEXPECT_RC=2
#         "-DEXPECT_STDERR=unknown flag --bogus for 'mali solve'"
#         -P cli_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${MALI}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR
    "mali ${ARGS}: exit ${rc}, want ${EXPECT_RC}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED EXPECT_STDERR AND NOT err STREQUAL "${EXPECT_STDERR}\n")
  message(FATAL_ERROR
    "mali ${ARGS}: stderr\n${err}want\n${EXPECT_STDERR}\n")
endif()
