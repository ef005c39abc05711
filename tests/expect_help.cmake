# Runs EXE [SUB] --help and passes only when it exits 0 and prints at least
# one "[--flag" entry of the usage text Flags generates from the binary's
# flag reads, and no match of ABSENT (a regex, e.g. a flag the binary does
# not read) when one is given.
#
#   cmake -DEXE=<binary> [-DSUB=<subcommand>] [-DABSENT=<regex>] -P expect_help.cmake
execute_process(COMMAND ${EXE} ${SUB} --help RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${EXE} ${SUB} --help: exit '${rc}', want 0\n${err}")
endif()
if(NOT out MATCHES "\\[--")
  message(FATAL_ERROR "${EXE} ${SUB} --help: no [--flag] entry on stdout\n${out}")
endif()
if(DEFINED ABSENT AND NOT ABSENT STREQUAL "" AND out MATCHES "${ABSENT}")
  message(FATAL_ERROR "${EXE} ${SUB} --help: prints '${CMAKE_MATCH_0}', want no match of "
                      "'${ABSENT}'\n${out}")
endif()
