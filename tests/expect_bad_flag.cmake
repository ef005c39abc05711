# Runs EXE with the single argument ARG and passes only when it exits 2
# naming --FLAG in its "invalid value" error (Flags::BadValue) or its
# "unrecognized flag" error (Flags::RejectUnknown) before printing anything
# to stdout. A crash, a clean run, a message naming another flag or output
# ahead of the error all fail.
#
#   cmake -DEXE=<binary> -DARG=--threads=0 -DFLAG=threads -P expect_bad_flag.cmake
execute_process(COMMAND ${EXE} ${ARG} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${EXE} ${ARG}: exit '${rc}', want 2\n${err}")
endif()
if(NOT err MATCHES "invalid value for --${FLAG}:" AND
   NOT err MATCHES "unrecognized flag '--${FLAG}'")
  message(FATAL_ERROR "${EXE} ${ARG}: stderr does not name --${FLAG}\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${EXE} ${ARG}: printed before rejecting --${FLAG}\n${out}")
endif()
