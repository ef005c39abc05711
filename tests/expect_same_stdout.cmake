# Runs EXE once with ARGS_A and once with ARGS_B (each a ;-separated list)
# and passes only when both exit 0 and print byte-identical stdout.
#
#   cmake -DEXE=<binary> "-DARGS_A=--op=rap;--distance=1" \
#         "-DARGS_B=--op=rap;--distance=4" -P expect_same_stdout.cmake
execute_process(COMMAND ${EXE} ${ARGS_A} RESULT_VARIABLE rc_a OUTPUT_VARIABLE out_a)
execute_process(COMMAND ${EXE} ${ARGS_B} RESULT_VARIABLE rc_b OUTPUT_VARIABLE out_b)
if(NOT rc_a STREQUAL "0" OR NOT rc_b STREQUAL "0")
  message(FATAL_ERROR "${EXE}: exit '${rc_a}' for ${ARGS_A}, '${rc_b}' for ${ARGS_B}, want 0")
endif()
if(NOT out_a STREQUAL out_b)
  message(FATAL_ERROR "${EXE}: stdout differs\n${ARGS_A}:\n${out_a}\n${ARGS_B}:\n${out_b}")
endif()
