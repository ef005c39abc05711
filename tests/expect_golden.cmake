# Runs EXE with ARGS (a ;-separated list) and passes only when it exits RC
# (default 0), when ROW is given a line of its stdout starts with ROW (a
# regex), when ERR is given its stderr matches ERR (a regex) and its stdout
# is empty, and when OUT is given the file it wrote to OUT is byte-identical
# to GOLDEN.
#
#   cmake -DEXE=<binary> "-DARGS=--store=cceh;--stats_json=/tmp/cceh.json" \
#         -DOUT=/tmp/cceh.json -DGOLDEN=bench/expectations/crashcheck/cceh.json \
#         [-DRC=1] -P expect_golden.cmake
#   cmake -DEXE=<binary> "-DARGS=--ops=10" "-DROW=rand_store,G1-Optane,3,10," \
#         -P expect_golden.cmake
if(NOT DEFINED RC)
  set(RC 0)
endif()
if(DEFINED OUT)
  get_filename_component(out_dir ${OUT} DIRECTORY)
  file(MAKE_DIRECTORY ${out_dir})
  file(REMOVE ${OUT})
endif()
execute_process(COMMAND ${EXE} ${ARGS} RESULT_VARIABLE rc OUTPUT_VARIABLE printed
                ERROR_VARIABLE err)
if(NOT rc STREQUAL RC)
  message(FATAL_ERROR "${EXE} ${ARGS}: exit '${rc}', want ${RC}\n${err}")
endif()
if(DEFINED ROW AND NOT printed MATCHES "(^|\n)${ROW}")
  message(FATAL_ERROR "${EXE} ${ARGS}: no stdout line starts with '${ROW}'\n${printed}")
endif()
if(DEFINED ERR AND NOT err MATCHES "${ERR}")
  message(FATAL_ERROR "${EXE} ${ARGS}: stderr does not match '${ERR}'\n${err}")
endif()
if(DEFINED ERR AND NOT printed STREQUAL "")
  message(FATAL_ERROR "${EXE} ${ARGS}: printed on stdout while refusing\n${printed}")
endif()
if(NOT DEFINED OUT)
  return()
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN} RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "${EXE} ${ARGS}: ${OUT} differs from ${GOLDEN}")
endif()
