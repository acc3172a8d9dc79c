# Save an endurance map, run an experiment from the saved file, and check
# that --load-map refuses every option its single UAA event run would
# otherwise ignore.
execute_process(
  COMMAND ${TOOL} --save-map ${WORK_DIR}/roundtrip_map.csv
          --lines 1024 --regions 64 --endurance-mean 1000
  RESULT_VARIABLE save_result)
if(NOT save_result EQUAL 0)
  message(FATAL_ERROR "save-map failed: ${save_result}")
endif()
execute_process(
  COMMAND ${TOOL} --load-map ${WORK_DIR}/roundtrip_map.csv --spare maxwe
  RESULT_VARIABLE load_result OUTPUT_VARIABLE out)
if(NOT load_result EQUAL 0)
  message(FATAL_ERROR "load-map run failed: ${load_result}")
endif()
if(NOT out MATCHES "normalized lifetime")
  message(FATAL_ERROR "unexpected output: ${out}")
endif()
foreach(refused
    "--spare;freep" "--spare;bogus" "--mode;stochastic" "--attack;bpa"
    "--seeds;2" "--banks;2")
  execute_process(
    COMMAND ${TOOL} --load-map ${WORK_DIR}/roundtrip_map.csv ${refused}
    RESULT_VARIABLE refused_result ERROR_VARIABLE err OUTPUT_VARIABLE out)
  if(NOT refused_result EQUAL 1 OR NOT err MATCHES "--load-map")
    string(REPLACE ";" " " flags "${refused}")
    message(FATAL_ERROR
            "--load-map with ${flags} was not refused (exit "
            "${refused_result}): ${out}${err}")
  endif()
endforeach()
