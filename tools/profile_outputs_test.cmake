# Profiler acceptance check, two halves:
#
#  1. Byte-identity gate: attaching --profile-out must not change any
#     deterministic output by a single byte — the event log and checkpoint
#     of a stochastic run, and the fleet-result JSON of a --jobs 2
#     campaign, are compared with and without the profiler attached.
#  2. Schema/coverage: the profile JSONs parse (schema v1, expected keys)
#     and maxwe_profile renders them with an attributed-fraction line.

# --- stochastic run without profiler ---------------------------------------
execute_process(
  COMMAND ${TOOL} --mode stochastic --lines 512 --regions 32
          --endurance-mean 1000 --attack zipf --wl tlsr --spare maxwe
          --buffer-lines 8 --max-writes 2000000 --detect
          --events-out ${WORK_DIR}/prof_base.events.jsonl
          --checkpoint-out ${WORK_DIR}/prof_base.ckpt
          --checkpoint-interval 8192
  RESULT_VARIABLE run_result)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "baseline stochastic run failed: ${run_result}")
endif()

# --- same run with the profiler attached -----------------------------------
execute_process(
  COMMAND ${TOOL} --mode stochastic --lines 512 --regions 32
          --endurance-mean 1000 --attack zipf --wl tlsr --spare maxwe
          --buffer-lines 8 --max-writes 2000000 --detect
          --events-out ${WORK_DIR}/prof_on.events.jsonl
          --checkpoint-out ${WORK_DIR}/prof_on.ckpt
          --checkpoint-interval 8192
          --profile-out ${WORK_DIR}/prof_run.profile.json
  RESULT_VARIABLE run_result)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "profiled stochastic run failed: ${run_result}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/prof_base.events.jsonl ${WORK_DIR}/prof_on.events.jsonl
  RESULT_VARIABLE cmp_result)
if(NOT cmp_result EQUAL 0)
  message(FATAL_ERROR "event log changed when the profiler was attached")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/prof_base.ckpt ${WORK_DIR}/prof_on.ckpt
  RESULT_VARIABLE cmp_result)
if(NOT cmp_result EQUAL 0)
  message(FATAL_ERROR "checkpoint changed when the profiler was attached")
endif()

# --- fleet campaign with and without the profiler, --jobs 2 ----------------
execute_process(
  COMMAND ${FLEET} --devices 48 --shard-size 8 --jobs 2 --lines 256
          --regions 16 --endurance-mean 200 --spare maxwe
          --out ${WORK_DIR}/prof_fleet_base.json
  RESULT_VARIABLE run_result)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "baseline fleet run failed: ${run_result}")
endif()
execute_process(
  COMMAND ${FLEET} --devices 48 --shard-size 8 --jobs 2 --lines 256
          --regions 16 --endurance-mean 200 --spare maxwe
          --out ${WORK_DIR}/prof_fleet_on.json
          --profile-out ${WORK_DIR}/prof_fleet.profile.json
          --heartbeat-out ${WORK_DIR}/prof_fleet.heartbeat.jsonl
          --heartbeat-interval 8
  RESULT_VARIABLE run_result)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "profiled fleet run failed: ${run_result}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/prof_fleet_base.json ${WORK_DIR}/prof_fleet_on.json
  RESULT_VARIABLE cmp_result)
if(NOT cmp_result EQUAL 0)
  message(FATAL_ERROR "fleet result changed when the profiler was attached")
endif()

# --- profile schema --------------------------------------------------------
foreach(profile prof_run.profile.json prof_fleet.profile.json)
  file(READ ${WORK_DIR}/${profile} doc)
  if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
    string(JSON v ERROR_VARIABLE err GET "${doc}" v)
    if(NOT err STREQUAL "NOTFOUND" OR NOT v EQUAL 1)
      message(FATAL_ERROR "${profile}: bad schema version: '${v}' ${err}")
    endif()
    string(JSON v ERROR_VARIABLE err GET "${doc}" deterministic)
    if(NOT v STREQUAL "OFF" AND NOT v STREQUAL "false")
      message(FATAL_ERROR "${profile}: must declare deterministic:false")
    endif()
    foreach(key wall_ns peak_rss_kb phases counters utilization)
      string(JSON v ERROR_VARIABLE err GET "${doc}" ${key})
      if(err MATCHES "not found")
        message(FATAL_ERROR "${profile}: missing '${key}': ${err}")
      endif()
    endforeach()
  else()
    foreach(key "\"v\"" "\"peak_rss_kb\"" "\"phases\"" "\"counters\""
                "\"utilization\"")
      if(NOT doc MATCHES "${key}")
        message(FATAL_ERROR "${profile}: missing ${key}")
      endif()
    endforeach()
  endif()
endforeach()
file(READ ${WORK_DIR}/prof_run.profile.json run_doc)
if(NOT run_doc MATCHES "\"engine.run\"")
  message(FATAL_ERROR "stochastic profile has no engine.run phase")
endif()
file(READ ${WORK_DIR}/prof_fleet.profile.json fleet_doc)
if(NOT fleet_doc MATCHES "\"fleet.shard\"" OR
   NOT fleet_doc MATCHES "\"fleet.device\"")
  message(FATAL_ERROR "fleet profile is missing fleet.shard/fleet.device")
endif()

# Heartbeat v3 utilization fields must appear once shards have landed (the
# final line always has timed shards in a fresh campaign).
file(READ ${WORK_DIR}/prof_fleet.heartbeat.jsonl heartbeat)
if(NOT heartbeat MATCHES "\"v\":3" OR
   NOT heartbeat MATCHES "\"shard_imbalance\"" OR
   NOT heartbeat MATCHES "\"worker_busy_frac\"")
  message(FATAL_ERROR "heartbeat lines are missing the v3 fields")
endif()

# --- renderer --------------------------------------------------------------
foreach(profile prof_run.profile.json prof_fleet.profile.json)
  execute_process(
    COMMAND ${PROFILE} --profile ${WORK_DIR}/${profile}
    RESULT_VARIABLE render_result OUTPUT_VARIABLE render_out)
  if(NOT render_result EQUAL 0)
    message(FATAL_ERROR "maxwe_profile failed on ${profile}")
  endif()
  if(NOT render_out MATCHES "attributed: ")
    message(FATAL_ERROR "maxwe_profile output has no attributed line")
  endif()
endforeach()
execute_process(
  COMMAND ${PROFILE} --profile ${WORK_DIR}/prof_run.profile.json --summary
  RESULT_VARIABLE render_result OUTPUT_VARIABLE render_out)
if(NOT render_result EQUAL 0 OR NOT render_out MATCHES "peak RSS: ")
  message(FATAL_ERROR "maxwe_profile --summary has no peak RSS line")
endif()
execute_process(
  COMMAND ${PROFILE} --profile ${WORK_DIR}/prof_fleet.profile.json
          --compare ${WORK_DIR}/prof_run.profile.json
  RESULT_VARIABLE render_result OUTPUT_VARIABLE render_out)
if(NOT render_result EQUAL 0 OR NOT render_out MATCHES "vs baseline")
  message(FATAL_ERROR "maxwe_profile --compare failed")
endif()
