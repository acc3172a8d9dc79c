# maxwe_report must refuse an event log whose attack_phases schedule does
# not parse, instead of scoring the detector against a guessed schedule.
# Needs TOOL (maxwe_sim), REPORT (maxwe_report) and WORK_DIR.
set(good ${WORK_DIR}/report_schedule_good.events.jsonl)
set(bad ${WORK_DIR}/report_schedule_bad.events.jsonl)
file(REMOVE ${good} ${bad})

execute_process(
  COMMAND ${TOOL} --mode stochastic --lines 512 --regions 32
          --endurance-mean 1000 --spare maxwe --attack-onset 20000
          --detect --detect-window 4096 --events-out ${good}
  RESULT_VARIABLE run_result OUTPUT_QUIET)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "detector run failed: ${run_result}")
endif()
execute_process(COMMAND ${REPORT} --events ${good} --detector
                RESULT_VARIABLE good_result OUTPUT_QUIET)
if(NOT good_result EQUAL 0)
  message(FATAL_ERROR "report on the untouched log failed: ${good_result}")
endif()

# A trailing "x" on the budget: a prefix parse would read 20000 and go on.
file(READ ${good} log)
string(REPLACE "\"zipf:20000,uaa:0\"" "\"zipf:20000x,uaa:0\"" tampered
       "${log}")
if(tampered STREQUAL log)
  message(FATAL_ERROR "the log carries no zipf:20000,uaa:0 schedule")
endif()
file(WRITE ${bad} "${tampered}")
execute_process(COMMAND ${REPORT} --events ${bad} --detector
                RESULT_VARIABLE bad_result OUTPUT_QUIET ERROR_QUIET)
if(bad_result EQUAL 0)
  message(FATAL_ERROR "report accepted a tampered attack_phases schedule")
endif()
