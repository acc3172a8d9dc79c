# E1's shape targets (EXPERIMENTS.md E1), checked on the lifetimes that
# bench_ext_write_reduction prints at --trials 96. At that size the
# seed-to-seed sd of every gain is 0.004-0.014, so each check below has
# several sd of room; the exact figures are not gated. Needs BENCH.
#
#   cmake -DBENCH=build/bench/bench_ext_write_reduction \
#         -P bench/write_reduction_shape_test.cmake
execute_process(COMMAND ${BENCH} --trials 96
                RESULT_VARIABLE bench_result OUTPUT_VARIABLE out)
if(NOT bench_result EQUAL 0)
  message(FATAL_ERROR "bench_ext_write_reduction failed: ${bench_result}")
endif()

# Lifetimes (mean writes to death) under the differential and Flip-N-Write
# codecs for one payload row of the codec table.
function(codec_lifetimes payload)
  if(NOT out MATCHES
     "\\| ${payload} +\\| [0-9]+ +\\| ([0-9]+) +\\| ([0-9]+) +\\|")
    message(FATAL_ERROR "no '${payload}' row in:\n${out}")
  endif()
  set(diff_${payload} ${CMAKE_MATCH_1} PARENT_SCOPE)
  set(fnw_${payload} ${CMAKE_MATCH_2} PARENT_SCOPE)
endfunction()
codec_lifetimes(random)
codec_lifetimes(complement)
codec_lifetimes(fnw-adversarial)

# FNW gain (fnw / diff) on complement data > on random data > 1, compared
# by cross-multiplying the integer lifetimes.
math(EXPR complement_side "${fnw_complement} * ${diff_random}")
math(EXPR random_side "${fnw_random} * ${diff_complement}")
if(NOT complement_side GREATER random_side)
  message(FATAL_ERROR "FNW gain on complement data "
          "(${fnw_complement}/${diff_complement}) is not above the gain on "
          "random data (${fnw_random}/${diff_random})")
endif()
if(NOT fnw_random GREATER diff_random)
  message(FATAL_ERROR "FNW gain on random data is not above 1: "
          "${fnw_random}/${diff_random}")
endif()

# The 0x0000/0x5555 alternation erases the gain: within 5% of 1.0.
math(EXPR adv_fnw "100 * ${fnw_fnw-adversarial}")
math(EXPR adv_low "95 * ${diff_fnw-adversarial}")
math(EXPR adv_high "105 * ${diff_fnw-adversarial}")
if(adv_fnw LESS adv_low OR adv_fnw GREATER adv_high)
  message(FATAL_ERROR "FNW gain under 0x0000/0x5555 is not within 5% of "
          "1.0: ${fnw_fnw-adversarial}/${diff_fnw-adversarial}")
endif()

# ECP column: lifetime strictly increasing in the entry count, and
# saturating: an entry added past six buys less than the first entry did,
# and twelve entries stay in the few-percent range (below 1.25x).
string(FIND "${out}" "ECP salvaging" ecp_at)
if(ecp_at EQUAL -1)
  message(FATAL_ERROR "no ECP table in:\n${out}")
endif()
string(SUBSTRING "${out}" ${ecp_at} -1 ecp_table)
set(previous -1)
foreach(entries 0 1 2 4 6 12)
  if(NOT ecp_table MATCHES "\\| ${entries} +\\| ([0-9]+) +\\|")
    message(FATAL_ERROR "no ECP-${entries} row in:\n${ecp_table}")
  endif()
  set(ecp_${entries} ${CMAKE_MATCH_1})
  if(NOT ecp_${entries} GREATER previous)
    message(FATAL_ERROR "ECP column not strictly monotone: ${entries} "
            "entries give ${ecp_${entries}} writes after ${previous}")
  endif()
  set(previous ${ecp_${entries}})
endforeach()
math(EXPR last_six "${ecp_12} - ${ecp_6}")
math(EXPR first_one_six_times "6 * (${ecp_1} - ${ecp_0})")
if(NOT last_six LESS first_one_six_times)
  message(FATAL_ERROR "ECP gain does not saturate: entries 7-12 add "
          "${last_six} writes, six times the first entry's gain is "
          "${first_one_six_times}")
endif()
math(EXPR ecp_12_scaled "100 * ${ecp_12}")
math(EXPR ecp_bound "125 * ${ecp_0}")
if(NOT ecp_12_scaled LESS ecp_bound)
  message(FATAL_ERROR "ECP-12 gain is not below 1.25x: "
          "${ecp_12}/${ecp_0}")
endif()
