# Runs a program once and checks what it printed.
#
#   cmake -DPROGRAM=<binary> "-DARGS=<args>" -DGOLDEN=<file> -DACTUAL=<file>
#         [-DREGEN=1] -P run_golden.cmake
#     The run must exit 0 and its stdout must equal GOLDEN byte for byte;
#     on a mismatch the actual output is left in ACTUAL. With REGEN the
#     output overwrites GOLDEN instead.
#
#   cmake -DPROGRAM=<binary> "-DARGS=<args>" -DEXPECT_EXIT=<status>
#         "-DEXPECT_STDERR=<regex>" -P run_golden.cmake
#     The run must exit with EXPECT_EXIT and say EXPECT_STDERR on stderr.
separate_arguments(args UNIX_COMMAND "${ARGS}")
get_filename_component(name "${PROGRAM}" NAME)
execute_process(COMMAND "${PROGRAM}" ${args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE status)

if(DEFINED EXPECT_EXIT)
  if(NOT status STREQUAL EXPECT_EXIT)
    message(FATAL_ERROR
            "${name} ${ARGS}: exit status ${status}, want ${EXPECT_EXIT}\n${err}")
  endif()
  if(NOT err MATCHES "${EXPECT_STDERR}")
    message(FATAL_ERROR
            "${name} ${ARGS}: stderr does not match '${EXPECT_STDERR}':\n${err}")
  endif()
  return()
endif()

if(NOT status STREQUAL "0")
  message(FATAL_ERROR "${name} ${ARGS}: exit status ${status}\n${err}")
endif()
if(REGEN)
  file(WRITE "${GOLDEN}" "${out}")
  return()
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  file(WRITE "${ACTUAL}" "${out}")
  message(FATAL_ERROR
          "${name} ${ARGS}: output differs from ${GOLDEN}\n"
          "actual output: ${ACTUAL}\n"
          "if the change is intended, run the golden_regen target and "
          "review the diff")
endif()
