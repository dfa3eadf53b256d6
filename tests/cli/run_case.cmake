# Generic hj_embed CLI test case, driven by `cmake -P` so no shell is
# assumed. Variables (passed with -D):
#   BIN             path to the hj_embed binary (required)
#   ARGS            semicolon-separated argument list
#   PRE_ARGS        if set, run BIN with these arguments first and require
#                   success (setup step, e.g. precompute before serve)
#   PRE_STDIN       text fed to the setup command's stdin (same "\n"
#                   escaping as STDIN; e.g. drive a serve session that
#                   leaves a flight ring behind)
#   STDIN           text fed to the command's stdin; "\n" escapes become
#                   newlines (line-protocol commands like serve)
#   EXPECT_NONZERO  if set, the command must FAIL (any nonzero exit)
#   EXPECT_EXIT     if set, the command must exit with exactly this code
#                   (e.g. 2 for a usage error)
#   MATCH           substring that must appear in combined stdout+stderr
#   FILE1 / FILE1_MATCH, FILE2 / FILE2_MATCH
#                   files that must exist afterwards and contain the
#                   given substring (export-flag round trips)
if(NOT DEFINED BIN)
  message(FATAL_ERROR "run_case.cmake: BIN is required")
endif()

if(DEFINED PRE_ARGS)
  separate_arguments(PRE_LIST UNIX_COMMAND "${PRE_ARGS}")
  set(pre_input_args)
  if(DEFINED PRE_STDIN)
    string(REPLACE "\\n" "\n" pre_stdin_body "${PRE_STDIN}")
    string(RANDOM LENGTH 8 pre_stdin_tag)
    set(pre_stdin_file
        "${CMAKE_CURRENT_BINARY_DIR}/cli_pre_stdin_${pre_stdin_tag}.txt")
    file(WRITE "${pre_stdin_file}" "${pre_stdin_body}")
    set(pre_input_args INPUT_FILE "${pre_stdin_file}")
  endif()
  execute_process(
    COMMAND "${BIN}" ${PRE_LIST}
    ${pre_input_args}
    OUTPUT_VARIABLE pre_out
    ERROR_VARIABLE pre_err
    RESULT_VARIABLE pre_rc
  )
  if(DEFINED PRE_STDIN)
    file(REMOVE "${pre_stdin_file}")
  endif()
  if(NOT pre_rc EQUAL 0)
    message(FATAL_ERROR
            "setup command failed (exit ${pre_rc})\n${pre_out}${pre_err}")
  endif()
endif()

set(input_args)
if(DEFINED STDIN)
  string(REPLACE "\\n" "\n" stdin_body "${STDIN}")
  string(RANDOM LENGTH 8 stdin_tag)
  set(stdin_file "${CMAKE_CURRENT_BINARY_DIR}/cli_stdin_${stdin_tag}.txt")
  file(WRITE "${stdin_file}" "${stdin_body}")
  set(input_args INPUT_FILE "${stdin_file}")
endif()

separate_arguments(ARG_LIST UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BIN}" ${ARG_LIST}
  ${input_args}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
)
if(DEFINED STDIN)
  file(REMOVE "${stdin_file}")
endif()
set(combined "${out}${err}")

if(DEFINED EXPECT_EXIT)
  if(NOT rc EQUAL EXPECT_EXIT)
    message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got ${rc}\n${combined}")
  endif()
elseif(EXPECT_NONZERO)
  if(rc EQUAL 0)
    message(FATAL_ERROR "expected failure, got exit 0\n${combined}")
  endif()
else()
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "exit ${rc}\n${combined}")
  endif()
endif()

if(DEFINED MATCH)
  string(FIND "${combined}" "${MATCH}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "output does not contain '${MATCH}'\n${combined}")
  endif()
endif()

foreach(slot 1 2)
  if(DEFINED FILE${slot})
    if(NOT EXISTS "${FILE${slot}}")
      message(FATAL_ERROR "expected file ${FILE${slot}} was not written")
    endif()
    file(READ "${FILE${slot}}" body)
    string(FIND "${body}" "${FILE${slot}_MATCH}" pos)
    if(pos EQUAL -1)
      message(FATAL_ERROR
              "${FILE${slot}} does not contain '${FILE${slot}_MATCH}'")
    endif()
  endif()
endforeach()
