# verify_cli --trace-out with --original must trace both CSV reads: the
# input and the original each record one csv/read span.
#
#   cmake -DGENERATE_WORKLOAD=<exe> -DVERIFY_CLI=<exe> -DWORK_DIR=<dir>
#         -P verify_cli_trace_test.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${GENERATE_WORKLOAD}" --profile census --rows 200 --seed 7
          --prefix "${WORK_DIR}/w"
  RESULT_VARIABLE generated OUTPUT_QUIET)
if(NOT generated EQUAL 0)
  message(FATAL_ERROR "generate_workload exited ${generated}")
endif()

execute_process(
  COMMAND "${VERIFY_CLI}" --input "${WORK_DIR}/w_data.csv"
          --schema "${WORK_DIR}/w_schema.txt" --k 1
          --original "${WORK_DIR}/w_data.csv" --threads 2
          --trace-out "${WORK_DIR}/trace.json"
  RESULT_VARIABLE verified OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT verified EQUAL 0)
  message(FATAL_ERROR "verify_cli exited ${verified}:\n${out}${err}")
endif()

file(READ "${WORK_DIR}/trace.json" trace)
string(REGEX MATCHALL "\"name\":\"csv/read\"" reads "${trace}")
list(LENGTH reads count)
if(NOT count EQUAL 2)
  message(FATAL_ERROR "expected 2 csv/read spans in the trace, got ${count}")
endif()
