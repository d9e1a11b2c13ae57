# verify_cli --taxonomy must accept what anonymize_cli --taxonomy
# publishes: with the producer's taxonomy, a cell recoded to a decade or
# to [0-99] counts as generalized and the audit passes; without it, the
# same cells are edits and verification fails.
#
#   cmake -DGENERATE_WORKLOAD=<exe> -DANONYMIZE_CLI=<exe> -DVERIFY_CLI=<exe>
#         -DTAXONOMY=<age taxonomy> -DWORK_DIR=<dir>
#         -P verify_cli_taxonomy_test.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${GENERATE_WORKLOAD}" --profile popsyn --rows 3000 --seed 7
          --prefix "${WORK_DIR}/w"
  RESULT_VARIABLE generated OUTPUT_QUIET)
if(NOT generated EQUAL 0)
  message(FATAL_ERROR "generate_workload exited ${generated}")
endif()

execute_process(
  COMMAND "${ANONYMIZE_CLI}" --input "${WORK_DIR}/w_data.csv"
          --schema "${WORK_DIR}/w_schema.txt" --k 5
          --taxonomy "AGE=${TAXONOMY}" --output "${WORK_DIR}/w_anon.csv"
  RESULT_VARIABLE anonymized OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT anonymized EQUAL 0)
  message(FATAL_ERROR "anonymize_cli exited ${anonymized}:\n${out}${err}")
endif()

set(verify_args --input "${WORK_DIR}/w_anon.csv"
                --schema "${WORK_DIR}/w_schema.txt" --k 5
                --original "${WORK_DIR}/w_data.csv")
execute_process(
  COMMAND "${VERIFY_CLI}" ${verify_args} --taxonomy "AGE=${TAXONOMY}"
  RESULT_VARIABLE verified OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT verified EQUAL 0)
  message(FATAL_ERROR "verify_cli --taxonomy exited ${verified}:\n${out}${err}")
endif()
if(NOT out MATCHES "generalized_cells=[1-9][0-9]* edited_cells=0")
  message(FATAL_ERROR "expected generalized cells and no edits:\n${out}")
endif()

execute_process(
  COMMAND "${VERIFY_CLI}" ${verify_args}
  RESULT_VARIABLE verified OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(verified EQUAL 0)
  message(FATAL_ERROR "verify_cli without --taxonomy passed:\n${out}")
endif()
