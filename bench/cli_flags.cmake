# Flag-handling check for a bench binary, run by ctest:
#   cmake -DBIN=<path> -DWORK_DIR=<dir> -P cli_flags.cmake
# --help must print usage on stdout, exit 0 and write no file; any other
# unknown --flag must print usage and exit 2.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(COMMAND "${BIN}" --help WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "usage:")
  message(FATAL_ERROR "--help: exit ${rc}, stdout '${out}', stderr '${err}'")
endif()
file(GLOB written "${WORK_DIR}/*")
if(written)
  message(FATAL_ERROR "--help wrote files: ${written}")
endif()

execute_process(COMMAND "${BIN}" --no-such-flag WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "usage:")
  message(FATAL_ERROR "--no-such-flag: exit ${rc}, stderr '${err}'")
endif()
