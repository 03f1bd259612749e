# Exact exit codes of the qmh_lint CLI, one invocation per failure
# class (0 clean is the lint_tree test). Run as
#
#   cmake -DQMH_LINT=<path to qmh_lint> -DSOURCE_DIR=<repo root> \
#         -P tests/lint_exit_codes.cmake

if(NOT QMH_LINT OR NOT SOURCE_DIR)
    message(FATAL_ERROR "set -DQMH_LINT=... and -DSOURCE_DIR=...")
endif()

function(expect_exit code)
    execute_process(COMMAND ${QMH_LINT} ${ARGN}
                    WORKING_DIRECTORY ${SOURCE_DIR}
                    RESULT_VARIABLE result
                    OUTPUT_QUIET ERROR_QUIET)
    string(REPLACE ";" " " args "${ARGN}")
    if(NOT result STREQUAL "${code}")
        message(SEND_ERROR
            "qmh_lint ${args}: exit ${result}, expected ${code}")
    else()
        message(STATUS "qmh_lint ${args}: exit ${result}")
    endif()
endfunction()

# 1: findings reported (the fixtures hold intentional violations).
expect_exit(1 tests/lint_fixtures)
# 2: usage errors. The removed --threads/--cache flags are now
# unknown options, not silently ignored.
expect_exit(2 --threads=4 src)
expect_exit(2 --cache=x src)
expect_exit(2 --format=xml src)
expect_exit(2)
# 3: a root that does not exist is an I/O error, never a clean tree.
expect_exit(3 no_such_lint_root)
