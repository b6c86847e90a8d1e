# Fails unless every test that scripts/unlinked_allow.txt names is defined
# in tests/*.cpp.  Each allow-list entry keeps a function no shipped
# executable links because the named test calls it, so a renamed or deleted
# test would leave the entry justifying nothing.
#   cmake -DALLOW=scripts/unlinked_allow.txt -DTESTS_DIR=tests
#         -P unlinked_allow.cmake
# A name is "[Prefix/]Suite.Test[/Param]": Suite.Test must be a TEST,
# TEST_F or TEST_P, and a Prefix must instantiate Suite.
file(STRINGS "${ALLOW}" lines)
file(GLOB sources "${TESTS_DIR}/*.cpp")
set(code "")
foreach(src IN LISTS sources)
  file(READ "${src}" text)
  string(APPEND code "${text}")
endforeach()

set(checked 0)
set(missing "")
foreach(line IN LISTS lines)
  if(line MATCHES "^[ \t]*(#|$)")
    continue()
  endif()
  if(NOT line MATCHES "[ \t]\\|[ \t]+([^| \t]+)[ \t]*$")
    message(FATAL_ERROR "allow-list line names no test: ${line}")
  endif()
  set(name "${CMAKE_MATCH_1}")
  if(NOT name MATCHES "^(([A-Za-z0-9_]+)/)?([A-Za-z0-9_]+)\\.([A-Za-z0-9_]+)(/[A-Za-z0-9_]+)?$")
    message(FATAL_ERROR "not a test name: ${name}")
  endif()
  set(prefix "${CMAKE_MATCH_2}")
  set(suite "${CMAKE_MATCH_3}")
  set(test "${CMAKE_MATCH_4}")
  math(EXPR checked "${checked} + 1")
  if(NOT code MATCHES "TEST(_F|_P)?\\(${suite}, ${test}\\)")
    list(APPEND missing "${name}")
  elseif(prefix AND NOT code MATCHES
         "INSTANTIATE_TEST_SUITE_P\\([ \t\r\n]*${prefix},[ \t\r\n]*${suite},")
    list(APPEND missing "${name}")
  endif()
endforeach()

if(checked EQUAL 0)
  message(FATAL_ERROR "no allow-list entries read from ${ALLOW}")
endif()
if(missing)
  list(JOIN missing "\n  " text)
  message(FATAL_ERROR
    "scripts/unlinked_allow.txt names tests that do not exist:\n  ${text}")
endif()
message(STATUS "unlinked_allow: ${checked} entries, every named test exists")
