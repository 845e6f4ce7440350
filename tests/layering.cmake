# Layering check: production code does not reach the device oracle.
#
#   cmake -DROOT=<source tree> -P tests/layering.cmake
#
# The event-driven model of the control plane (simulator, NVMe controller,
# queue pairs, call queue, firmware loop, protocol replay) lives in
# tests/oracle/, and only test suites link it.  The check fails, listing
# each offending line, if a file under src/, bench/ or examples/ includes an
# oracle header, names one of the oracle's types or its replay, or links
# its library.  perfbench/ needs no entry: it builds from src/ alone.
if(NOT ROOT)
  message(FATAL_ERROR "usage: cmake -DROOT=<source tree> -P layering.cmake")
endif()

set(forbidden "#include[ \t]*[\"<]oracle/")
string(APPEND forbidden "|sim::Simulator|nvme::Controller([^A-Za-z0-9_]|$)")
string(APPEND forbidden "|csd::Firmware|replay_csd_protocol")
string(APPEND forbidden "|QueuePair|CallQueue|isp_device_oracle")

set(hits 0)
set(scanned 0)
foreach(dir src bench examples)
  file(GLOB_RECURSE files LIST_DIRECTORIES false "${ROOT}/${dir}/*")
  list(SORT files)
  foreach(path IN LISTS files)
    math(EXPR scanned "${scanned} + 1")
    file(STRINGS "${path}" lines REGEX "${forbidden}")
    file(RELATIVE_PATH name "${ROOT}" "${path}")
    foreach(line IN LISTS lines)
      message("${name}: ${line}")
      math(EXPR hits "${hits} + 1")
    endforeach()
  endforeach()
endforeach()

if(scanned EQUAL 0)
  message(FATAL_ERROR "no files under ${ROOT}/{src,bench,examples}")
endif()
if(hits GREATER 0)
  message(FATAL_ERROR "${hits} line(s) above reach the test-only device "
                      "oracle (tests/oracle/) from production code")
endif()
message(STATUS "layering: ${scanned} files, none reaches the device oracle")
