# Layering check: production code reaches neither the device oracle nor the
# §VI projection.
#
#   cmake -DROOT=<source tree> -P tests/layering.cmake
#
# The event-driven model of the control plane (simulator, NVMe controller,
# queue pairs, call queue, firmware loop, protocol replay) lives in
# tests/oracle/, and only test suites link it.  The three-way host/CSD/GPU
# projection (bench/three_way.*, bench/gpu.*) is analysis behind E12, and
# only the reproduction driver and its test link it.  The check fails,
# listing each offending line, if a file under src/, bench/ or examples/
# includes an oracle header, names one of the oracle's types or its replay,
# or links its library; or if a file under src/ or examples/ includes a
# projection header or names the projection's DP or GPU model.  perfbench/
# needs no entry: it builds from src/ alone.
if(NOT ROOT)
  message(FATAL_ERROR "usage: cmake -DROOT=<source tree> -P layering.cmake")
endif()

set(oracle "#include[ \t]*[\"<]oracle/")
string(APPEND oracle "|sim::Simulator|nvme::Controller([^A-Za-z0-9_]|$)")
string(APPEND oracle "|csd::Firmware|replay_csd_protocol")
string(APPEND oracle "|QueuePair|CallQueue|isp_device_oracle")
set(projection "#include[ \t]*[\"<][^\">]*(three_way|gpu)\\.hpp")
string(APPEND projection "|explore_three_way|host::Gpu")

set(hits 0)
set(scanned 0)
foreach(dir src bench examples)
  set(forbidden "${oracle}")
  if(NOT dir STREQUAL "bench")
    string(APPEND forbidden "|${projection}")
  endif()
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
                      "oracle (tests/oracle/) or the E12 projection "
                      "(bench/three_way.*, bench/gpu.*) from production code")
endif()
message(STATUS "layering: ${scanned} files, none reaches the device oracle "
               "or the projection")
