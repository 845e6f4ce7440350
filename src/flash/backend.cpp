#include "flash/backend.hpp"

#include "common/error.hpp"

namespace isp::flash {

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::Ftl:
      return "ftl";
    case BackendKind::Zns:
      return "zns";
  }
  ISP_CHECK(false,
            "unknown storage backend kind: " << static_cast<unsigned>(kind));
  return "?";
}

}  // namespace isp::flash
