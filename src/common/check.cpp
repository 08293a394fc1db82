#include "common/check.h"

#include <sstream>

namespace mlsim {

void check_failed(std::string_view msg, std::source_location loc) {
  std::ostringstream os;
  os << loc.file_name() << ':' << loc.line() << " check failed: " << msg;
  throw CheckError(os.str());
}

void check_index_failed(std::string_view what, std::size_t v, std::size_t hi,
                        std::source_location loc) {
  std::ostringstream os;
  os << loc.file_name() << ':' << loc.line() << " index check failed: " << what
     << " = " << v << " must be < " << hi;
  throw CheckError(os.str());
}

}  // namespace mlsim
