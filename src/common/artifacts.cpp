#include "common/artifacts.h"

#include <cstdlib>

namespace mlsim {

std::filesystem::path artifact_dir() {
  std::filesystem::path dir = "mlsim-artifacts";
  if (const char* env = std::getenv("MLSIM_ARTIFACT_DIR"); env != nullptr && *env) {
    dir = env;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort
  return dir;
}

std::filesystem::path artifact_path(const std::string& name) {
  return artifact_dir() / name;
}

}  // namespace mlsim
