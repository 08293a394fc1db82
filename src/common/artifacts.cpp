#include "common/artifacts.h"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/check.h"

namespace mlsim {

namespace {

std::filesystem::path sidecar_path(const std::string& name) {
  return artifact_path(name + ".sum");
}

/// Read a sidecar checksum; false if absent or unparseable.
bool read_sidecar(const std::filesystem::path& path, std::uint64_t& sum) {
  std::ifstream is(path);
  if (!is.is_open()) return false;
  std::string hex;
  is >> hex;
  if (hex.empty()) return false;
  char* end = nullptr;
  sum = std::strtoull(hex.c_str(), &end, 16);
  return end != nullptr && *end == '\0';
}

// Unique per (process, call) so concurrent bench binaries sharing the cache
// never clobber each other's in-flight writes.
std::filesystem::path temp_sibling(const std::filesystem::path& path) {
  static std::atomic<std::uint64_t> counter{0};
  return path.parent_path() /
         (path.filename().string() + ".tmp." + std::to_string(::getpid()) +
          "." + std::to_string(counter.fetch_add(1)));
}

}  // namespace

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

bool artifact_exists(const std::string& name) {
  std::error_code ec;
  const auto p = artifact_path(name);
  if (!std::filesystem::exists(p, ec) ||
      std::filesystem::file_size(p, ec) == 0 || ec) {
    return false;
  }
  return artifact_checksum_ok(name);
}

bool artifact_checksum_ok(const std::string& name) {
  std::uint64_t recorded = 0;
  if (!read_sidecar(sidecar_path(name), recorded)) return true;  // no sidecar
  try {
    return file_checksum(artifact_path(name)) == recorded;
  } catch (const IoError&) {
    return false;
  }
}

void artifact_commit(
    const std::string& name,
    const std::function<void(const std::filesystem::path&)>& write) {
  const auto final_path = artifact_path(name);
  const auto tmp = temp_sibling(final_path);
  try {
    write(tmp);
    const std::uint64_t sum = file_checksum(tmp);
    std::error_code ec;
    std::filesystem::rename(tmp, final_path, ec);
    if (ec) {
      throw IoError("cannot publish artifact " + final_path.string() + ": " +
                    ec.message());
    }
    std::ostringstream hex;
    hex << std::hex << sum << '\n';
    write_file_atomic(sidecar_path(name), hex.str());
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
}

std::uint64_t file_checksum(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) {
    throw IoError("cannot open for checksum: " + path.string());
  }
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::vector<char> buf(1 << 16);
  while (is) {
    is.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const auto got = is.gcount();
    for (std::streamsize i = 0; i < got; ++i) {
      h ^= static_cast<unsigned char>(buf[static_cast<std::size_t>(i)]);
      h *= 0x100000001b3ull;
    }
  }
  if (is.bad()) throw IoError("read failed during checksum: " + path.string());
  return h;
}

void write_file_atomic(const std::filesystem::path& path,
                       std::string_view bytes) {
  const auto tmp = temp_sibling(path);
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os.is_open()) {
      throw IoError("cannot open temp file for writing: " + tmp.string());
    }
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os) {
      os.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw IoError("short write to " + tmp.string());
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ec2;
    std::filesystem::remove(tmp, ec2);
    throw IoError("cannot rename " + tmp.string() + " -> " + path.string() +
                  ": " + ec.message());
  }
}

}  // namespace mlsim
