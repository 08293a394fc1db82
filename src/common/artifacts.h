// Artifact cache: benches and examples share expensive intermediates (trained
// model weights, labeled traces) via a directory of versioned files so a
// multi-binary run trains once, not per binary.
//
// Writes are hardened (docs/RESILIENCE.md): artifacts are produced at a
// temporary path and renamed into place atomically, with an FNV-1a checksum
// sidecar (`<name>.sum`), so a killed writer never leaves a half-written
// file that a later run would trust.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>

namespace mlsim {

/// Root directory for cached artifacts. Defaults to "./mlsim-artifacts";
/// override with the MLSIM_ARTIFACT_DIR environment variable. Created on
/// first use.
std::filesystem::path artifact_dir();

/// Path for a named artifact under artifact_dir() (not created).
std::filesystem::path artifact_path(const std::string& name);

/// True if a cached artifact with this name exists, is non-empty, and — when
/// a checksum sidecar is present — matches its recorded checksum.
bool artifact_exists(const std::string& name);

/// True if `name`'s checksum sidecar exists and matches the file content.
/// Artifacts without a sidecar (written by older builds or by hand) pass.
bool artifact_checksum_ok(const std::string& name);

/// Produce an artifact atomically: `write(tmp)` creates the file at a
/// temporary path in the artifact dir; it is then checksummed (sidecar
/// `<name>.sum`) and renamed into place. If `write` throws, the temporary
/// is removed and nothing is published.
void artifact_commit(
    const std::string& name,
    const std::function<void(const std::filesystem::path&)>& write);

/// FNV-1a of a whole file. Throws IoError if the file cannot be read.
std::uint64_t file_checksum(const std::filesystem::path& path);

/// Write `bytes` to `path` atomically (temp file in the same directory +
/// rename). Throws IoError on any filesystem failure; the temp file never
/// survives an error.
void write_file_atomic(const std::filesystem::path& path,
                       std::string_view bytes);

}  // namespace mlsim
