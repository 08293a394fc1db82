// Artifact cache: benches and examples share expensive intermediates (trained
// SimNet bundles, labeled traces) via a directory of files so a multi-binary
// run trains once, not per binary.
//
// Each artifact is a sealed wire envelope (src/common/wire.h) that its own
// save() writes atomically, so a killed writer never leaves a half-written
// file, and its load() rejects a truncated, bit-flipped or older-format file
// with a CheckError. cached_artifact() counts such a file, like a missing
// one, as a miss: it regenerates the value and overwrites the file
// (docs/RESILIENCE.md).
#pragma once

#include <filesystem>
#include <string>

#include "common/check.h"

namespace mlsim {

/// Root directory for cached artifacts. Defaults to "./mlsim-artifacts";
/// override with the MLSIM_ARTIFACT_DIR environment variable. Created on
/// first use.
std::filesystem::path artifact_dir();

/// Path for a named artifact under artifact_dir() (not created).
std::filesystem::path artifact_path(const std::string& name);

/// The artifact `name` as `T::load` reads it; when the file is missing
/// (IoError) or invalid (CheckError), `make()`'s value, which `save`
/// writes over the file before it is returned.
template <typename T, typename Make>
T cached_artifact(const std::string& name, Make make) {
  const std::filesystem::path path = artifact_path(name);
  try {
    return T::load(path);
  } catch (const IoError&) {
  } catch (const CheckError&) {
  }
  T value = make();
  value.save(path);
  return value;
}

}  // namespace mlsim
