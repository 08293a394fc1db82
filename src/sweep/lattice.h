// Declarative configuration lattices for design-space exploration
// (docs/SWEEPS.md).
//
// A SweepSpec names one benchmark/instruction budget and a list of axes,
// each a MachineConfig field with the values to try. expand_lattice() takes
// the cartesian product into concrete SweepPoints — one fully applied
// MachineConfig per point, in row-major order (the last axis varies
// fastest), so point indices are stable across runs and machines.
//
// The axis registry (`apply_axis`) is the single place a textual key/value
// pair becomes a MachineConfig mutation; the CLI's `--axis`/`--set` flags,
// spec files, and the wire-serialized service requests all go through it.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "uarch/config.h"

namespace mlsim::sweep {

/// One lattice dimension: a MachineConfig field and the values to try,
/// kept as strings so specs round-trip the wire and the CLI verbatim.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// A declarative sweep: one shared workload, a grid of configurations.
struct SweepSpec {
  std::string benchmark;         // Table I workload abbreviation
  std::size_t instructions = 0;  // trace length per point
  std::vector<SweepAxis> axes;

  /// Lattice size (product of axis lengths; 1 for an axis-free spec).
  std::size_t points() const;
};

/// One expanded lattice point: the settings that produced it (in axis
/// order) and the fully applied machine configuration.
struct SweepPoint {
  std::size_t index = 0;  // row-major position in the lattice
  std::vector<std::pair<std::string, std::string>> settings;
  uarch::MachineConfig machine;

  /// "l2.size_kb=512 l1d.replacement=drrip" — stable human/CSV label.
  std::string label() const;
};

/// Every axis key the registry understands, in documentation order.
std::vector<std::string> known_axis_keys();
bool axis_key_known(const std::string& key);

/// Apply one key=value setting to `m`. Throws CheckError on an unknown key
/// or an unparsable/out-of-range value (the CLI converts that to a usage
/// error before any work runs).
void apply_axis(uarch::MachineConfig& m, const std::string& key,
                const std::string& value);

/// Structural validation: non-empty benchmark and instruction budget, no
/// duplicate axis keys, every key known, every value applicable, and a
/// lattice size that fits one std::vector<SweepPoint>. Throws CheckError
/// with a message naming the offending axis.
void validate_spec(const SweepSpec& spec);

/// Cartesian-product expansion over `base`. Validates the spec first.
std::vector<SweepPoint> expand_lattice(const SweepSpec& spec,
                                       const uarch::MachineConfig& base = {});

/// Parse the text spec format (docs/SWEEPS.md):
///   # comment
///   benchmark <abbr>
///   instructions <n>
///   axis <key> <v1,v2,...>
/// Throws IoError when the file cannot be read, CheckError on a malformed
/// line. The result is validated.
SweepSpec load_spec_text(const std::filesystem::path& path);

}  // namespace mlsim::sweep
