// Functional simulator (QEMU stand-in): executes a synthetic Program and
// emits the dynamic instruction stream. It resolves memory addresses and
// branch outcomes but performs no timing — that is the job of the
// microarchitecture substrate (ground truth) or the ML simulator.
//
// Throughput note: the paper measures ~1290 MIPS for QEMU-KVM functional
// tracing and treats trace generation as negligible next to simulation; this
// generator is similarly orders of magnitude faster than the timing models.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "trace/program.h"

namespace mlsim::trace {

class FunctionalSim {
 public:
  /// `seed` controls data-dependent branch outcomes and random access
  /// patterns; the same (program, seed) pair always yields the same stream.
  FunctionalSim(const Program& program, std::uint64_t seed = 1);

  /// Emit the next dynamic instruction. The stream is infinite (programs
  /// contain an outer loop), so callers bound it by count.
  DynInst next();

  /// Emit `n` instructions into a vector.
  std::vector<DynInst> run(std::size_t n);

  /// Emit `n` instructions through a sink callback (no allocation).
  void run(std::size_t n, const std::function<void(const DynInst&)>& sink);

  std::uint64_t instructions_retired() const { return count_; }

 private:
  struct MemState {
    std::uint64_t counter = 0;
    std::uint64_t chase_pos = 0;
  };
  struct LoopState {
    std::uint32_t iter = 0;
  };

  std::uint64_t gen_address(const MemAccessSpec& spec, MemState& st);
  bool resolve_branch(const BranchSpec& spec, std::uint32_t static_idx);

  const Program& prog_;
  Rng rng_;
  std::uint32_t cur_block_;
  std::uint32_t cur_inst_ = 0;
  bool at_block_entry_ = true;
  std::uint64_t count_ = 0;
  std::vector<MemState> mem_state_;    // per static instruction
  std::vector<LoopState> loop_state_;  // per static instruction
};

}  // namespace mlsim::trace
