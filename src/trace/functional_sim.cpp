#include "trace/functional_sim.h"

#include "common/check.h"

namespace mlsim::trace {

FunctionalSim::FunctionalSim(const Program& program, std::uint64_t seed)
    : prog_(program), rng_(seed * 0x2545'f491'4f6c'dd1dull + 0x1234'5678ull) {
  check(!prog_.blocks().empty(), "program has no blocks");
  cur_block_ = prog_.entry_block();
  mem_state_.resize(prog_.num_static_insts());
  loop_state_.resize(prog_.num_static_insts());
}

std::uint64_t FunctionalSim::gen_address(const MemAccessSpec& spec, MemState& st) {
  const std::uint64_t region_mask = spec.region_bytes - 1;  // region is pow2
  std::uint64_t offset = 0;
  switch (spec.pattern) {
    case AccessPattern::kStream:
    case AccessPattern::kStrided:
      offset = (st.counter * spec.stride) & region_mask;
      break;
    case AccessPattern::kRandom:
      // Hash of the counter: uniform within the region, line granular.
      offset = (st.counter * 0x9e37'79b9'7f4a'7c15ull >> 17) & region_mask & ~63ull;
      break;
    case AccessPattern::kChase: {
      // Dependent LCG walk over cache lines: consecutive accesses land on
      // unpredictable lines, like linked-list traversal.
      const std::uint64_t lines = spec.region_bytes / 64;
      st.chase_pos = (st.chase_pos * 6364136223846793005ull + 1442695040888963407ull);
      offset = (st.chase_pos % lines) * 64;
      break;
    }
    case AccessPattern::kStack:
      offset = (st.counter * 8) & region_mask;
      break;
    case AccessPattern::kNone:
      break;
  }
  ++st.counter;
  return spec.region_base + offset;
}

bool FunctionalSim::resolve_branch(const BranchSpec& spec, std::uint32_t static_idx) {
  switch (spec.kind) {
    case BranchKind::kUncond:
      return true;
    case BranchKind::kLoop: {
      auto& ls = loop_state_[static_idx];
      ++ls.iter;
      if (ls.iter >= spec.trip_count) {
        ls.iter = 0;
        return false;  // exit loop
      }
      return true;  // back edge taken
    }
    case BranchKind::kBiased:
    case BranchKind::kDataDep:
      return rng_.bernoulli(spec.taken_prob);
    case BranchKind::kNone:
      break;
  }
  return false;
}

DynInst FunctionalSim::next() {
  const BasicBlock& blk = prog_.blocks()[cur_block_];
  const StaticInst& si = blk.insts[cur_inst_];
  const std::uint32_t sidx = prog_.static_index(cur_block_, cur_inst_);

  DynInst d;
  d.pc = blk.start_pc + 4ull * cur_inst_;
  d.static_idx = sidx;
  d.op = si.op;
  d.n_src = si.n_src;
  d.n_dst = si.n_dst;
  d.src = si.src;
  d.dst = si.dst;
  d.block_entry = at_block_entry_;
  at_block_entry_ = false;

  if (is_memory(si.op)) {
    d.mem_size_log2 = si.mem.size_log2;
    d.mem_addr = gen_address(si.mem, mem_state_[sidx]);
  }

  const bool is_terminator = (cur_inst_ + 1 == blk.insts.size());
  if (is_terminator && is_control(si.op)) {
    d.is_taken = resolve_branch(si.branch, sidx);
    cur_block_ = d.is_taken ? si.branch.taken_target : si.branch.fall_target;
    cur_inst_ = 0;
    at_block_entry_ = true;
  } else if (is_terminator) {
    // Non-control terminator: structural fall-through to next block.
    cur_block_ = (cur_block_ + 1) % static_cast<std::uint32_t>(prog_.blocks().size());
    cur_inst_ = 0;
    at_block_entry_ = true;
  } else {
    ++cur_inst_;
  }

  ++count_;
  return d;
}

std::vector<DynInst> FunctionalSim::run(std::size_t n) {
  std::vector<DynInst> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(next());
  return out;
}

void FunctionalSim::run(std::size_t n, const std::function<void(const DynInst&)>& sink) {
  for (std::size_t i = 0; i < n; ++i) sink(next());
}

}  // namespace mlsim::trace
