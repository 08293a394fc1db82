// Trace annotation, ground-truth labels, and the one trace pipeline.
//
// Annotator runs the branch predictor, cache hierarchy and TLBs over the
// functional instruction stream and attaches the dynamic-state features the
// ML model consumes (this is the cheap step that Table IV exploits for
// design-space exploration: changing cache/BP structures only re-runs this).
// Each reference searches each cache level once: a hit is promoted in that
// search, a miss asks the next level and then fills.
//
// The ground-truth pipeline then feeds (instruction, annotation) into the
// OooCore timing model to produce the three latency labels used for
// training and for every "error vs. cycle-accurate simulator" experiment.
// LabeledTraceStream writes that stage order down once: program →
// functional simulator → Annotator → OooCore → FeatureEncoder, one
// instruction at a time. Every trace producer steps it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/annotation.h"
#include "trace/functional_sim.h"
#include "trace/isa.h"
#include "trace/trace.h"
#include "uarch/branch_predictor.h"
#include "uarch/cache.h"
#include "uarch/config.h"
#include "uarch/ooo_core.h"
#include "uarch/tlb.h"

namespace mlsim::uarch {

/// Runs the structural machine models over the dynamic stream to produce
/// per-instruction annotations. Pseudo-time is the dynamic instruction
/// index, which is sufficient for MSHR merge behaviour.
class Annotator {
 public:
  explicit Annotator(const MachineConfig& cfg = {});

  trace::Annotation annotate(const trace::DynInst& inst);

  const BiModePredictor& branch_predictor() const { return bp_; }
  const Cache& l1i() const { return l1i_; }
  const Cache& l1d() const { return l1d_; }
  const Cache& l2() const { return l2_; }

 private:
  /// The level that serves `addr` through `l1` (l1i_ or l1d_) and l2_.
  trace::HitLevel lookup(Cache& l1, std::uint64_t addr, bool is_write);

  MachineConfig cfg_;
  BiModePredictor bp_;
  Cache l1i_;
  Cache l1d_;
  Cache l2_;
  Tlb itlb_;
  Tlb dtlb_;
  std::uint64_t now_ = 0;  // pseudo-time

  struct StoreRecord {
    std::uint64_t addr = 0;
    std::uint64_t index = 0;
    std::uint8_t size_log2 = 0;
  };
  std::vector<StoreRecord> store_window_;
  std::size_t store_head_ = 0;
};

/// One fully-labeled trace record.
struct LabeledInst {
  trace::DynInst inst;
  trace::Annotation ann;
  InstTiming timing;
};

/// The one trace pipeline, unbounded: program → functional simulator →
/// Annotator → OooCore ground truth → FeatureEncoder. step() runs the next
/// instruction through every stage but the encoder; fill() appends encoded,
/// labeled rows. The paper's scalability runs simulate 10-100 *billion*
/// instructions, which cannot be materialised (100B x 50 x 4B = 20 TB):
/// consumers hold one chunk of rows plus their context window.
class LabeledTraceStream {
 public:
  LabeledTraceStream(const trace::WorkloadProfile& profile,
                     const MachineConfig& machine = {}, std::uint64_t seed = 1);
  // The functional simulator refers to program_: the stream stays put.
  LabeledTraceStream(const LabeledTraceStream&) = delete;
  LabeledTraceStream& operator=(const LabeledTraceStream&) = delete;

  /// The next instruction, annotated and labeled.
  LabeledInst step();

  /// Append the next `max_rows` encoded, labeled rows to `out` (which the
  /// caller typically clears between chunks). Returns max_rows.
  std::size_t fill(trace::EncodedTrace& out, std::size_t max_rows);

  std::uint64_t generated() const { return fsim_.instructions_retired(); }
  const std::string& benchmark() const { return benchmark_; }
  /// The ground-truth core, for its stall attribution.
  const OooCore& core() const { return core_; }

 private:
  std::string benchmark_;
  trace::Program program_;
  trace::FunctionalSim fsim_;
  Annotator annotator_;
  OooCore core_;
  trace::FeatureEncoder encoder_;
};

struct LabeledTrace {
  std::string benchmark;
  MachineConfig machine;
  std::vector<LabeledInst> records;

  std::size_t size() const { return records.size(); }

  /// Ground-truth CPI: total fetch-latency cycles (plus final drain) over
  /// the instruction count.
  double cpi() const;
  std::uint64_t total_cycles() const;
};

/// The first `n` records of LabeledTraceStream(profile, machine, seed).
LabeledTrace generate_labeled_trace(const trace::WorkloadProfile& profile,
                                    std::size_t n,
                                    const MachineConfig& machine = {},
                                    std::uint64_t seed = 1);

/// The first `n` rows of LabeledTraceStream(profile, machine, seed), each
/// appended as soon as its instruction is labeled.
trace::EncodedTrace make_encoded_trace(const trace::WorkloadProfile& profile,
                                       std::size_t n,
                                       const MachineConfig& machine = {},
                                       std::uint64_t seed = 1);

}  // namespace mlsim::uarch
