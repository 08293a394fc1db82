// Trace inspector: generate (or load) an encoded trace and print its
// statistics — instruction mix, cache hit levels, branch behaviour,
// ground-truth latency distribution, interval CPI phases. Useful for
// sanity-checking workload profiles and saved trace files.
//
// Usage: trace_inspector [benchmark|path.bin] [instructions]
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/flags.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/metrics.h"
#include "core/simulator.h"
#include "trace/annotation.h"

using namespace mlsim;

int main(int argc, char** argv) {
  std::string what = "mcf";
  std::size_t n = 200000;
  flags::parse_or_exit(argc, argv, {{{"[benchmark|path.bin]", &what, flags::Kind::kText},
                                     {"[instructions]", &n, flags::Kind::kPositive}}});

  trace::EncodedTrace tr;
  if (std::filesystem::exists(what)) {
    tr = trace::EncodedTrace::load(what);
    std::printf("loaded %zu instructions from %s (benchmark '%s')\n\n",
                tr.size(), what.c_str(), tr.benchmark().c_str());
  } else {
    tr = core::labeled_trace(what, n);
    std::printf("generated %zu instructions of %s\n\n", tr.size(), what.c_str());
  }

  // Instruction mix.
  std::array<std::size_t, trace::kNumOpClasses> mix{};
  std::array<std::size_t, 4> data_levels{};
  std::size_t branches = 0, taken = 0, mispredicted = 0;
  RunningStats fetch_lat, exec_lat, store_lat;
  for (std::size_t i = 0; i < tr.size(); ++i) {
    const auto f = tr.features(i);
    mix[static_cast<std::size_t>(f[trace::Feat::kOpClass])]++;
    data_levels[static_cast<std::size_t>(f[trace::Feat::kDataLevel])]++;
    if (f[trace::Feat::kIsBranch] != 0) {
      ++branches;
      taken += f[trace::Feat::kTaken] != 0;
      mispredicted += f[trace::Feat::kMispredicted] != 0;
    }
    const auto t = tr.targets(i);
    fetch_lat.add(t[0]);
    exec_lat.add(t[1]);
    if (t[2] > 0) store_lat.add(t[2]);
  }

  Table mix_t({"op class", "count", "share %"});
  for (std::size_t c = 0; c < trace::kNumOpClasses; ++c) {
    if (mix[c] == 0) continue;
    mix_t.add_row({std::string(trace::to_string(static_cast<trace::OpClass>(c))),
                   static_cast<std::int64_t>(mix[c]),
                   100.0 * static_cast<double>(mix[c]) /
                       static_cast<double>(tr.size())});
  }
  mix_t.set_precision(1);
  std::printf("instruction mix:\n");
  mix_t.print(std::cout);

  const std::size_t mem_total =
      data_levels[1] + data_levels[2] + data_levels[3];
  if (mem_total > 0) {
    std::printf("data hit levels: L1 %.1f%% | L2 %.1f%% | memory %.1f%%\n",
                100.0 * static_cast<double>(data_levels[1]) / static_cast<double>(mem_total),
                100.0 * static_cast<double>(data_levels[2]) / static_cast<double>(mem_total),
                100.0 * static_cast<double>(data_levels[3]) / static_cast<double>(mem_total));
  }
  if (branches > 0) {
    std::printf("branches: %.1f%% of instructions, %.1f%% taken, %.2f%% "
                "mispredicted\n",
                100.0 * static_cast<double>(branches) / static_cast<double>(tr.size()),
                100.0 * static_cast<double>(taken) / static_cast<double>(branches),
                100.0 * static_cast<double>(mispredicted) / static_cast<double>(branches));
  }
  if (tr.labeled()) {
    std::printf("\nground-truth latencies (cycles):\n");
    std::printf("  fetch: mean %.2f max %.0f | exec: mean %.1f max %.0f | "
                "store (when present): mean %.1f\n",
                fetch_lat.mean(), fetch_lat.max(), exec_lat.mean(),
                exec_lat.max(), store_lat.count() ? store_lat.mean() : 0.0);
    std::printf("  CPI %.3f | memory bandwidth %.2f B/kilocycle\n",
                fetch_lat.mean(), core::memory_bandwidth_from_targets(tr) * 1000);
    const auto series = core::cpi_series_from_targets(
        tr, std::max<std::size_t>(1, tr.size() / 16));
    std::printf("  interval CPI phases:");
    for (double c : series) std::printf(" %.2f", c);
    std::printf("\n");
  }
  return 0;
}
