// perfbench: host-time benchmark of the simulator (see perfbench/README.md).
//
//   perfbench --workload <cnn_sim|sweep_cold|serve_batched|dist_local>
//             [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//             [--scale F] [--corrupt-reference]
//
// Prints notes and every metric by name with its unit, then, as the last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"} with
// every metric the run produced (the traced run adds the per-layer ones).
// Exits 1 when any op's result differs from its reference, 2 on a usage
// error.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <cnn_sim|sweep_cold|serve_batched|"
               "dist_local> [--seed N] [--seconds S] [--trace 0|1] "
               "[--trace-out FILE] [--scale F] [--corrupt-reference]\n";
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + f);
      return argv[++i];
    };
    try {
      if (f == "--workload") {
        a.workload = value();
      } else if (f == "--seed") {
        a.seed = std::stoull(value());
      } else if (f == "--seconds") {
        a.seconds = std::stod(value());
      } else if (f == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (f == "--trace-out") {
        a.trace_out = value();
      } else if (f == "--scale") {
        a.scale = std::stod(value());
      } else if (f == "--corrupt-reference") {
        a.corrupt_reference = true;
      } else {
        usage("unknown flag " + f);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + f);
    }
  }
  if (a.seconds <= 0 || a.scale <= 0) usage("--seconds and --scale must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args a = parse(argc, argv);
  // Before the workload exists, so every thread it starts shares the CPU.
  const perfbench::CpuPin pin;
  std::unique_ptr<perfbench::Workload> w;
  if (a.workload == "cnn_sim") {
    w = perfbench::make_cnn_sim(a);
  } else if (a.workload == "sweep_cold") {
    w = perfbench::make_sweep_cold(a);
  } else if (a.workload == "serve_batched") {
    w = perfbench::make_serve_batched(a);
  } else if (a.workload == "dist_local") {
    w = perfbench::make_dist_local(a);
  } else {
    usage("unknown workload '" + a.workload + "'");
  }

  std::cout << "perfbench " << a.workload << " seed=" << a.seed
            << " seconds=" << a.seconds << " trace=" << a.trace
            << "\nhost wall-clock times unless the unit says modeled; the modeled "
               "caches and branch predictors start empty (cold) in every trace\n"
            << "every thread runs on CPU " << pin.cpu()
            << ", kept awake by an idle-priority thread\n";
  perfbench::Report r = perfbench::run_workload(*w, a);

  for (const std::string& n : r.notes) std::cout << n << "\n";
  for (const perfbench::Metric& m : r.metrics) {
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  // Final line: the result as one JSON object with every metric the run
  // produced; run.py keeps the ones BENCHMARK.json lists for the mode.
  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted) +
          ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (const perfbench::Metric& m : r.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += std::string(&m == r.metrics.data() ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return r.failed == 0 ? 0 : 1;
}
