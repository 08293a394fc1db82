#include "bench_util.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/flags.h"
#include "core/parallel_sim.h"
#include "obs/report.h"

namespace mlsim::bench {

namespace {

// atexit handlers take no arguments, so the reports the flags ask for live
// at file scope.
obs::Report g_reports;

}  // namespace

Args Args::parse(int argc, char** argv, std::size_t default_instructions) {
  Args a{.instructions = default_instructions};
  bool help = false;
  flags::CommandLine cli(std::filesystem::path(argv[0]).filename().string(),
                         std::vector<std::string>(argv + 1, argv + argc));
  try {
    cli.parse({{{"--instructions=N", &a.instructions},
                {"--benchmark=abbr", &a.benchmark, flags::Kind::kText},
                {"--cnn", &a.use_cnn},
                {"--help", &help},
                {"-h", &help}},
               g_reports.flags()});
    g_reports.start();
  } catch (const flags::UsageError& e) {
    std::cerr << e.what() << "\n" << cli.usage() << "\n";
    std::exit(2);
  }
  if (help) {
    std::cout << cli.usage() << "\n";
    std::exit(0);
  }
  if (g_reports.metrics || !g_reports.trace_out.empty()) {
    std::atexit([] { g_reports.write(); });
  }
  return a;
}

void emit(const Table& table, const std::string& name) {
  table.print(std::cout);
  if (const char* dir = std::getenv("MLSIM_CSV_DIR"); dir != nullptr && *dir) {
    std::filesystem::create_directories(dir);
    const std::filesystem::path path = std::filesystem::path(dir) / (name + ".csv");
    std::ofstream os(path);
    if (os.is_open()) {
      table.write_csv(os);
      std::cout << "[csv written to " << path.string() << "]\n";
    }
  }
}

core::SimNetBundle trained_bundle(std::size_t window,
                                  std::size_t train_instructions) {
  std::ostringstream name;
  name << "simnet_w" << window << "_n" << train_instructions << ".bundle";
  return cached_artifact<core::SimNetBundle>(name.str(), [&] {
    std::cout << "[training SimNet bundle on {perl,gcc,bwav,namd}, window="
              << window << ", " << train_instructions << " instr/benchmark...]\n";
    std::vector<trace::EncodedTrace> traces;
    std::vector<const trace::EncodedTrace*> ptrs;
    for (const auto& abbr : trace::train_benchmarks()) {
      traces.push_back(core::labeled_trace(abbr, train_instructions));
    }
    for (const auto& t : traces) ptrs.push_back(&t);
    core::SimNetTrainConfig cfg;
    cfg.model.window = window;
    core::SimNetTrainReport report;
    core::SimNetBundle bundle = core::train_simnet(ptrs, cfg, &report);
    std::cout << "[trained: loss=" << report.final_loss
              << " holdout fetch MAPE=" << report.holdout_mape_fetch << "%]\n";
    return bundle;
  });
}

double sequential_ml_cpi(core::LatencyPredictor& pred,
                         const trace::EncodedTrace& tr, std::size_t ctx) {
  core::ParallelSimOptions o;
  o.num_subtraces = 1;
  o.context_length = ctx;
  core::ParallelSimulator sim(pred, o);
  return sim.run(tr).cpi();
}

}  // namespace mlsim::bench
