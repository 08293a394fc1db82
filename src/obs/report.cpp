#include "obs/report.h"

#include <filesystem>
#include <fstream>
#include <iostream>

#include "obs/obs.h"

namespace mlsim::obs {

flags::Group Report::flags() {
  return {{"--metrics[=path]", &metrics_path, flags::Kind::kText, &metrics},
          {"--trace-out=file.json", &trace_out, flags::Kind::kText}};
}

void Report::start() const {
  if (!trace_out.empty()) {
    namespace fs = std::filesystem;
    const fs::path p(trace_out);
    if (fs::is_directory(p)) {
      throw flags::UsageError("--trace-out: '" + trace_out +
                              "' is a directory, not a file");
    }
    const fs::path dir = p.has_parent_path() ? p.parent_path() : fs::path(".");
    if (!fs::is_directory(dir)) {
      throw flags::UsageError("--trace-out: directory '" + dir.string() +
                              "' does not exist");
    }
    const fs::path probe = dir / ".mlsim_trace_out_probe";
    if (!std::ofstream(probe).is_open()) {
      throw flags::UsageError("--trace-out: directory '" + dir.string() +
                              "' is not writable");
    }
    std::error_code ec;
    fs::remove(probe, ec);
  }
  if (!metrics && trace_out.empty()) return;
  if (!kCompiledIn) {
    std::cerr << "note: built with MLSIM_OBS_DISABLE=ON; --metrics and "
                 "--trace-out will produce empty output\n";
  }
  set_enabled(true);
  reset_trace();
}

void Report::write() const {
  if (metrics && metrics_path.empty()) {
    std::cout << "-- metrics --\n";
    default_registry().write_text(std::cout);
  } else if (metrics) {
    std::ofstream os(metrics_path);
    if (!os.is_open()) {
      std::cerr << "cannot write metrics to " << metrics_path << "\n";
    } else {
      if (metrics_path.ends_with(".json")) {
        default_registry().write_json(os);
      } else {
        default_registry().write_text(os);
      }
      std::cout << "[metrics written to " << metrics_path << "]\n";
    }
  }
  if (trace_out.empty()) return;
  if (write_chrome_trace_file(trace_out)) {
    std::cout << "[trace with " << recorded_events() << " spans written to "
              << trace_out
              << " — load in chrome://tracing or ui.perfetto.dev]\n";
  } else {
    std::cerr << "cannot write trace to " << trace_out << "\n";
  }
}

}  // namespace mlsim::obs
