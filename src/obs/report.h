// The --metrics and --trace-out reports of mlsim_cli and the bench binaries
// (docs/OBSERVABILITY.md): one flag group, one start-up, one writer.
#pragma once

#include <string>

#include "common/flags.h"

namespace mlsim::obs {

/// What a run's --metrics[=path] and --trace-out=file ask it to report.
struct Report {
  bool metrics = false;
  std::string metrics_path;  // empty = stdout
  std::string trace_out;     // empty = no trace

  /// The two flag rows that fill this struct.
  flags::Group flags();

  /// Reject a --trace-out file that cannot be written (flags::UsageError):
  /// the trace is written after the run, which may be long. Then, when a
  /// report is asked for, clear the trace and turn recording on.
  void start() const;

  /// Write the metrics registry (text to stdout, or to `metrics_path`, as
  /// JSON when it ends in .json) and the Chrome trace. A file that cannot
  /// be written is reported on stderr; the run's result stands.
  void write() const;
};

}  // namespace mlsim::obs
