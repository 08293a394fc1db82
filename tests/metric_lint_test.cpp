// Metric-name lint (tier-1, docs/OBSERVABILITY.md): keeps the instrumentation
// schema closed. Every metric name used anywhere in src/ must be a constant
// declared in src/obs/metric_names.h, every declared constant must be both
// pre-registered in kBuiltinMetrics and actually used by some subsystem (no
// dead names), and the names themselves must follow the documented
// `<subsystem>.<what>[_unit]` convention. Runs as a source-level lint (like
// docs_test) so a drive-by `MLSIM_COUNTER_ADD("my.metric", 1)` fails the
// suite instead of silently forking the schema. Flight-recorder events get
// the same rule: every declared event is stamped, and only by the service
// layer whose requests the recorder's post-mortems describe.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metric_names.h"

namespace mlsim {
namespace {

namespace fs = std::filesystem;

const fs::path kSourceDir = fs::path(MLSIM_SOURCE_DIR) / "src";
const fs::path kNamesHeader = kSourceDir / "obs" / "metric_names.h";
const fs::path kFlightHeader = kSourceDir / "obs" / "flight_recorder.h";

std::string slurp(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  EXPECT_TRUE(is.is_open()) << p;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// All .h/.cpp files under src/ except metric_names.h itself.
std::vector<fs::path> source_files() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(kSourceDir)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cpp") continue;
    if (entry.path().filename() == "metric_names.h") continue;
    files.push_back(entry.path());
  }
  EXPECT_GT(files.size(), 10u) << "source tree not found under " << kSourceDir;
  return files;
}

/// True when `text` holds `word` not followed by an identifier character
/// (kSvcFailed is not found in kSvcFailedFoo).
bool contains_word(const std::string& text, const std::string& word) {
  for (std::size_t at = text.find(word); at != std::string::npos;
       at = text.find(word, at + 1)) {
    const std::size_t next = at + word.size();
    if (next >= text.size() ||
        !(std::isalnum(static_cast<unsigned char>(text[next])) || text[next] == '_')) {
      return true;
    }
  }
  return false;
}

/// Parse metric_names.h: constant identifier -> metric name string. Matches
/// the `inline constexpr const char* kFoo = "a.b";` declarations (possibly
/// wrapped across lines), not the kBuiltinMetrics table entries.
std::map<std::string, std::string> declared_constants() {
  const std::string text = slurp(kNamesHeader);
  std::map<std::string, std::string> decls;
  const std::regex decl(
      R"(constexpr\s+const\s+char\s*\*\s*(k\w+)\s*=\s*"([^"]+)\")");
  for (std::sregex_iterator it(text.begin(), text.end(), decl), end;
       it != end; ++it) {
    const std::string constant = (*it)[1].str();
    EXPECT_EQ(decls.count(constant), 0u)
        << "constant declared twice: " << constant;
    decls[constant] = (*it)[2].str();
  }
  EXPECT_FALSE(decls.empty()) << "no declarations parsed from " << kNamesHeader;
  return decls;
}

TEST(MetricLint, NamesFollowConventionAndAreUnique) {
  // <subsystem>.<what>[_unit]: lowercase dot-separated segments of
  // [a-z0-9_], at least two segments, no leading/trailing separators.
  const std::regex convention(R"([a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+)");
  std::set<std::string> seen;
  for (const auto& [constant, name] : declared_constants()) {
    EXPECT_TRUE(std::regex_match(name, convention))
        << constant << " = \"" << name
        << "\" violates the <subsystem>.<what> convention";
    EXPECT_TRUE(seen.insert(name).second)
        << "metric name used by two constants: " << name;
  }
}

TEST(MetricLint, DeclarationsAndBuiltinTableAreABijection) {
  const auto decls = declared_constants();
  std::set<std::string> declared;
  for (const auto& [constant, name] : decls) declared.insert(name);

  std::set<std::string> registered;
  for (std::size_t i = 0; i < obs::names::kNumBuiltinMetrics; ++i) {
    EXPECT_TRUE(registered.insert(obs::names::kBuiltinMetrics[i].name).second)
        << "kBuiltinMetrics lists '" << obs::names::kBuiltinMetrics[i].name
        << "' twice";
  }
  for (const std::string& name : declared) {
    EXPECT_EQ(registered.count(name), 1u)
        << "declared metric '" << name
        << "' is missing from kBuiltinMetrics (won't be pre-registered)";
  }
  for (const std::string& name : registered) {
    EXPECT_EQ(declared.count(name), 1u)
        << "kBuiltinMetrics entry '" << name
        << "' has no named constant declaration";
  }
  EXPECT_EQ(declared.size(), obs::names::kNumBuiltinMetrics);
}

TEST(MetricLint, EveryConstantIsReferencedInSources) {
  const auto decls = declared_constants();
  std::set<std::string> unused;
  for (const auto& [constant, name] : decls) unused.insert(constant);
  for (const fs::path& file : source_files()) {
    if (unused.empty()) break;
    const std::string text = slurp(file);
    for (auto it = unused.begin(); it != unused.end();) {
      it = contains_word(text, *it) ? unused.erase(it) : ++it;
    }
  }
  EXPECT_TRUE(unused.empty())
      << "dead metric constants (declared but never used in src/): "
      << [&] {
           std::string all;
           for (const auto& c : unused) all += c + " ";
           return all;
         }();
}

TEST(MetricLint, ElasticityAndQuotaMetricsAreDeclared) {
  // The elastic-cluster / tenant-quota schema (docs/DISTRIBUTED.md
  // "Elasticity & churn", docs/SERVICE.md): renaming or dropping any of
  // these silently breaks dashboards scraping /metrics.
  std::set<std::string> names;
  for (const auto& [constant, name] : declared_constants()) {
    names.insert(name);
  }
  for (const char* required :
       {"dist.workers_departed", "cluster.steal.shards",
        "cluster.speculative.dispatched", "cluster.speculative.wins",
        "cluster.cache.hits", "cluster.cache.misses",
        "cluster.cache.evictions", "cluster.cache.entries",
        "service.rejected_quota"}) {
    EXPECT_EQ(names.count(required), 1u)
        << "expected metric '" << required << "' to be declared";
  }
}

TEST(MetricLint, CrashSafeCoordinationMetricsAreDeclared) {
  // The crash-safe coordination schema (docs/RESILIENCE.md "Crash-safe
  // coordination"): journal durability, resume replay, and drain behaviour
  // are monitored through these names.
  std::set<std::string> names;
  for (const auto& [constant, name] : declared_constants()) {
    names.insert(name);
  }
  for (const char* required :
       {"dist.workers_rejoined", "dist.journal.records", "dist.journal.bytes",
        "dist.journal.replayed_results", "dist.journal.dropped_bytes",
        "dist.drain.requests", "dist.drain.shards_abandoned"}) {
    EXPECT_EQ(names.count(required), 1u)
        << "expected metric '" << required << "' to be declared";
  }
}

TEST(MetricLint, SweepMetricsAreDeclared) {
  // The design-space-exploration sweep schema (docs/SWEEPS.md): lattice
  // fan-out progress, per-point latency, and Pareto output are monitored
  // through these names.
  std::set<std::string> names;
  for (const auto& [constant, name] : declared_constants()) {
    names.insert(name);
  }
  for (const char* required :
       {"sweep.requests", "sweep.points_total", "sweep.points_completed",
        "sweep.point_ns", "sweep.active", "sweep.pareto_size"}) {
    EXPECT_EQ(names.count(required), 1u)
        << "expected metric '" << required << "' to be declared";
  }
}

TEST(MetricLint, NoRawStringLiteralsAtInstrumentationSites) {
  // Every MLSIM_COUNTER_ADD / MLSIM_GAUGE_SET / MLSIM_HIST_RECORD call site
  // must name a metric via a constant; a quoted first argument bypasses the
  // schema and this lint's bijection checks.
  const std::regex raw(
      R"(MLSIM_(COUNTER_ADD|GAUGE_SET|HIST_RECORD)\s*\(\s*")");
  for (const fs::path& file : source_files()) {
    const std::string text = slurp(file);
    std::smatch m;
    EXPECT_FALSE(std::regex_search(text, m, raw))
        << file << " uses a raw string-literal metric name: " << m[0];
  }
}

/// The enumerators of obs::flight::Event, parsed from its declaration.
std::vector<std::string> flight_events() {
  const std::string text = slurp(kFlightHeader);
  std::smatch body;
  EXPECT_TRUE(std::regex_search(text, body, std::regex(R"(enum class Event[^{]*\{([^}]*)\})")))
      << "no Event enum in " << kFlightHeader;
  const std::string enumerators = body[1].str();
  std::vector<std::string> events;
  const std::regex name(R"((?:^|\n)\s*(k\w+))");
  for (std::sregex_iterator it(enumerators.begin(), enumerators.end(), name), end;
       it != end; ++it) {
    events.push_back((*it)[1].str());
  }
  EXPECT_FALSE(events.empty()) << "no enumerators parsed from " << kFlightHeader;
  return events;
}

TEST(MetricLint, EveryFlightEventIsStampedInSources) {
  // A declared event nothing stamps would only ever read as a gap in the
  // post-mortems.
  std::string sources;
  for (const fs::path& file : source_files()) {
    if (file.stem() != "flight_recorder") sources += slurp(file);
  }
  for (const std::string& event : flight_events()) {
    EXPECT_TRUE(contains_word(sources, "Event::" + event))
        << "flight event " << event << " is declared but never stamped in src/";
  }
}

TEST(MetricLint, OnlyTheServiceStampsFlightEvents) {
  // The ring is keyed by service request id; a stamp from anywhere else
  // (under a session or shard id) would splice into some request's
  // post-mortem.
  const std::regex call(R"(flight::record\s*\()");
  for (const fs::path& file : source_files()) {
    if (file.parent_path().filename() == "service") continue;
    const std::string text = slurp(file);
    EXPECT_FALSE(std::regex_search(text, call))
        << file << " stamps a flight event outside src/service/";
  }
}

}  // namespace
}  // namespace mlsim
