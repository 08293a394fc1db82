#include "sweep/lattice.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "common/check.h"

namespace mlsim::sweep {

namespace {

/// Strict unsigned decimal parse for axis values; CheckError (not exit), so
/// the CLI can report a bad `--axis`/`--set` or spec-file value as a usage
/// error before any work runs.
std::uint64_t parse_axis_u64(const std::string& key, const std::string& text) {
  check(!text.empty(), "axis " + key + ": empty value");
  for (const char c : text) {
    check(c >= '0' && c <= '9', "axis " + key + ": '" + text +
                                    "' is not a non-negative integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  check(errno != ERANGE && end == text.c_str() + text.size(),
        "axis " + key + ": '" + text + "' overflows a 64-bit integer");
  return v;
}

std::uint32_t parse_u32_positive(const std::string& key,
                                 const std::string& text) {
  const std::uint64_t v = parse_axis_u64(key, text);
  check(v >= 1 && v <= std::numeric_limits<std::uint32_t>::max(),
        "axis " + key + ": '" + text + "' must be in [1, 2^32)");
  return static_cast<std::uint32_t>(v);
}

bool parse_on_off(const std::string& key, const std::string& text) {
  if (text == "on" || text == "1" || text == "true") return true;
  if (text == "off" || text == "0" || text == "false") return false;
  throw CheckError("axis " + key + ": '" + text + "' is not on|off");
}

uarch::BranchPredictorKind parse_bp_kind(const std::string& key,
                                         const std::string& text) {
  if (text == "bimode") return uarch::BranchPredictorKind::kBiMode;
  if (text == "gshare") return uarch::BranchPredictorKind::kGshare;
  if (text == "local") return uarch::BranchPredictorKind::kLocal;
  if (text == "bimodal") return uarch::BranchPredictorKind::kBimodal;
  throw CheckError("axis " + key + ": '" + text +
                   "' is not bimode|gshare|local|bimodal");
}

uarch::CacheConfig* cache_of(uarch::MachineConfig& m,
                             const std::string& prefix) {
  if (prefix == "l1i") return &m.l1i;
  if (prefix == "l1d") return &m.l1d;
  if (prefix == "l2") return &m.l2;
  return nullptr;
}

/// Cache-axis suffixes, shared by l1i./l1d./l2. keys.
bool apply_cache_axis(uarch::CacheConfig& c, const std::string& key,
                      const std::string& suffix, const std::string& value) {
  if (suffix == "size_kb") {
    const std::uint32_t kb = parse_u32_positive(key, value);
    check(kb <= (std::numeric_limits<std::uint32_t>::max() / 1024),
          "axis " + key + ": '" + value + "' KB overflows the size field");
    c.size_bytes = kb * 1024;
    return true;
  }
  if (suffix == "assoc") {
    c.assoc = parse_u32_positive(key, value);
    return true;
  }
  if (suffix == "line_bytes") {
    const std::uint32_t b = parse_u32_positive(key, value);
    check((b & (b - 1)) == 0,
          "axis " + key + ": '" + value + "' must be a power of two");
    c.line_bytes = b;
    return true;
  }
  if (suffix == "mshrs") {
    c.mshrs = parse_u32_positive(key, value);
    return true;
  }
  if (suffix == "latency") {
    c.latency = parse_u32_positive(key, value);
    return true;
  }
  if (suffix == "replacement") {
    c.replacement = uarch::replacement_policy_from_string(value);
    return true;
  }
  if (suffix == "prefetch") {
    c.next_line_prefetch = parse_on_off(key, value);
    return true;
  }
  return false;
}

}  // namespace

void apply_axis(uarch::MachineConfig& m, const std::string& key,
                const std::string& value) {
  const auto dot = key.find('.');
  if (dot != std::string::npos) {
    const std::string prefix = key.substr(0, dot);
    const std::string suffix = key.substr(dot + 1);
    if (uarch::CacheConfig* c = cache_of(m, prefix)) {
      if (apply_cache_axis(*c, key, suffix, value)) return;
    } else if (prefix == "tlb") {
      if (suffix == "l1_entries") {
        m.tlb.l1_entries = parse_u32_positive(key, value);
        return;
      }
      if (suffix == "l2_entries") {
        m.tlb.l2_entries = parse_u32_positive(key, value);
        return;
      }
    } else if (prefix == "bp") {
      if (suffix == "kind") {
        m.bp.kind = parse_bp_kind(key, value);
        return;
      }
      if (suffix == "history_bits") {
        const std::uint32_t bits = parse_u32_positive(key, value);
        check(bits <= 24, "axis " + key + ": '" + value +
                              "' history bits must be in [1, 24]");
        m.bp.history_bits = bits;
        return;
      }
      if (suffix == "btb_entries") {
        m.bp.btb_entries = parse_u32_positive(key, value);
        return;
      }
      if (suffix == "mispredict_penalty") {
        m.bp.mispredict_penalty = parse_u32_positive(key, value);
        return;
      }
    } else if (prefix == "core") {
      if (suffix == "fetch_width") {
        m.core.fetch_width = parse_u32_positive(key, value);
        return;
      }
      if (suffix == "issue_width") {
        m.core.issue_width = parse_u32_positive(key, value);
        return;
      }
      if (suffix == "commit_width") {
        m.core.commit_width = parse_u32_positive(key, value);
        return;
      }
      if (suffix == "iq_entries") {
        m.core.iq_entries = parse_u32_positive(key, value);
        return;
      }
      if (suffix == "rob_entries") {
        m.core.rob_entries = parse_u32_positive(key, value);
        return;
      }
      if (suffix == "lq_entries") {
        m.core.lq_entries = parse_u32_positive(key, value);
        return;
      }
      if (suffix == "sq_entries") {
        m.core.sq_entries = parse_u32_positive(key, value);
        return;
      }
    }
  } else if (key == "memory_latency") {
    m.memory_latency = parse_u32_positive(key, value);
    return;
  }
  throw CheckError("unknown sweep axis '" + key +
                   "' (see docs/SWEEPS.md for the axis list)");
}

std::size_t SweepSpec::points() const {
  std::size_t n = 1;
  for (const auto& ax : axes) n *= ax.values.size();
  return n;
}

std::string SweepPoint::label() const {
  std::string s;
  for (const auto& [key, value] : settings) {
    if (!s.empty()) s += ' ';
    s += key + "=" + value;
  }
  return s;
}

void validate_spec(const SweepSpec& spec) {
  check(!spec.benchmark.empty(), "sweep spec needs a benchmark");
  check(spec.instructions > 0, "sweep spec needs instructions > 0");
  std::set<std::string> seen;
  uarch::MachineConfig probe;
  // The lattice must fit one vector of points, so points() cannot wrap.
  const std::size_t max_points = std::vector<SweepPoint>().max_size();
  std::size_t points = 1;
  for (const auto& ax : spec.axes) {
    check(seen.insert(ax.key).second,
          "duplicate sweep axis '" + ax.key + "'");
    check(!ax.values.empty(), "sweep axis '" + ax.key + "' has no values");
    check(points <= max_points / ax.values.size(),
          "sweep lattice too large: more than " + std::to_string(max_points) +
              " points at axis '" + ax.key + "'");
    points *= ax.values.size();
    for (const auto& v : ax.values) apply_axis(probe, ax.key, v);
  }
}

std::vector<SweepPoint> expand_lattice(const SweepSpec& spec,
                                       const uarch::MachineConfig& base) {
  validate_spec(spec);
  const std::size_t total = spec.points();
  std::vector<SweepPoint> points;
  points.reserve(total);
  for (std::size_t idx = 0; idx < total; ++idx) {
    SweepPoint pt;
    pt.index = idx;
    pt.machine = base;
    // Row-major decode: the last axis varies fastest.
    std::size_t rem = idx;
    std::size_t stride = total;
    for (const auto& ax : spec.axes) {
      stride /= ax.values.size();
      const std::size_t pick = rem / stride;
      rem %= stride;
      const std::string& value = ax.values[pick];
      apply_axis(pt.machine, ax.key, value);
      pt.settings.emplace_back(ax.key, value);
    }
    points.push_back(std::move(pt));
  }
  return points;
}

SweepAxis parse_axis(std::string key, const std::string& values,
                     const std::string& where) {
  SweepAxis ax;
  ax.key = std::move(key);
  std::size_t start = 0;
  while (start <= values.size()) {
    const auto comma = values.find(',', start);
    const std::string v =
        values.substr(start, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - start);
    check(!v.empty(), where + ": axis " + ax.key + " has an empty value");
    ax.values.push_back(v);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return ax;
}

SweepSpec load_spec_text(const std::filesystem::path& path) {
  std::ifstream is(path);
  if (!is.is_open()) {
    throw IoError("cannot open sweep spec " + path.string());
  }
  SweepSpec spec;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    // Strip comments and surrounding whitespace.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) continue;  // blank
    const std::string where =
        path.string() + ":" + std::to_string(lineno);
    if (word == "benchmark") {
      check(static_cast<bool>(ls >> spec.benchmark),
            where + ": 'benchmark' needs a workload abbreviation");
    } else if (word == "instructions") {
      std::string n;
      check(static_cast<bool>(ls >> n),
            where + ": 'instructions' needs a count");
      spec.instructions = static_cast<std::size_t>(parse_axis_u64("instructions", n));
    } else if (word == "axis") {
      std::string key, values;
      check(static_cast<bool>(ls >> key >> values),
            where + ": 'axis' needs a key and a comma-separated value list");
      spec.axes.push_back(parse_axis(std::move(key), values, where));
    } else {
      throw CheckError(where + ": unknown directive '" + word +
                       "' (expected benchmark|instructions|axis)");
    }
    std::string trailing;
    check(!(ls >> trailing), where + ": trailing tokens after directive");
  }
  validate_spec(spec);
  return spec;
}

}  // namespace mlsim::sweep
