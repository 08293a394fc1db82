#include "dist/protocol.h"

#include <algorithm>

#include "common/check.h"
#include "trace/encoder.h"

namespace mlsim::dist {

namespace {

using wire::Reader;
using wire::Writer;

/// Wire sizes that bound the element counts a decoder may trust: a span is
/// at least its name's length word, ts, dur, depth and tid; a rollup delta
/// is its id and delta.
constexpr std::size_t kMinSpanBytes = 8 + 8 + 8 + 4 + 4;
constexpr std::size_t kRollupBytes = 4 + 8;

void put_type(Writer& w, MsgType t) {
  w.pod(static_cast<std::uint32_t>(t));
}

/// Skip-and-verify the leading type word.
void expect_type(Reader& r, MsgType want, const std::string& context) {
  const auto got = r.pod<std::uint32_t>();
  check(got == static_cast<std::uint32_t>(want),
        "unexpected message type " + std::to_string(got) + " from " + context);
}

}  // namespace

void put_run_config(Writer& w, const RunConfig& c) {
  w.pod(c.num_subtraces);
  w.pod(c.num_gpus);
  w.pod(c.context_length);
  w.pod(c.warmup);
  w.pod(c.post_error_correction);
  w.pod(c.correction_limit);
  w.pod(c.record_predictions);
  w.pod(c.record_context_counts);
  w.pod(c.anomaly_latency_limit);
  w.pod(c.max_retries_per_partition);
  w.pod(c.retry_backoff_us);
  w.pod(c.faults_enabled);
  w.pod(c.fault_seed);
  w.pod(c.device_kill_rate);
  w.pod(c.straggler_rate);
  w.pod(c.straggler_slowdown);
  w.pod(c.output_corrupt_rate);
  w.pod(c.worker_kill_rate);
}

RunConfig get_run_config(Reader& r) {
  RunConfig c;
  c.num_subtraces = r.pod<std::uint64_t>();
  c.num_gpus = r.pod<std::uint64_t>();
  c.context_length = r.pod<std::uint64_t>();
  c.warmup = r.pod<std::uint64_t>();
  c.post_error_correction = r.pod<std::uint8_t>();
  c.correction_limit = r.pod<std::uint64_t>();
  c.record_predictions = r.pod<std::uint8_t>();
  c.record_context_counts = r.pod<std::uint8_t>();
  c.anomaly_latency_limit = r.pod<std::uint32_t>();
  c.max_retries_per_partition = r.pod<std::uint64_t>();
  c.retry_backoff_us = r.pod<double>();
  c.faults_enabled = r.pod<std::uint8_t>();
  c.fault_seed = r.pod<std::uint64_t>();
  c.device_kill_rate = r.pod<double>();
  c.straggler_rate = r.pod<double>();
  c.straggler_slowdown = r.pod<double>();
  c.output_corrupt_rate = r.pod<double>();
  c.worker_kill_rate = r.pod<double>();
  return c;
}

RunConfig RunConfig::from_options(const core::ParallelSimOptions& o) {
  RunConfig c;
  c.num_subtraces = o.num_subtraces;
  c.num_gpus = o.num_gpus;
  c.context_length = o.context_length;
  c.warmup = o.warmup;
  c.post_error_correction = o.post_error_correction ? 1 : 0;
  c.correction_limit = o.correction_limit;
  c.record_predictions = o.record_predictions ? 1 : 0;
  c.record_context_counts = o.record_context_counts ? 1 : 0;
  c.anomaly_latency_limit = o.anomaly_latency_limit;
  c.max_retries_per_partition = o.max_retries_per_partition;
  c.retry_backoff_us = o.retry_backoff_us;
  if (o.faults != nullptr && o.faults->enabled()) {
    const device::FaultOptions& f = o.faults->options();
    c.faults_enabled = 1;
    c.fault_seed = f.seed;
    c.device_kill_rate = f.device_kill_rate;
    c.straggler_rate = f.straggler_rate;
    c.straggler_slowdown = f.straggler_slowdown;
    c.output_corrupt_rate = f.output_corrupt_rate;
    c.worker_kill_rate = f.worker_kill_rate;
  }
  return c;
}

core::ParallelSimOptions RunConfig::to_options(
    const device::FaultInjector* faults) const {
  core::ParallelSimOptions o;
  o.num_subtraces = num_subtraces;
  o.num_gpus = num_gpus;
  o.context_length = context_length;
  o.warmup = warmup;
  o.post_error_correction = post_error_correction != 0;
  o.correction_limit = correction_limit;
  o.record_predictions = record_predictions != 0;
  o.record_context_counts = record_context_counts != 0;
  o.anomaly_latency_limit = anomaly_latency_limit;
  o.max_retries_per_partition = max_retries_per_partition;
  o.retry_backoff_us = retry_backoff_us;
  o.faults = faults;
  return o;
}

device::FaultOptions RunConfig::fault_options() const {
  device::FaultOptions f;
  f.seed = fault_seed;
  f.device_kill_rate = device_kill_rate;
  f.straggler_rate = straggler_rate;
  f.straggler_slowdown = straggler_slowdown;
  f.output_corrupt_rate = output_corrupt_rate;
  f.worker_kill_rate = worker_kill_rate;
  return f;
}

MsgType peek_type(std::string_view payload, const std::string& context) {
  Reader r(payload, context);
  const auto t = r.pod<std::uint32_t>();
  check(t >= static_cast<std::uint32_t>(MsgType::kHello) &&
            t <= static_cast<std::uint32_t>(MsgType::kRejoin),
        "unknown message type " + std::to_string(t) + " from " + context);
  return static_cast<MsgType>(t);
}

std::string encode_hello(std::uint32_t version) {
  Writer w;
  put_type(w, MsgType::kHello);
  w.pod(version);
  return w.take();
}

std::string encode_welcome(std::uint64_t session, std::uint64_t fingerprint,
                           const RunConfig& cfg,
                           const trace::EncodedTrace& trace,
                           std::uint64_t token) {
  Writer w;
  put_type(w, MsgType::kWelcome);
  w.pod(session);
  w.pod(fingerprint);
  put_run_config(w, cfg);
  w.str(trace.benchmark());
  w.pod(static_cast<std::uint64_t>(trace.size()));
  w.pod(static_cast<std::uint8_t>(trace.labeled() ? 1 : 0));
  // The rest is two length-prefixed arrays and the token: reserve the final
  // size so the trace is copied into the payload once.
  const std::size_t features = trace.raw_features().size();
  const std::size_t targets = trace.raw_targets().size();
  w.reserve(w.bytes().size() + 3 * sizeof(std::uint64_t) +
            features * sizeof(std::int32_t) + targets * sizeof(std::uint32_t));
  w.vec(trace.raw_features());
  w.vec(trace.raw_targets());
  w.pod(token);
  return w.take();
}

std::string encode_rejoin(const RejoinMsg& m) {
  Writer w;
  put_type(w, MsgType::kRejoin);
  w.pod(m.version);
  w.pod(m.token);
  w.pod(m.session);
  w.pod(m.shard);
  return w.take();
}

std::string encode_reject(const std::string& reason) {
  Writer w;
  put_type(w, MsgType::kReject);
  w.str(reason);
  return w.take();
}

std::string encode_assign(const AssignMsg& m) {
  Writer w;
  put_type(w, MsgType::kAssign);
  w.pod(m.session);
  w.pod(m.shard);
  w.pod(m.part_lo);
  w.pod(m.part_hi);
  w.pod(m.attempt);
  w.pod(m.trace_id);
  w.pod(m.parent_span);
  return w.take();
}

std::string encode_result(const ResultHeader& h, const core::ShardOutcome& o,
                          std::uint64_t trace_id,
                          const std::vector<obs::SpanRecord>& spans) {
  Writer w;
  put_type(w, MsgType::kResult);
  w.pod(h.session);
  w.pod(h.shard);
  w.pod(h.attempt);
  core::put_outcome(w, o);
  w.pod(trace_id);
  w.pod(static_cast<std::uint64_t>(spans.size()));
  for (const obs::SpanRecord& s : spans) {
    w.str(s.name);
    w.pod(s.ts_ns);
    w.pod(s.dur_ns);
    w.pod(s.depth);
    w.pod(s.tid);
  }
  return w.take();
}

std::string encode_heartbeat(const HeartbeatMsg& m) {
  Writer w;
  put_type(w, MsgType::kHeartbeat);
  w.pod(m.session);
  w.pod(m.shard);
  w.pod(m.busy_ratio);
  w.pod(static_cast<std::uint32_t>(m.rollups.size()));
  for (const RollupDelta& d : m.rollups) {
    w.pod(d.id);
    w.pod(d.delta);
  }
  return w.take();
}

std::string encode_shutdown() {
  Writer w;
  put_type(w, MsgType::kShutdown);
  return w.take();
}

std::string encode_worker_error(const WorkerErrorMsg& m) {
  Writer w;
  put_type(w, MsgType::kWorkerError);
  w.pod(m.session);
  w.pod(m.shard);
  w.pod(m.kind);
  w.str(m.what);
  return w.take();
}

std::string encode_goodbye(const GoodbyeMsg& m) {
  Writer w;
  put_type(w, MsgType::kGoodbye);
  w.pod(m.session);
  w.pod(m.shard);
  return w.take();
}

std::uint32_t decode_hello(std::string_view payload,
                           const std::string& context) {
  Reader r(payload, context);
  expect_type(r, MsgType::kHello, context);
  const auto v = r.pod<std::uint32_t>();
  r.finish();
  return v;
}

WelcomeDecoded decode_welcome(std::string_view payload,
                              const std::string& context) {
  Reader r(payload, context);
  expect_type(r, MsgType::kWelcome, context);
  WelcomeDecoded d;
  d.session = r.pod<std::uint64_t>();
  d.fingerprint = r.pod<std::uint64_t>();
  d.config = get_run_config(r);
  std::string benchmark = r.str();
  // Each instruction ships at least its feature row.
  const auto n = r.count(trace::kNumFeatures * sizeof(std::int32_t));
  const auto labeled = r.pod<std::uint8_t>();
  auto features = r.vec<std::int32_t>();
  auto targets = r.vec<std::uint32_t>();
  d.token = r.pod<std::uint64_t>();
  r.finish();
  check(features.size() == n * trace::kNumFeatures,
        "welcome trace feature matrix shape mismatch from " + context);
  // An unlabeled trace carries no targets, whatever the array holds. The
  // constructor checks the target shape and derives labeled() from them.
  if (labeled == 0) std::fill(targets.begin(), targets.end(), 0u);
  d.trace = trace::EncodedTrace(std::move(benchmark), std::move(features),
                                std::move(targets));
  return d;
}

std::string decode_reject(std::string_view payload,
                          const std::string& context) {
  Reader r(payload, context);
  expect_type(r, MsgType::kReject, context);
  std::string reason = r.str();
  r.finish();
  return reason;
}

AssignMsg decode_assign(std::string_view payload, const std::string& context) {
  Reader r(payload, context);
  expect_type(r, MsgType::kAssign, context);
  AssignMsg m;
  m.session = r.pod<std::uint64_t>();
  m.shard = r.pod<std::uint64_t>();
  m.part_lo = r.pod<std::uint64_t>();
  m.part_hi = r.pod<std::uint64_t>();
  m.attempt = r.pod<std::uint32_t>();
  m.trace_id = r.pod<std::uint64_t>();
  m.parent_span = r.pod<std::uint64_t>();
  r.finish();
  return m;
}

ResultDecoded decode_result(std::string_view payload,
                            const std::string& context) {
  Reader r(payload, context);
  expect_type(r, MsgType::kResult, context);
  ResultDecoded d;
  d.header.session = r.pod<std::uint64_t>();
  d.header.shard = r.pod<std::uint64_t>();
  d.header.attempt = r.pod<std::uint32_t>();
  d.outcome = core::get_outcome(r);
  d.trace_id = r.pod<std::uint64_t>();
  const auto n = r.count(kMinSpanBytes);
  d.spans.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    obs::SpanRecord s;
    s.name = r.str();
    s.ts_ns = r.pod<std::uint64_t>();
    s.dur_ns = r.pod<std::uint64_t>();
    s.depth = r.pod<std::uint32_t>();
    s.tid = r.pod<std::uint32_t>();
    d.spans.push_back(std::move(s));
  }
  r.finish();
  return d;
}

HeartbeatMsg decode_heartbeat(std::string_view payload,
                              const std::string& context) {
  Reader r(payload, context);
  expect_type(r, MsgType::kHeartbeat, context);
  HeartbeatMsg m;
  m.session = r.pod<std::uint64_t>();
  m.shard = r.pod<std::uint64_t>();
  m.busy_ratio = r.pod<double>();
  const auto n = r.count<std::uint32_t>(kRollupBytes);
  m.rollups.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    RollupDelta d;
    d.id = r.pod<std::uint32_t>();
    d.delta = r.pod<std::uint64_t>();
    m.rollups.push_back(d);
  }
  r.finish();
  return m;
}

void decode_shutdown(std::string_view payload, const std::string& context) {
  Reader r(payload, context);
  expect_type(r, MsgType::kShutdown, context);
  r.finish();
}

WorkerErrorMsg decode_worker_error(std::string_view payload,
                                   const std::string& context) {
  Reader r(payload, context);
  expect_type(r, MsgType::kWorkerError, context);
  WorkerErrorMsg m;
  m.session = r.pod<std::uint64_t>();
  m.shard = r.pod<std::uint64_t>();
  m.kind = r.pod<std::uint32_t>();
  m.what = r.str();
  r.finish();
  return m;
}

GoodbyeMsg decode_goodbye(std::string_view payload,
                          const std::string& context) {
  Reader r(payload, context);
  expect_type(r, MsgType::kGoodbye, context);
  GoodbyeMsg m;
  m.session = r.pod<std::uint64_t>();
  m.shard = r.pod<std::uint64_t>();
  r.finish();
  return m;
}

RejoinMsg decode_rejoin(std::string_view payload, const std::string& context) {
  Reader r(payload, context);
  expect_type(r, MsgType::kRejoin, context);
  RejoinMsg m;
  m.version = r.pod<std::uint32_t>();
  m.token = r.pod<std::uint64_t>();
  m.session = r.pod<std::uint64_t>();
  m.shard = r.pod<std::uint64_t>();
  r.finish();
  return m;
}

}  // namespace mlsim::dist
