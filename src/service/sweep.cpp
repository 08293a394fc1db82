#include "service/sweep.h"

#include <utility>

#include "common/check.h"
#include "common/wire.h"
#include "core/metrics.h"
#include "core/simulator.h"
#include "obs/metric_names.h"
#include "obs/obs.h"
#include "service/service.h"
#include "trace/workload.h"

namespace mlsim::service {

namespace {

/// "SWP1" — sweep-request envelope magic.
constexpr std::uint32_t kSweepMagic = 0x31505753u;

Priority priority_from_wire(std::uint8_t v) {
  check(v < kNumPriorities, "sweep request: bad priority value");
  return static_cast<Priority>(v);
}

/// A per-point deadline becomes a Request's nanosecond budget, so it must
/// be non-negative and fit in nanoseconds.
void check_deadline(std::chrono::milliseconds d) {
  check(d.count() >= 0 &&
            d <= std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::nanoseconds::max()),
        "sweep request: deadline of " + std::to_string(d.count()) +
            " ms is negative or beyond the clock's range");
}

}  // namespace

std::string SweepRequest::encode() const {
  wire::Writer w;
  w.str(spec.benchmark);
  w.pod(static_cast<std::uint64_t>(spec.instructions));
  w.pod(static_cast<std::uint32_t>(spec.axes.size()));
  for (const auto& ax : spec.axes) {
    w.str(ax.key);
    w.pod(static_cast<std::uint32_t>(ax.values.size()));
    for (const auto& v : ax.values) w.str(v);
  }
  w.pod(static_cast<std::uint64_t>(num_subtraces));
  w.pod(static_cast<std::uint64_t>(num_gpus));
  w.pod(static_cast<std::uint64_t>(context_length));
  w.pod(static_cast<std::uint8_t>(recovery));
  w.pod(seed);
  w.pod(static_cast<std::uint8_t>(priority));
  w.str(tenant);
  w.pod(static_cast<std::int64_t>(deadline.count()));
  return wire::seal(kSweepMagic, w.bytes());
}

SweepRequest SweepRequest::decode(std::string_view enveloped) {
  const std::string_view payload =
      wire::unseal(kSweepMagic, enveloped, "sweep request");
  wire::Reader r(payload, "sweep request");
  SweepRequest req;
  req.spec.benchmark = r.str();
  req.spec.instructions = static_cast<std::size_t>(r.pod<std::uint64_t>());
  const auto num_axes = r.pod<std::uint32_t>();
  for (std::uint32_t i = 0; i < num_axes; ++i) {
    sweep::SweepAxis ax;
    ax.key = r.str();
    const auto num_values = r.pod<std::uint32_t>();
    for (std::uint32_t j = 0; j < num_values; ++j) ax.values.push_back(r.str());
    req.spec.axes.push_back(std::move(ax));
  }
  req.num_subtraces = static_cast<std::size_t>(r.pod<std::uint64_t>());
  req.num_gpus = static_cast<std::size_t>(r.pod<std::uint64_t>());
  req.context_length = static_cast<std::size_t>(r.pod<std::uint64_t>());
  req.recovery = r.pod<std::uint8_t>() != 0;
  req.seed = r.pod<std::uint64_t>();
  req.priority = priority_from_wire(r.pod<std::uint8_t>());
  req.tenant = r.str();
  req.deadline = std::chrono::milliseconds(r.pod<std::int64_t>());
  r.finish();
  check_deadline(req.deadline);
  sweep::validate_spec(req.spec);
  return req;
}

SimulationService::SweepTicket SimulationService::submit_sweep(
    SweepRequest req) {
  // Everything wrong with the *sweep* is a submit-time error; only per-point
  // outcomes are deferred to the ticket.
  sweep::validate_spec(req.spec);
  trace::find_workload(req.spec.benchmark);
  check_deadline(req.deadline);
  check(req.num_subtraces > 0, "sweep request needs num_subtraces > 0");
  check(req.context_length > 0, "sweep request needs context_length > 0");

  auto promise = std::make_shared<std::promise<SweepOutcome>>();
  SweepTicket ticket;
  ticket.future = promise->get_future();
  const std::size_t total = req.spec.points();

  std::lock_guard lk(mu_);
  ticket.id = next_id_++;
  if (stopping_) {
    SweepOutcome out;
    out.points_total = total;
    out.failed = total;
    out.errors.push_back("service is shutting down");
    promise->set_value(std::move(out));
    return ticket;
  }
  ++sweeps_submitted_;
  ++sweeps_active_;
  sweep_points_total_ += total;
  MLSIM_COUNTER_ADD(obs::names::kSweepRequests, 1);
  MLSIM_COUNTER_ADD(obs::names::kSweepPointsTotal,
                    static_cast<std::int64_t>(total));
  MLSIM_GAUGE_SET(obs::names::kSweepActive,
                  static_cast<double>(sweeps_active_));
  sweep_threads_.emplace_back(
      [this, id = ticket.id, r = std::move(req), promise]() mutable {
        sweep_loop(id, std::move(r), promise);
      });
  return ticket;
}

void SimulationService::sweep_loop(
    std::uint64_t sweep_id, SweepRequest req,
    std::shared_ptr<std::promise<SweepOutcome>> promise) {
  SweepOutcome out;
  try {
    const std::vector<sweep::SweepPoint> points =
        sweep::expand_lattice(req.spec);
    out.points_total = points.size();

    // Wave size: never more points in flight than the admission queue (or
    // the tenant's quota) can hold, so a sweep cannot starve interactive
    // requests or reject its own tail.
    std::size_t wave = opts_.queue_capacity;
    if (opts_.tenant_quota > 0 && opts_.tenant_quota < wave) {
      wave = opts_.tenant_quota;
    }

    for (std::size_t base = 0; base < points.size(); base += wave) {
      const std::size_t end = std::min(base + wave, points.size());
      // Traces live until every future of the wave resolves (the service
      // never copies a request's trace).
      std::vector<trace::EncodedTrace> traces;
      traces.reserve(end - base);
      for (std::size_t i = base; i < end; ++i) {
        traces.push_back(core::labeled_trace(req.spec.benchmark,
                                             req.spec.instructions,
                                             points[i].machine, req.seed));
      }
      std::vector<Ticket> tickets;
      tickets.reserve(end - base);
      for (std::size_t i = base; i < end; ++i) {
        Request pr;
        pr.trace = &traces[i - base];
        pr.priority = req.priority;
        pr.tenant = req.tenant;
        pr.deadline = req.deadline;
        pr.engine = EngineKind::kParallel;
        pr.num_subtraces = req.num_subtraces;
        pr.num_gpus = req.num_gpus;
        pr.context_length = req.context_length;
        pr.warmup = req.recovery;
        pr.correction = req.recovery;
        tickets.push_back(submit(std::move(pr)));
      }
      for (std::size_t i = base; i < end; ++i) {
        Response rsp = tickets[i - base].future.get();
        if (rsp.ok()) {
          sweep::SweepPointResult pr;
          pr.point = points[i];
          pr.cpi = rsp.cpi;
          pr.total_cycles = rsp.total_cycles;
          pr.instructions = rsp.instructions;
          const trace::EncodedTrace& tr = traces[i - base];
          pr.truth_cpi =
              static_cast<double>(core::total_cycles_from_targets(tr)) /
              static_cast<double>(tr.size());
          out.report.points.push_back(std::move(pr));
          ++out.completed;
          MLSIM_COUNTER_ADD(obs::names::kSweepPointsCompleted, 1);
          std::lock_guard lk(mu_);
          ++sweep_points_done_;
        } else if (is_rejection(rsp.status)) {
          ++out.rejected;
          MLSIM_COUNTER_ADD(obs::names::kSweepPointsRejected, 1);
          out.errors.push_back(points[i].label() + ": " +
                               to_string(rsp.status) + " " + rsp.error);
        } else {
          ++out.failed;
          MLSIM_COUNTER_ADD(obs::names::kSweepPointsFailed, 1);
          out.errors.push_back(points[i].label() + ": " +
                               to_string(rsp.status) + " " + rsp.error);
        }
      }
    }

    sweep::rank_report(out.report, req.spec);
    MLSIM_GAUGE_SET(obs::names::kSweepParetoSize,
                    static_cast<double>(out.report.frontier.size()));
  } catch (...) {
    {
      std::lock_guard lk(mu_);
      --sweeps_active_;
      MLSIM_GAUGE_SET(obs::names::kSweepActive,
                      static_cast<double>(sweeps_active_));
    }
    promise->set_exception(std::current_exception());
    return;
  }
  {
    std::lock_guard lk(mu_);
    --sweeps_active_;
    ++sweeps_completed_;
    MLSIM_GAUGE_SET(obs::names::kSweepActive,
                    static_cast<double>(sweeps_active_));
  }
  (void)sweep_id;
  promise->set_value(std::move(out));
}

}  // namespace mlsim::service
