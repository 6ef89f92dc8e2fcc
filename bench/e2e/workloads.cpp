#include "workloads.hpp"

#include <bit>
#include <numeric>
#include <stdexcept>

#include "cloud/resilience.hpp"
#include "reliab/gray.hpp"

namespace e2e {

namespace cloud = arch21::cloud;
namespace des = arch21::des;

namespace {

// E26 baseline shape: faults off, empty policy.  The goodput window is
// the one addition, so the windowed-goodput conservation law applies.
ClusterConfig fanout_plain() {
  ClusterConfig c;
  c.leaves = 100;
  c.query_rate_hz = 50;
  c.background_rate_hz = 40;
  c.background_ms = 4;
  c.duration_s = 10;
  c.goodput_window_s = 1.0;
  return c;
}

// bench_overload's base: 20 leaves near the knee, 12 crash at 10 s for 4 s.
ClusterConfig e29_base() {
  ClusterConfig c;
  c.leaves = 20;
  c.query_rate_hz = 160;
  c.leaf_service_ms = 3.0;
  c.service_sigma = 0.35;
  c.background_rate_hz = 30;
  c.background_ms = 2.0;
  c.duration_s = 30;
  c.goodput_window_s = 1.0;
  c.faults.burst_leaves = 12;
  c.faults.burst_start_s = 10;
  c.faults.burst_duration_s = 4;
  return c;
}

/// The E29/E34 fail-stop protection stack: bounded deadline-drop
/// queues, admission (rate + in-flight cap), a retry budget, quorum
/// deadline and per-replica breakers -- what overload_scenarios rung 4
/// and every grayfail_scenarios rung build.
void protect(ClusterConfig& c, double timeout_ms, double budget_ratio,
             double quorum_fraction, std::size_t queue_capacity) {
  constexpr double kQuorumDeadlineMs = 100;
  c.policy.retry.timeout_ms = timeout_ms;
  c.policy.retry.max_retries = 2;
  c.policy.budget.enabled = true;
  c.policy.budget.ratio = budget_ratio;
  c.policy.quorum.quorum_fraction = quorum_fraction;
  c.policy.quorum.deadline_ms = kQuorumDeadlineMs;
  c.policy.admission.enabled = true;
  c.policy.admission.rate_qps = 1.1 * c.query_rate_hz;
  c.policy.admission.max_in_flight =
      static_cast<unsigned>(2.0 * c.query_rate_hz * kQuorumDeadlineMs /
                            1000.0) +
      1;
  c.policy.breaker.enabled = true;
  c.leaf_queue.capacity = queue_capacity;
  c.leaf_queue.discipline = des::QueueDiscipline::kDeadline;
  c.leaf_queue.sojourn_target = timeout_ms;
}

// E29 rung 4 "+ circuit breakers" with bench_overload's 25 ms knobs.
ClusterConfig overload_protected() {
  ClusterConfig c = e29_base();
  protect(c, /*timeout_ms=*/25, /*budget_ratio=*/0.1,
          /*quorum_fraction=*/0.5, /*queue_capacity=*/4);
  return c;
}

}  // namespace

// E34 rung 4 "+ eviction + probation": bench_grayfail's base (6 of 20
// leaves jittery at 10 s for 12 s) and ladder knobs.
ClusterConfig grayfail_adaptive() {
  ClusterConfig c;
  c.leaves = 20;
  c.query_rate_hz = 140;
  c.leaf_service_ms = 3.0;
  c.service_sigma = 0.35;
  c.background_rate_hz = 30;
  c.background_ms = 2.0;
  c.duration_s = 30;
  c.goodput_window_s = 1.0;
  c.gray.burst_leaves = 6;
  c.gray.burst_start_s = 10;
  c.gray.burst_duration_s = 12;
  c.gray.burst_mode = arch21::reliab::GrayMode::kJittery;
  c.gray.burst_severity = 1000.0;
  c.gray.spike_prob = 0.45;
  protect(c, /*timeout_ms=*/25, /*budget_ratio=*/0.05,
          /*quorum_fraction=*/0.95, /*queue_capacity=*/8);
  c.policy.gray.enabled = true;
  c.policy.gray.evict = true;
  c.policy.gray.evict_ms = 2500;
  return c;
}

// E33 "cap 60% governor" with bench_power's knobs: the E29 unprotected
// client (25 ms timeout, 8 unbudgeted retries, quorum deadline, unbounded
// FIFO leaves) under a cap of 60% of leaves x peak power.
ClusterConfig powercap_governor() {
  ClusterConfig c = e29_base();
  c.policy.retry.timeout_ms = 25;
  c.policy.retry.max_retries = 8;
  c.policy.budget.enabled = false;
  c.policy.quorum.quorum_fraction = 0.5;
  c.policy.quorum.deadline_ms = 100;
  c.leaf_queue = {};
  c.powercap.enabled = true;
  c.powercap.cap_fraction = 0.6;
  c.powercap.policy = cloud::PowercapPolicy::kGovernor;
  return c;
}

namespace {

// bench_pdes's cluster scenario on the parallel engine with one worker.
ClusterConfig pdes_cluster() {
  ClusterConfig c;
  c.leaves = 64;
  c.leaf_groups = 8;
  c.net_latency_ms = 1.0;
  c.query_rate_hz = 200;
  c.background_rate_hz = 30;
  c.duration_s = 5;
  c.goodput_window_s = 1;
  c.workers = 1;
  return c;
}

// E31 rung 3 "caps + hysteresis + breakers": bench_multiregion's base
// compressed to 24 s (region 1 dark at 8 s for 8 s, 8 s diurnal period).
MultiRegionConfig multiregion_failover() {
  MultiRegionConfig cfg;
  const char* names[] = {"us-east", "eu-west", "ap-south", "us-west"};
  for (unsigned r = 0; r < 4; ++r) {
    cloud::RegionConfig rc;
    rc.name = names[r];
    rc.servers = 7;
    rc.service_median_ms = 3.0;
    rc.service_sigma = 0.4;
    rc.p_straggler = 0.01;
    rc.straggler_scale_ms = 30.0;
    rc.straggler_alpha = 2.5;
    if (r == 2) {
      rc.be_utilization = 0.4;
      rc.qos_partitioned = true;
    }
    rc.queue.capacity = 64;
    rc.queue.discipline = des::QueueDiscipline::kDeadline;
    rc.queue.sojourn_target = 60;
    cfg.regions.push_back(rc);
  }
  cfg.wan.regions = 4;
  cfg.wan.base_latency_ms = 40;
  cfg.wan.intra_ms = 1.0;
  cfg.wan.jitter_frac = 0.1;
  cfg.traffic.session_rate_hz = 400;
  cfg.traffic.session_mean_queries = 8;
  cfg.traffic.diurnal_amplitude = 0.3;
  cfg.traffic.diurnal_period_s = 8;
  cfg.traffic.diurnal_peak_s = 10;
  cfg.duration_s = 24;
  cfg.goodput_window_s = 1.0;
  cfg.route = cloud::RoutePolicy::kLatencyWeighted;
  cfg.blackout_region = 1;
  cfg.blackout_start_s = 8;
  cfg.blackout_duration_s = 8;
  cloud::FailoverPolicy& fo = cfg.failover;
  fo.health_interval_s = 0.25;
  fo.probe_timeout_ms = 60;
  fo.unhealthy_after = 2;
  fo.healthy_after = 4;
  fo.admission_cap_frac = 0.68;
  fo.admission_burst = 32;
  fo.timeout_ms = 150;
  fo.max_retries = 2;
  fo.budget_enabled = true;
  fo.budget_ratio = 0.15;
  fo.budget_burst = 60;
  fo.breaker.enabled = true;
  fo.breaker.open_ms = 250;
  return cfg;
}

class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void hist(const arch21::LogHistogram& h) {
    u64(h.count());
    f64(h.min_seen());
    f64(h.max_seen());
    f64(h.mean());
    for (double q : {0.5, 0.9, 0.99, 0.999}) f64(h.quantile(q));
  }
  void series(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    for (std::uint64_t x : v) u64(x);
  }
  void series(const std::vector<double>& v) {
    u64(v.size());
    for (double x : v) f64(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

template <typename T>
std::uint64_t sum(const std::vector<T>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "fanout_plain", "overload_protected", "pdes_cluster",
      "multiregion_failover"};
  return names;
}

Config make_workload(const std::string& name, std::uint64_t seed) {
  Config cfg;
  if (name == "fanout_plain") {
    cfg = fanout_plain();
  } else if (name == "overload_protected") {
    cfg = overload_protected();
  } else if (name == "pdes_cluster") {
    cfg = pdes_cluster();
  } else if (name == "multiregion_failover") {
    cfg = multiregion_failover();
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  std::visit(
      [seed](auto& c) {
        c.seed = seed;
        c.validate();
      },
      cfg);
  return cfg;
}

ClusterResult simulate(const ClusterConfig& cfg) {
  return cloud::simulate_cluster(cfg);
}

MultiRegionResult simulate(const MultiRegionConfig& cfg) {
  return cloud::simulate_multiregion(cfg);
}

ClusterResult run_trials(const ClusterConfig& base, unsigned trials,
                         arch21::ThreadPool& pool) {
  ClusterConfig c = base;
  c.workers = 0;
  return cloud::run_cluster_trials(c, trials, &pool);
}

MultiRegionResult run_trials(const MultiRegionConfig& base, unsigned trials,
                             arch21::ThreadPool& pool) {
  return cloud::run_multiregion_trials(base, trials, &pool);
}

std::uint64_t offered(const ClusterResult& r) {
  return r.queries + r.shed_queries + r.power_shed_queries;
}

std::uint64_t offered(const MultiRegionResult& r) { return r.requests; }

std::uint64_t digest(const ClusterResult& r) {
  Fnv h;
  for (std::uint64_t v :
       {r.queries, r.ok_queries, r.degraded_queries, r.failed_queries,
        r.leaf_requests, r.retries, r.hedges, r.timeouts, r.lost_requests,
        r.budget_denials, r.leaf_failures, r.domain_failures, r.shed_queries,
        r.rejected_requests, r.expired_drops, r.breaker_open_transitions,
        r.breaker_short_circuits, r.breaker_probes, r.gray_episodes,
        r.gray_dropped_replies, r.gray_evictions, r.gray_probations,
        r.gray_zombies, r.gray_redirected_sends, r.power_shed_queries,
        r.power_gate_stalls, r.power_overruns, std::uint64_t{r.trials}}) {
    h.u64(v);
  }
  for (double v :
       {r.mean_leaf_utilization, r.hedge_fraction, r.breaker_open_ms,
        r.goodput_window_s, r.adaptive_deadline_ms, r.energy_j,
        r.peak_window_w, r.power_cap_w, r.power_window_s,
        r.retry_amplification, r.goodput_qps, r.availability_measured,
        r.availability_predicted, r.sum_result_quality,
        r.frac_over_leaf_p99}) {
    h.f64(v);
  }
  h.hist(r.query_ms);
  h.hist(r.leaf_ms);
  h.series(r.answered_per_window);
  h.series(r.energy_j_per_window);
  return h.value();
}

std::uint64_t digest(const MultiRegionResult& r) {
  Fnv h;
  for (std::uint64_t v :
       {r.requests, r.answered, r.failed, r.shed, r.attempts, r.retries,
        r.timeouts, r.budget_denials, r.lost_requests,
        r.breaker_open_transitions, r.breaker_short_circuits, r.link_failures,
        std::uint64_t{r.trials}}) {
    h.u64(v);
  }
  for (double v : {r.frac_over_service_p99, r.goodput_qps,
                   r.attempt_amplification, r.goodput_window_s}) {
    h.f64(v);
  }
  h.hist(r.request_ms);
  h.hist(r.service_ms);
  h.u64(r.regions.size());
  for (const auto& s : r.regions) {
    for (std::uint64_t v :
         {s.routed, s.capped, s.rejected, s.expired, s.completed, s.lost,
          s.probes, s.probe_failures, s.evictions, s.readmissions}) {
      h.u64(v);
    }
    h.f64(s.busy_ms);
    h.f64(s.utilization);
  }
  h.u64(r.classes.size());
  for (const auto& c : r.classes) {
    h.u64(c.answered);
    h.u64(c.slo_met);
  }
  h.series(r.answered_per_window);
  h.u64(r.region_answered_per_window.size());
  for (const auto& w : r.region_answered_per_window) h.series(w);
  return h.value();
}

const char* broken_invariant(const ClusterResult& r) {
  const std::uint64_t answered = r.ok_queries + r.degraded_queries;
  if (r.queries != answered + r.failed_queries) {
    return "queries == ok + degraded + failed";
  }
  if (r.goodput_window_s > 0 && sum(r.answered_per_window) != answered) {
    return "sum(answered_per_window) == ok + degraded";
  }
  if (r.power_cap_w > 0 && !(r.peak_window_w <= r.power_cap_w)) {
    return "peak_window_w <= power_cap_w";
  }
  return nullptr;
}

const char* broken_invariant(const MultiRegionResult& r) {
  if (r.requests != r.answered + r.failed + r.shed) {
    return "requests == answered + failed + shed";
  }
  if (r.goodput_window_s > 0 && sum(r.answered_per_window) != r.answered) {
    return "sum(answered_per_window) == answered";
  }
  return nullptr;
}

}  // namespace e2e
