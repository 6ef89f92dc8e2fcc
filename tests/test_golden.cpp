// Golden digests: one full-field FNV-1a digest of a ClusterResult or
// MultiRegionResult per small seeded configuration, one configuration per
// cell of the client engine's matrix -- direct and message transports,
// the policy stack, every fault model, powercap, and the region flow --
// plus the multi-trial merge.  The digest covers every counter, every
// floating-point field by bit pattern, both histograms (count, invalid
// bin, min, max, mean, p50/p90/p99/p99.9), every windowed series, and
// the per-region and per-class stats, so a refactor that moves any bit
// of any result fails here by name.
//
// Recorded with GCC 12.2 and glibc 2.36 on x86-64.  The simulations call
// libm (exp, log, pow), so another libm or FP-contraction setting may
// legitimately move a digest; re-record them only together with such a
// toolchain change, never to absorb an engine change.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cloud/cluster.hpp"
#include "cloud/region.hpp"
#include "cloud/resilience.hpp"
#include "reliab/gray.hpp"
#include "util/histogram.hpp"
#include "util/thread_pool.hpp"

namespace arch21::cloud {
namespace {

class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void hist(const LogHistogram& h) {
    u64(h.count());
    u64(h.invalid());
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
  for (const RegionStats& s : r.regions) {
    for (std::uint64_t v :
         {s.routed, s.capped, s.rejected, s.expired, s.completed, s.lost,
          s.probes, s.probe_failures, s.evictions, s.readmissions}) {
      h.u64(v);
    }
    h.f64(s.busy_ms);
    h.f64(s.utilization);
  }
  h.u64(r.classes.size());
  for (const ClassStats& c : r.classes) {
    h.u64(c.answered);
    h.u64(c.slo_met);
  }
  h.series(r.answered_per_window);
  h.u64(r.region_answered_per_window.size());
  for (const auto& w : r.region_answered_per_window) h.series(w);
  return h.value();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

#define EXPECT_DIGEST(result, want) \
  EXPECT_EQ(hex(digest(result)), hex(want))

// ------------------------------------------------------------- configs

ClusterConfig plain_cluster() {
  ClusterConfig cfg;
  cfg.leaves = 12;
  cfg.query_rate_hz = 60;
  cfg.leaf_service_ms = 3;
  cfg.background_rate_hz = 20;
  cfg.background_ms = 2;
  cfg.duration_s = 3;
  cfg.seed = 2014;
  cfg.goodput_window_s = 0.5;
  return cfg;
}

/// Stochastic fault trace with rack domains under the client-side
/// mitigation stack: retries, a tight budget, hedges and a quorum.
ClusterConfig fault_trace_cluster() {
  ClusterConfig cfg = plain_cluster();
  cfg.seed = 31;
  cfg.faults.enabled = true;
  cfg.faults.leaves_per_domain = 4;
  cfg.faults.leaf = {.mtbf_hours = 4.0 / 3600.0, .mttr_hours = 0.3 / 3600.0};
  cfg.faults.domain = {.mtbf_hours = 8.0 / 3600.0,
                       .mttr_hours = 0.4 / 3600.0};
  cfg.policy.retry.timeout_ms = 20;
  cfg.policy.retry.max_retries = 3;
  cfg.policy.budget.enabled = true;
  cfg.policy.budget.ratio = 0.05;
  cfg.policy.budget.burst = 4;
  cfg.policy.hedge_after_ms = 12;
  cfg.policy.quorum = {.quorum_fraction = 0.8, .deadline_ms = 50};
  return cfg;
}

/// Deterministic crash burst against the server-edge protections:
/// bounded deadline queues, root admission and per-replica breakers.
ClusterConfig crash_burst_cluster() {
  ClusterConfig cfg = plain_cluster();
  cfg.seed = 47;
  cfg.query_rate_hz = 90;
  cfg.background_rate_hz = 120;
  cfg.background_ms = 3;
  cfg.faults.burst_leaves = 5;
  cfg.faults.burst_start_s = 1.0;
  cfg.faults.burst_duration_s = 0.8;
  cfg.leaf_queue.capacity = 4;
  cfg.leaf_queue.discipline = des::QueueDiscipline::kDeadline;
  cfg.leaf_queue.sojourn_target = 10;
  cfg.policy.retry.timeout_ms = 15;
  cfg.policy.retry.max_retries = 3;
  cfg.policy.quorum = {.quorum_fraction = 0.5, .deadline_ms = 60};
  cfg.policy.admission.enabled = true;
  cfg.policy.admission.rate_qps = 70;
  cfg.policy.admission.burst = 6;
  cfg.policy.admission.max_in_flight = 12;
  cfg.policy.breaker.enabled = true;
  cfg.policy.breaker.window = 8;
  cfg.policy.breaker.min_samples = 4;
  cfg.policy.breaker.open_ms = 40;
  return cfg;
}

/// Stochastic gray trace plus a jittery burst, against detection with
/// eviction and the adaptive deadline.  A crash burst lands on an eval
/// boundary, pinning the order of coincident fault and eval events.
ClusterConfig gray_cluster() {
  ClusterConfig cfg = plain_cluster();
  cfg.seed = 7;
  cfg.duration_s = 4;
  cfg.faults.burst_leaves = 2;
  cfg.faults.burst_start_s = 2.0;
  cfg.faults.burst_duration_s = 0.4;
  cfg.gray.enabled = true;
  cfg.gray.episode = {.mtbf_hours = 3.0 / 3600.0, .mttr_hours = 1.0 / 3600.0};
  cfg.gray.burst_leaves = 3;
  cfg.gray.burst_start_s = 1.0;
  cfg.gray.burst_duration_s = 1.5;
  cfg.gray.burst_mode = reliab::GrayMode::kJittery;
  cfg.gray.burst_severity = 40;
  cfg.policy.retry.timeout_ms = 30;
  cfg.policy.retry.max_retries = 2;
  cfg.policy.hedge_after_ms = 20;
  cfg.policy.quorum = {.quorum_fraction = 0.8, .deadline_ms = 100};
  cfg.policy.gray.enabled = true;
  cfg.policy.gray.eval_interval_ms = 200;
  return cfg;
}

/// The power-capped leaves; the crash burst lands on a window boundary.
ClusterConfig powercap_cluster(PowercapPolicy policy) {
  ClusterConfig cfg = plain_cluster();
  cfg.seed = 11;
  cfg.leaves = 6;
  cfg.query_rate_hz = 80;
  cfg.duration_s = 4;
  cfg.faults.burst_leaves = 2;
  cfg.faults.burst_start_s = 1.0;
  cfg.faults.burst_duration_s = 0.5;
  cfg.powercap.enabled = true;
  cfg.powercap.cap_fraction = 0.6;
  cfg.powercap.policy = policy;
  cfg.policy.retry.timeout_ms = 25;
  cfg.policy.retry.max_retries = 1;
  return cfg;
}

ClusterConfig pdes_plain_cluster() {
  ClusterConfig cfg = plain_cluster();
  cfg.net_latency_ms = 0.5;
  cfg.leaf_groups = 3;
  return cfg;
}

/// The message transport under the full policy and fault stack.
ClusterConfig pdes_stack_cluster() {
  ClusterConfig cfg = fault_trace_cluster();
  cfg.seed = 2015;
  cfg.net_latency_ms = 1.0;
  cfg.leaf_groups = 4;
  cfg.faults.burst_leaves = 3;
  cfg.faults.burst_start_s = 1.0;
  cfg.faults.burst_duration_s = 0.5;
  cfg.leaf_queue.capacity = 10;
  cfg.leaf_queue.discipline = des::QueueDiscipline::kDeadline;
  cfg.leaf_queue.sojourn_target = 25;
  cfg.policy.retry.timeout_ms = 25;
  cfg.policy.admission.enabled = true;
  cfg.policy.admission.rate_qps = 55;
  cfg.policy.admission.max_in_flight = 30;
  cfg.policy.breaker.enabled = true;
  return cfg;
}

/// The stack plus gray detection, with a fixed timeout loose enough
/// that the adaptive deadline tracks the reply p99 below it: every reply
/// the detector scores then reaches the results.
ClusterConfig pdes_gray_cluster() {
  ClusterConfig cfg = pdes_stack_cluster();
  cfg.policy.retry.timeout_ms = 60;
  cfg.policy.gray.enabled = true;
  cfg.policy.gray.eval_interval_ms = 200;
  return cfg;
}

MultiRegionConfig region_base() {
  MultiRegionConfig cfg;
  cfg.regions.assign(3, RegionConfig{});
  for (unsigned r = 0; r < 3; ++r) {
    cfg.regions[r].name = "r" + std::to_string(r);
    cfg.regions[r].servers = 4;
    cfg.regions[r].service_median_ms = 2.0;
    cfg.regions[r].service_sigma = 0.3;
    cfg.regions[r].p_straggler = 0.005;
    cfg.regions[r].queue.capacity = 24;
    cfg.regions[r].queue.discipline = des::QueueDiscipline::kDeadline;
    cfg.regions[r].queue.sojourn_target = 40;
  }
  cfg.wan.regions = 3;
  cfg.wan.base_latency_ms = 20;
  cfg.traffic.session_rate_hz = 150;
  cfg.traffic.diurnal_period_s = 6;
  cfg.traffic.diurnal_peak_s = 3;
  cfg.duration_s = 6;
  cfg.goodput_window_s = 0.5;
  cfg.seed = 99;
  return cfg;
}

/// Blackout against per-region caps, the retry budget and breakers.
MultiRegionConfig region_blackout() {
  MultiRegionConfig cfg = region_base();
  cfg.blackout_region = 1;
  cfg.blackout_start_s = 2;
  cfg.blackout_duration_s = 2;
  cfg.failover.admission_cap_frac = 0.6;
  cfg.failover.admission_burst = 8;
  cfg.failover.healthy_after = 3;
  cfg.failover.timeout_ms = 80;
  cfg.failover.budget_enabled = true;
  cfg.failover.budget_ratio = 0.05;
  cfg.failover.budget_burst = 6;
  cfg.failover.breaker.enabled = true;
  cfg.failover.breaker.min_samples = 6;
  cfg.failover.breaker.open_ms = 150;
  return cfg;
}

MultiRegionConfig region_grayout() {
  MultiRegionConfig cfg = region_base();
  cfg.seed = 5;
  cfg.route = RoutePolicy::kCapacityAware;
  cfg.grayout_region = 2;
  cfg.grayout_start_s = 2;
  cfg.grayout_duration_s = 2;
  cfg.grayout_slow_factor = 6;
  cfg.failover.timeout_ms = 60;
  return cfg;
}

// ---------------------------------------------------------------- cells

TEST(GoldenCluster, SerialPlain) {
  EXPECT_DIGEST(simulate_cluster(plain_cluster()), 0xda9cbe685d701e49ULL);
}

TEST(GoldenCluster, SerialFaultTraceRetryBudgetHedgeQuorum) {
  EXPECT_DIGEST(simulate_cluster(fault_trace_cluster()),
                0x58635a177fd3b71dULL);
}

TEST(GoldenCluster, SerialCrashBurstQueueAdmissionBreakers) {
  EXPECT_DIGEST(simulate_cluster(crash_burst_cluster()),
                0xc344a39724729b6bULL);
}

TEST(GoldenCluster, SerialGrayTraceJitteryBurstDetection) {
  EXPECT_DIGEST(simulate_cluster(gray_cluster()), 0xb2ef9e3ff4589cdaULL);
}

TEST(GoldenCluster, SerialPowercapGovernor) {
  EXPECT_DIGEST(simulate_cluster(powercap_cluster(PowercapPolicy::kGovernor)),
                0xd28934ee63c3d3b3ULL);
}

TEST(GoldenCluster, SerialPowercapPace) {
  EXPECT_DIGEST(simulate_cluster(powercap_cluster(PowercapPolicy::kPace)),
                0x7a9c853387fa081bULL);
}

TEST(GoldenCluster, PdesLoopbackPlain) {
  EXPECT_DIGEST(simulate_cluster(pdes_plain_cluster()),
                0x5c8ada5fc967a2a9ULL);
}

TEST(GoldenCluster, PdesPolicyFaultStack) {
  EXPECT_DIGEST(simulate_cluster(pdes_stack_cluster()),
                0x2f705d5929695e2fULL);
}

TEST(GoldenCluster, PdesStackGrayDetection) {
  EXPECT_DIGEST(simulate_cluster(pdes_gray_cluster()),
                0x1cc2107f08246f60ULL);
}

TEST(GoldenRegion, BlackoutCapsBudgetBreakers) {
  EXPECT_DIGEST(simulate_multiregion(region_blackout()),
                0xb5c05cc6c2361251ULL);
}

TEST(GoldenRegion, GrayoutCapacityAware) {
  EXPECT_DIGEST(simulate_multiregion(region_grayout()),
                0xfc005ddb126713c8ULL);
}

TEST(GoldenTrials, ThreeTrialMerge) {
  ThreadPool pool(2);
  EXPECT_DIGEST(run_cluster_trials(crash_burst_cluster(), 3, &pool),
                0xa1bd41ca981a96e8ULL);
  EXPECT_DIGEST(run_multiregion_trials(region_blackout(), 3, &pool),
                0xd771d4019e56e79dULL);
}

}  // namespace
}  // namespace arch21::cloud
