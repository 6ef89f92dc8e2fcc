// Determinism contract of the conservative PDES layer, pinned
// differentially against the serial kernel at every level:
//   * Simulator::schedule_n (the window-commit primitive) against
//     one-at-a-time scheduling and the reference heap;
//   * a generic multi-LP mesh on ParallelEngine at workers 1/2/4/8
//     against LoopbackEngine (one unchanged serial Simulator);
//   * the LP-sharded cluster scenario: whole ClusterResults bit-identical
//     (every field, histograms included) across worker counts, with and
//     without the full policy/fault stack and gray detection;
//   * lookahead/partition/config validation and cross-LP cancellation
//     across a window boundary.
// The same binary runs under TSan in scripts/tier1.sh, so the barrier
// discipline (not just the results) is checked.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "cloud/cluster.hpp"
#include "cloud/resilience.hpp"
#include "des/partition.hpp"
#include "des/pdes.hpp"
#include "des/pdes_workload.hpp"
#include "des/reference_heap.hpp"
#include "des/simulator.hpp"
#include "des/workload.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace arch21;
using namespace arch21::des;

constexpr std::uint64_t kSeeds[] = {2014, 0xC0FFEE, 777};
constexpr unsigned kWorkerCounts[] = {1, 2, 4, 8};

// ------------------------------------------------------------ schedule_n

TEST(ScheduleN, MatchesLoopAndReferenceHeap) {
  for (const std::uint64_t seed : kSeeds) {
    const WorkloadResult one = replay_schedule_heavy<Simulator>(seed, 4000);
    const WorkloadResult ref =
        replay_schedule_heavy<ReferenceSimulator>(seed, 4000);
    ASSERT_EQ(one, ref);
    for (const std::uint32_t batch : {1u, 7u, 64u, 4096u}) {
      const WorkloadResult batched =
          replay_schedule_heavy_batched<Simulator>(seed, 4000, batch);
      EXPECT_EQ(batched, one) << "seed=" << seed << " batch=" << batch;
      const WorkloadResult batched_ref =
          replay_schedule_heavy_batched<ReferenceSimulator>(seed, 4000, batch);
      EXPECT_EQ(batched_ref, one) << "seed=" << seed << " batch=" << batch;
    }
  }
}

TEST(ScheduleN, RejectsPastTimesBeforeSchedulingAnything) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  ASSERT_EQ(sim.now(), 10.0);
  int fired = 0;
  Simulator::TimedAction evs[] = {
      {20.0, [&] { ++fired; }},
      {5.0, [&] { ++fired; }},  // in the past -> whole batch rejected
  };
  EXPECT_THROW(sim.schedule_n(evs, 2), std::invalid_argument);
  sim.run();
  EXPECT_EQ(fired, 0) << "a rejected batch must schedule none of its events";
}

// ------------------------------------------------------- engine contract

TEST(PartitionSpec, RejectsZeroLookaheadAndZeroLps) {
  PartitionSpec ok;
  ok.lps = 2;
  ok.lookahead = 0.5;
  EXPECT_NO_THROW(ok.validate());

  PartitionSpec zero_la = ok;
  zero_la.lookahead = 0;  // conservative window would collapse
  EXPECT_THROW(zero_la.validate(), std::invalid_argument);

  PartitionSpec single = ok;
  single.lps = 1;
  single.lookahead = 0;  // rejected even for one LP: keep the contract flat
  EXPECT_THROW(single.validate(), std::invalid_argument);

  PartitionSpec no_lps = ok;
  no_lps.lps = 0;
  EXPECT_THROW(no_lps.validate(), std::invalid_argument);

  ThreadPool pool(1);
  EXPECT_THROW(ParallelEngine(zero_la, pool), std::invalid_argument);
  EXPECT_THROW(LoopbackEngine{zero_la}, std::invalid_argument);
}

TEST(PdesEngine, SendBelowLookaheadThrowsOnBothEngines) {
  PartitionSpec spec;
  spec.lps = 2;
  spec.lookahead = 1.0;
  const Payload p{};

  LoopbackEngine ser(spec);
  ser.lp(1).set_handler([](auto&, const Payload&) {});
  EXPECT_THROW(ser.lp(0).send(1, 0.5, p), std::invalid_argument);
  EXPECT_THROW(ser.lp(0).send(7, 2.0, p), std::invalid_argument);

  ThreadPool pool(1);
  ParallelEngine par(spec, pool);
  par.lp(1).set_handler([](auto&, const Payload&) {});
  EXPECT_THROW(par.lp(0).send(1, 0.5, p), std::invalid_argument);
  EXPECT_THROW(par.lp(0).send(7, 2.0, p), std::invalid_argument);
  // A self-send is a local schedule: no lookahead floor.
  par.lp(0).set_handler([](auto&, const Payload&) {});
  EXPECT_NO_THROW(par.lp(0).send(0, 0.0, p));
}

TEST(PdesEngine, MeshDifferentialAcrossWorkerCounts) {
  PartitionSpec spec;
  spec.lps = 5;
  spec.lookahead = 0.25;
  for (const std::uint64_t seed : kSeeds) {
    LoopbackEngine ser(spec);
    const PdesWorkloadResult want = run_pdes_mesh(ser, seed, 60.0);
    ASSERT_GT(want.executed, 0u);
    ASSERT_GT(want.cancelled, 0u);  // the arm-and-cancel churn is exercised
    std::uint64_t deliveries = 0;
    for (const PdesLpResult& lp : want.lps) deliveries += lp.deliveries;
    ASSERT_GT(deliveries, 0u);

    for (const unsigned workers : kWorkerCounts) {
      ThreadPool pool(workers);
      ParallelEngine par(spec, pool);
      const PdesWorkloadResult got = run_pdes_mesh(par, seed, 60.0);
      EXPECT_EQ(got, want) << "seed=" << seed << " workers=" << workers;
      const ParallelEngine::Stats s = par.stats();
      EXPECT_GT(s.windows, 1u);
      EXPECT_EQ(s.sent, deliveries);       // everything sent ...
      EXPECT_EQ(s.committed, deliveries);  // ... was delivered (full drain)
    }
  }
}

TEST(PdesEngine, RunUntilAlignsClocksAndResumes) {
  PartitionSpec spec;
  spec.lps = 2;
  spec.lookahead = 1.0;
  ThreadPool pool(2);
  ParallelEngine eng(spec, pool);
  // One log per LP: the two LPs run on different workers, so a shared
  // vector would be a data race in the test itself.
  std::vector<double> fired[2];
  for (std::uint32_t i = 0; i < 2; ++i) {
    eng.lp(i).set_handler([](auto&, const Payload&) {});
    for (const double t : {1.0, 2.0, 3.0}) {
      auto& lp = eng.lp(i);
      lp.sim().schedule_at(
          t, [&log = fired[i], &lp] { log.push_back(lp.now()); });
    }
  }
  EXPECT_EQ(eng.run(2.5), 4u);  // t=1 and t=2 on both LPs
  EXPECT_EQ(eng.lp(0).now(), 2.5);  // horizon alignment, like Simulator::run
  EXPECT_EQ(eng.lp(1).now(), 2.5);
  EXPECT_EQ(eng.run(), 2u);  // resumes: the two t=3 events remain
  EXPECT_EQ(fired[0], (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(fired[1], (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(PdesEngine, CrossLpCancelAcrossWindowBoundary) {
  // LP0 arms a local cancellable timer, then a two-hop message exchange
  // (each hop = one lookahead window) comes back and cancels it -- the
  // cancellation crosses two window barriers before the timer's due time.
  PartitionSpec spec;
  spec.lps = 2;
  spec.lookahead = 1.0;

  struct Probe {
    bool timer_fired = false;
    double cancelled_at = -1;
    EventHandle timer{};
  };

  auto drive = [&](auto& eng) {
    auto probe = std::make_unique<Probe>();
    Probe* pr = probe.get();
    eng.lp(0).set_handler([pr](auto& lp, const Payload&) {
      lp.sim().cancel(pr->timer);  // the reply: call off the timer
      pr->cancelled_at = lp.now();
    });
    eng.lp(1).set_handler([](auto& lp, const Payload& p) {
      lp.send(0, 1.0, p);  // bounce straight back
    });
    eng.lp(0).sim().schedule_at(0.0, [pr, &eng] {
      auto& lp = eng.lp(0);
      pr->timer = lp.sim().schedule_cancellable(
          10.0, [pr] { pr->timer_fired = true; });
      lp.send(1, 1.0, Payload{});
    });
    eng.run();
    EXPECT_FALSE(pr->timer_fired);
    EXPECT_EQ(pr->cancelled_at, 2.0);  // two hops after t=0
    EXPECT_EQ(eng.cancelled(), 1u);
  };

  LoopbackEngine ser(spec);
  drive(ser);
  for (const unsigned workers : kWorkerCounts) {
    ThreadPool pool(workers);
    ParallelEngine par(spec, pool);
    drive(par);
    EXPECT_GE(par.stats().windows, 2u);
  }
}

// ------------------------------------------------------ cluster scenario

void expect_same_result(const cloud::ClusterResult& a,
                        const cloud::ClusterResult& b, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.ok_queries, b.ok_queries);
  EXPECT_EQ(a.degraded_queries, b.degraded_queries);
  EXPECT_EQ(a.failed_queries, b.failed_queries);
  EXPECT_EQ(a.query_ms, b.query_ms);  // bit-level: counts AND FP sums
  EXPECT_EQ(a.leaf_ms, b.leaf_ms);
  EXPECT_EQ(a.mean_leaf_utilization, b.mean_leaf_utilization);
  EXPECT_EQ(a.hedge_fraction, b.hedge_fraction);
  EXPECT_EQ(a.leaf_requests, b.leaf_requests);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.hedges, b.hedges);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.lost_requests, b.lost_requests);
  EXPECT_EQ(a.budget_denials, b.budget_denials);
  EXPECT_EQ(a.leaf_failures, b.leaf_failures);
  EXPECT_EQ(a.domain_failures, b.domain_failures);
  EXPECT_EQ(a.shed_queries, b.shed_queries);
  EXPECT_EQ(a.rejected_requests, b.rejected_requests);
  EXPECT_EQ(a.expired_drops, b.expired_drops);
  EXPECT_EQ(a.breaker_open_transitions, b.breaker_open_transitions);
  EXPECT_EQ(a.breaker_short_circuits, b.breaker_short_circuits);
  EXPECT_EQ(a.breaker_probes, b.breaker_probes);
  EXPECT_EQ(a.breaker_open_ms, b.breaker_open_ms);
  EXPECT_EQ(a.answered_per_window, b.answered_per_window);
  EXPECT_EQ(a.goodput_window_s, b.goodput_window_s);
  EXPECT_EQ(a.gray_episodes, b.gray_episodes);
  EXPECT_EQ(a.gray_dropped_replies, b.gray_dropped_replies);
  EXPECT_EQ(a.gray_evictions, b.gray_evictions);
  EXPECT_EQ(a.gray_probations, b.gray_probations);
  EXPECT_EQ(a.gray_zombies, b.gray_zombies);
  EXPECT_EQ(a.gray_redirected_sends, b.gray_redirected_sends);
  EXPECT_EQ(a.adaptive_deadline_ms, b.adaptive_deadline_ms);
  EXPECT_EQ(a.power_shed_queries, b.power_shed_queries);
  EXPECT_EQ(a.power_gate_stalls, b.power_gate_stalls);
  EXPECT_EQ(a.power_overruns, b.power_overruns);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.peak_window_w, b.peak_window_w);
  EXPECT_EQ(a.power_cap_w, b.power_cap_w);
  EXPECT_EQ(a.power_window_s, b.power_window_s);
  EXPECT_EQ(a.energy_j_per_window, b.energy_j_per_window);
  EXPECT_EQ(a.retry_amplification, b.retry_amplification);
  EXPECT_EQ(a.goodput_qps, b.goodput_qps);
  EXPECT_EQ(a.availability_measured, b.availability_measured);
  EXPECT_EQ(a.availability_predicted, b.availability_predicted);
  EXPECT_EQ(a.sum_result_quality, b.sum_result_quality);
  EXPECT_EQ(a.frac_over_leaf_p99, b.frac_over_leaf_p99);
  EXPECT_EQ(a.trials, b.trials);
}

cloud::ClusterConfig small_pdes_config(std::uint64_t seed) {
  cloud::ClusterConfig cfg;
  cfg.leaves = 12;
  cfg.query_rate_hz = 40;
  cfg.background_rate_hz = 20;
  cfg.duration_s = 3;
  cfg.seed = seed;
  cfg.goodput_window_s = 1;
  cfg.net_latency_ms = 0.5;
  cfg.leaf_groups = 3;
  return cfg;
}

cloud::ClusterConfig stacked_pdes_config(std::uint64_t seed) {
  cloud::ClusterConfig cfg;
  cfg.leaves = 10;
  cfg.query_rate_hz = 60;
  cfg.background_rate_hz = 40;
  cfg.duration_s = 4;
  cfg.seed = seed;
  cfg.goodput_window_s = 1;
  cfg.net_latency_ms = 1.0;
  cfg.leaf_groups = 4;
  cfg.leaf_queue.capacity = 16;
  cfg.leaf_queue.discipline = des::QueueDiscipline::kDeadline;
  cfg.leaf_queue.sojourn_target = 30;
  cfg.faults.enabled = true;
  cfg.faults.leaves_per_domain = 5;
  cfg.faults.burst_leaves = 3;
  cfg.faults.burst_start_s = 1.0;
  cfg.faults.burst_duration_s = 0.5;
  cfg.policy.retry.timeout_ms = 25;
  cfg.policy.retry.max_retries = 2;
  cfg.policy.budget.enabled = true;
  cfg.policy.budget.ratio = 0.2;
  cfg.policy.hedge_after_ms = 15;
  cfg.policy.quorum.quorum_fraction = 0.7;
  cfg.policy.quorum.deadline_ms = 60;
  cfg.policy.admission.enabled = true;
  cfg.policy.admission.rate_qps = 80;
  cfg.policy.admission.max_in_flight = 50;
  cfg.policy.breaker.enabled = true;
  return cfg;
}

TEST(ClusterPdes, BitIdenticalAcrossWorkerCounts) {
  for (const std::uint64_t seed : kSeeds) {
    cloud::ClusterConfig cfg = small_pdes_config(seed);
    const cloud::ClusterResult want = cloud::simulate_cluster_pdes(cfg);
    EXPECT_GT(want.queries, 0u);
    for (const unsigned workers : kWorkerCounts) {
      cfg.workers = workers;
      const cloud::ClusterResult got = cloud::simulate_cluster_pdes(cfg);
      expect_same_result(got, want, "small config");
    }
  }
}

TEST(ClusterPdes, BitIdenticalWithFullPolicyAndFaultStack) {
  cloud::ClusterConfig cfg = stacked_pdes_config(kSeeds[0]);
  const cloud::ClusterResult want = cloud::simulate_cluster_pdes(cfg);
  EXPECT_GT(want.queries, 0u);
  EXPECT_GT(want.leaf_failures, 0u);
  for (const unsigned workers : kWorkerCounts) {
    cfg.workers = workers;
    const cloud::ClusterResult got = cloud::simulate_cluster_pdes(cfg);
    expect_same_result(got, want, "policy+fault stack");
  }
}

// The message transport scores late and duplicate replies exactly as the
// direct one does; the detector's evictions, redirects and adaptive
// deadline must replay bit-identically at every worker count.
TEST(ClusterPdes, BitIdenticalWithGrayDetection) {
  cloud::ClusterConfig cfg = stacked_pdes_config(kSeeds[0]);
  cfg.policy.retry.timeout_ms = 60;  // room for the adaptive deadline
  cfg.policy.gray.enabled = true;
  cfg.policy.gray.eval_interval_ms = 200;
  const cloud::ClusterResult want = cloud::simulate_cluster_pdes(cfg);
  EXPECT_GT(want.gray_evictions, 0u);
  EXPECT_GT(want.gray_redirected_sends, 0u);
  EXPECT_GT(want.hedges, 0u);  // duplicate replies reach the detector
  for (const unsigned workers : kWorkerCounts) {
    cfg.workers = workers;
    const cloud::ClusterResult got = cloud::simulate_cluster_pdes(cfg);
    expect_same_result(got, want, "policy+fault stack + gray detection");
  }
}

TEST(ClusterPdes, SimulateClusterDispatchesOnNetLatency) {
  const cloud::ClusterConfig cfg = small_pdes_config(kSeeds[1]);
  expect_same_result(cloud::simulate_cluster(cfg),
                     cloud::simulate_cluster_pdes(cfg), "dispatch");
}

TEST(ClusterPdes, ConfigValidationRejections) {
  cloud::ClusterConfig cfg = small_pdes_config(kSeeds[0]);

  cloud::ClusterConfig no_net = cfg;
  no_net.net_latency_ms = 0;
  no_net.workers = 2;  // nothing for the conservative window to hide behind
  EXPECT_THROW(cloud::simulate_cluster(no_net), std::invalid_argument);

  cloud::ClusterConfig too_many_groups = cfg;
  too_many_groups.leaf_groups = cfg.leaves + 1;
  EXPECT_THROW(cloud::simulate_cluster(too_many_groups),
               std::invalid_argument);

  cloud::ClusterConfig bad_net = cfg;
  bad_net.net_latency_ms = -1;
  EXPECT_THROW(cloud::simulate_cluster(bad_net), std::invalid_argument);

  // trials x workers would oversubscribe the pool; one axis at a time.
  cloud::ClusterConfig with_workers = cfg;
  with_workers.workers = 2;
  EXPECT_THROW(cloud::run_cluster_trials(with_workers, 2),
               std::invalid_argument);
}

}  // namespace
