#pragma once
// Multi-trial resilience experiments over the DES cluster.
//
// One cluster simulation is a single seeded sample path; resilience
// claims (availability, retry amplification, degraded-query quality)
// need many independent failure traces.  run_cluster_trials() runs
// `trials` independent simulations -- trial i reseeded via the repo-wide
// Rng(seed, i) sub-stream convention -- on the work-stealing pool and
// folds the ClusterResults in trial order, so the aggregate is
// bit-identical for ANY pool size (the PR-1 determinism contract).
//
// resilience_scenarios() packages the canonical experiment ladder
// (baseline -> failures -> naive retries -> retry budget -> hedging ->
// quorum degradation) used by bench_resilience, the resilience_drill
// example, and core::render_resilience_report.

#include <string>
#include <vector>

#include "cloud/cluster.hpp"
#include "cloud/trials.hpp"
#include "util/thread_pool.hpp"

namespace arch21::cloud {

/// Aggregate `trials` independent simulations of `cfg` (trial i runs with
/// seed Rng(cfg.seed, i).next()).  Trials run on `pool`
/// (ThreadPool::global() when null) and merge in trial order, so the
/// result does not depend on the worker count.
ClusterResult run_cluster_trials(const ClusterConfig& cfg, unsigned trials,
                                 ThreadPool* pool = nullptr);

/// One named scenario of the canonical resilience ladder.
struct ScenarioResult {
  std::string name;
  ClusterConfig config;
  ClusterResult result;
};

/// Knobs for the canonical ladder built on top of a base ClusterConfig.
struct ScenarioPolicies {
  double timeout_ms = 30;       ///< per-request timeout for retry scenarios
  unsigned naive_max_retries = 16;  ///< "unbounded" retries, no budget
  unsigned budget_max_retries = 3;
  double budget_ratio = 0.1;    ///< retry budget: retries per request
  double hedge_after_ms = 20;
  double quorum_fraction = 0.95;
  double quorum_deadline_ms = 60;
};

/// Run the six-step ladder, `trials` sims per step, on `pool`:
///   1. baseline            -- no faults, no mitigation
///   2. failures            -- fault injection, no mitigation
///   3. naive retries       -- timeout + many retries, NO budget
///   4. retry budget        -- timeout + bounded retries + budget
///   5. budget + hedging
///   6. budget + hedging + quorum degradation
ScenarioResult run_scenario(std::string name, const ClusterConfig& cfg,
                            unsigned trials, ThreadPool* pool = nullptr);
std::vector<ScenarioResult> resilience_scenarios(
    const ClusterConfig& base, unsigned trials,
    const ScenarioPolicies& knobs = {}, ThreadPool* pool = nullptr);

/// Knobs for the overload-protection ladder (bench_overload, E29).  The
/// base ClusterConfig supplies the workload and the transient fault
/// burst; these knobs describe the client and the server edge at each
/// rung.
struct OverloadPolicies {
  // Client side, shared by every rung so the comparison isolates the
  // server-side protections: tight timeout plus a quorum deadline (every
  // query closes, protected or not).
  double timeout_ms = 12;
  double quorum_fraction = 0.5;
  double quorum_deadline_ms = 100;
  /// Unprotected rungs retry hard with no budget -- the storm fuel.
  unsigned naive_max_retries = 8;
  /// Protected rung: bounded retries under a budget.
  unsigned protected_max_retries = 2;
  double budget_ratio = 0.1;
  // Server edge.
  std::size_t queue_capacity = 4;   ///< bounded leaf queue depth
  double sojourn_target_ms = 12;    ///< kDeadline drop budget (~ timeout)
  double admission_rate_frac = 1.1; ///< token rate = frac * query_rate_hz
  /// Concurrency cap at the root; 0 derives 2x the queries a healthy
  /// root keeps open across a quorum deadline.
  unsigned max_in_flight = 0;
};

/// Run the four-rung overload ladder, `trials` sims per rung:
///   1. unprotected          -- unbounded FIFO leaves, naive retries
///   2. bounded queue        -- + per-leaf capacity with deadline drop
///   3. admission + budget   -- + root load shedding and a retry budget
///   4. circuit breakers     -- + per-replica breakers (full protection)
/// Every rung runs the same seeded workload and fault burst.
std::vector<ScenarioResult> overload_scenarios(
    const ClusterConfig& base, unsigned trials,
    const OverloadPolicies& knobs = {}, ThreadPool* pool = nullptr);

/// Knobs for the power-cap ladder (bench_power, E33): the E29
/// *unprotected* overload rung -- unbounded FIFO leaves, naive
/// unbudgeted retries, a quorum deadline so every query closes -- run
/// under an IT power cap.  The unprotected client is deliberate: it is
/// where HOW the cap is spent decides the outcome.  A uniform throttle
/// stretches every service time, pushes the cluster past its knee, and
/// the E29 fault burst tips it into the metastable regime -- goodput
/// gone but the idle floor still burning.  The shedding governor spends
/// the same budget by refusing queries at the root and keeps the leaves
/// fast, so the burst drains and goodput-per-joule survives.  The
/// powercap field is a template; enabled, cap_fraction and policy are
/// set per rung.
struct PowerLadderPolicies {
  OverloadPolicies overload;  ///< client knobs (timeout, naive retries, quorum)
  PowercapConfig powercap;
  /// Cap rungs as fractions of leaves * peak_w, ascending.
  std::vector<double> cap_fractions{0.6, 0.8, 1.0};
};

/// One rung's full config: the E29 unprotected client plus the power
/// cap.  Exposed so bench_power can re-run a single rung for the
/// determinism check.
ClusterConfig power_rung_config(const ClusterConfig& base,
                                const PowerLadderPolicies& knobs,
                                double cap_fraction, PowercapPolicy policy);

/// The E33 ladder, `trials` sims per rung: an uncapped reference (power
/// model off), then per cap fraction the naive uniform throttle vs the
/// shedding governor -- and at the tightest cap additionally the pace
/// and race-to-idle policies, so the four ways of spending a budget are
/// compared where the budget binds hardest.  Every rung runs the same
/// seeded workload and fault burst.
std::vector<ScenarioResult> power_scenarios(
    const ClusterConfig& base, unsigned trials,
    const PowerLadderPolicies& knobs = {}, ThreadPool* pool = nullptr);

/// Knobs for the gray-failure ladder (bench_grayfail, E34).  The base
/// ClusterConfig supplies the workload and the gray (fail-slow) burst;
/// every rung keeps the FULL E29 fail-stop protection stack -- bounded
/// deadline-drop queues, admission + retry budget, circuit breakers --
/// so the ladder isolates what the gray-aware client adds on top.  The
/// point of the drill: a fail-slow burst defeats the E29 stack (gray
/// replicas keep answering, just late, so breakers see successes and
/// never open) while the detection stack contains it.
struct GrayfailPolicies {
  // Client, shared by every rung: tight timeout, budgeted retries, and a
  // high quorum -- the fan-out needs nearly every leaf, so a handful of
  // gray replicas can hold the whole query hostage.
  double timeout_ms = 25;
  unsigned max_retries = 2;
  double budget_ratio = 0.1;
  double quorum_fraction = 0.9;
  double quorum_deadline_ms = 100;
  // Server edge, identical to the E29 protected rung.
  std::size_t queue_capacity = 4;
  double sojourn_target_ms = 25;
  double admission_rate_frac = 1.1;
  unsigned max_in_flight = 0;  ///< 0 derives from the quorum deadline
  /// Detection stack for the gray-aware rungs; `enabled`/`evict` are set
  /// per rung, the rest of the fields apply as given.
  GrayDetectionPolicy gray;
};

/// Run the four-rung gray-failure ladder, `trials` sims per rung:
///   1. control              -- E29 protections, NO gray burst
///   2. fail-stop ladder     -- gray burst vs the E29 stack (defeated)
///   3. + adaptive deadline  -- detection on, scoring + deadline only
///   4. + eviction/probation -- full adaptive mitigation
/// Every rung runs the same seeded workload; rungs 2-4 the same burst.
std::vector<ScenarioResult> grayfail_scenarios(
    const ClusterConfig& base, unsigned trials,
    const GrayfailPolicies& knobs = {}, ThreadPool* pool = nullptr);

/// Windowed-goodput summary of one fail-slow-burst run: mean goodput in
/// the complete windows strictly before the gray burst (window 0 is
/// warmup) vs the complete windows INSIDE the burst after `settle_s` of
/// onset slack, vs the complete windows after the burst cleared plus
/// `settle_s`.  containment_ratio() is the E34 headline: how much of
/// pre-burst goodput the client holds onto WHILE the burst is running.
struct GrayContainment {
  double pre_qps = 0;
  double during_qps = 0;
  double post_qps = 0;
  double containment_ratio() const noexcept {
    return pre_qps > 0 ? during_qps / pre_qps : 0;
  }
  double recovery_ratio() const noexcept {
    return pre_qps > 0 ? post_qps / pre_qps : 0;
  }
};

/// Requires cfg.goodput_window_s > 0 and an enabled gray burst; returns
/// zeros otherwise.  Windows with no answered queries count as zeros,
/// and multi-trial aggregates are normalized by ClusterResult::trials.
GrayContainment gray_containment(const ClusterResult& r,
                                 const ClusterConfig& cfg,
                                 double settle_s = 2.0);

/// Windowed-goodput hysteresis around the fault burst of one
/// metastable-failure run (GoodputHysteresis, cloud/trials.hpp).
/// Requires cfg.goodput_window_s > 0 and an enabled fault burst;
/// returns zeros otherwise.  Windows with no answered queries count as
/// zeros (that IS the metastable signal), and multi-trial aggregates are
/// normalized by ClusterResult::trials.
GoodputHysteresis goodput_hysteresis(const ClusterResult& r,
                                     const ClusterConfig& cfg,
                                     double settle_s = 2.0);

}  // namespace arch21::cloud
