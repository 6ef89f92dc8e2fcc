#pragma once
// A DES-based search-style cluster: a root fans each query out to N leaf
// servers; each leaf is a single-server queue also absorbing background
// load; the query completes when the slowest leaf replies.  Unlike the
// closed-form fork-join sampler (cloud/tail.hpp), this model includes
// *queueing interference*, which is where real tails come from, and lets
// hedging be evaluated under induced extra load -- the feedback loop that
// makes naive hedging dangerous.
//
// Resilience layer (the paper's "break away from the dominant fault
// model"): leaves *fail and recover* along a seeded reliab failure trace
// with correlated rack/PSU failure domains; the client side runs a
// ResiliencePolicy (timeouts, budgeted retries, hedging, quorum
// degradation); and ClusterResult reports availability, goodput, retry
// amplification, and result quality next to the latency histograms, so
// the whole failure -> mitigation -> degradation loop is one
// reproducible experiment.
//
// Overload-protection layer (server side of "Tail at Scale"): each leaf
// can run a bounded queue with a pluggable discipline
// (des::QueuePolicy -- FIFO / adaptive LIFO / deadline drop), the root
// can shed load via AdmissionPolicy, and per-replica CircuitBreakers
// stop the client from hammering a failing leaf.  ClusterResult counts
// every shed/rejected/expired/short-circuited request, and an optional
// goodput time series (goodput_window_s) makes recovery after a fault
// burst -- or the lack of it, the metastable-failure signature -- a
// measurable quantity (experiment E29, bench_overload).

#include <cstdint>
#include <vector>

#include "cloud/policy.hpp"
#include "cloud/powercap.hpp"
#include "des/resource.hpp"
#include "obs/enabled.hpp"
#include "reliab/availability.hpp"
#include "reliab/gray.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

#if ARCH21_OBS_ENABLED
namespace arch21::obs {
class TraceBuffer;
}
#endif

namespace arch21::cloud {

/// Failure injection for the cluster's leaves.  Components use the
/// reliab MTBF/MTTR convention (hours); at simulation timescales the
/// interesting regimes are small fractions of an hour.  The defaults
/// give ~1% per-leaf unavailability (50 s MTBF, 0.5 s MTTR).
struct ClusterFaultConfig {
  bool enabled = false;
  reliab::Component leaf{.mtbf_hours = 50.0 / 3600.0,
                         .mttr_hours = 0.5 / 3600.0};
  /// Leaves per rack/PSU failure domain; one domain event takes the whole
  /// group down at once.  0 disables correlated failures.
  unsigned leaves_per_domain = 0;
  reliab::Component domain{.mtbf_hours = 500.0 / 3600.0,
                           .mttr_hours = 1.0 / 3600.0};

  /// Deterministic transient *burst*: leaves [0, burst_leaves) crash at
  /// burst_start_s and recover burst_duration_s later -- the controlled
  /// trigger the metastable-failure experiment (E29) needs, independent
  /// of the stochastic trace above (and usable alongside it).  Disabled
  /// while burst_leaves == 0.
  unsigned burst_leaves = 0;
  double burst_start_s = 0;
  double burst_duration_s = 0;

  bool burst_enabled() const noexcept {
    return burst_leaves > 0 && burst_duration_s > 0;
  }

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Gray-failure (fail-slow) injection for the cluster's leaves: the
/// degraded-but-not-dead hardware the fail-stop trace above cannot
/// express.  Episodes come from a seeded reliab::GrayTrace (per-leaf Rng
/// sub-streams on a dedicated salt) and/or the deterministic burst below;
/// both compose with ClusterFaultConfig (a leaf can be gray, crashed, or
/// both).  Modes and their severity semantics:
///   slow    -- leaf serves at 1/severity speed (Resource::set_speed);
///   lossy   -- each reply is dropped with probability severity;
///   zombie  -- the leaf accepts work but NO reply ever returns;
///   jittery -- with spike_prob, a reply is delayed by an exponential
///              spike of mean severity ms (the leaf itself keeps full
///              capacity -- a NIC/GC hiccup, not a saturated server).
/// All injection randomness (loss coins, spike draws) comes from a
/// dedicated Rng stream, so disabled gray is byte-identical.  Requires
/// the direct transport (net_latency_ms == 0) and is mutually exclusive
/// with powercap (both drive leaf speed).
struct ClusterGrayConfig {
  /// Stochastic episode trace (off by default).
  bool enabled = false;
  /// Episode process: mean healthy gap / mean episode length (hours, like
  /// every reliab Component; interesting regimes are fractions of an hour).
  reliab::Component episode{.mtbf_hours = 80.0 / 3600.0,
                            .mttr_hours = 8.0 / 3600.0};
  /// Relative mode weights and severity ranges (see GrayTraceConfig).
  double w_slow = 1.0;
  double w_lossy = 1.0;
  double w_zombie = 0.25;
  double w_jittery = 1.0;
  double slow_factor_min = 3.0;
  double slow_factor_max = 8.0;
  double loss_fraction_min = 0.3;
  double loss_fraction_max = 0.8;
  double spike_ms_min = 50.0;
  double spike_ms_max = 400.0;
  /// Per-reply spike probability while a jittery episode is active
  /// (trace episodes and deterministic bursts both use this).
  double spike_prob = 0.5;

  /// Deterministic gray *burst*: leaves [0, burst_leaves) degrade in
  /// burst_mode with burst_severity at burst_start_s and clear
  /// burst_duration_s later -- the controlled trigger of the gray-failure
  /// drill (E34), mirroring ClusterFaultConfig's crash burst.  Disabled
  /// while burst_leaves == 0.
  unsigned burst_leaves = 0;
  double burst_start_s = 0;
  double burst_duration_s = 0;
  reliab::GrayMode burst_mode = reliab::GrayMode::kSlow;
  double burst_severity = 6.0;

  bool burst_enabled() const noexcept {
    return burst_leaves > 0 && burst_duration_s > 0;
  }
  /// Any injection configured (trace or burst)?
  bool any() const noexcept { return enabled || burst_enabled(); }

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Cluster/workload configuration.
struct ClusterConfig {
  unsigned leaves = 100;
  double query_rate_hz = 100;       ///< fan-out query arrival rate
  double leaf_service_ms = 4.0;     ///< mean per-leaf work per query
  double service_sigma = 0.35;      ///< lognormal sigma of service time
  double background_rate_hz = 30;   ///< per-leaf background task rate
  double background_ms = 3.0;       ///< mean background task size
  double duration_s = 30;           ///< simulated time
  std::uint64_t seed = 2014;
  /// Server-side queue policy applied to every leaf (capacity 0 + FIFO =
  /// the historical unbounded station).  Time unit is ms, like the rest
  /// of the cluster (so sojourn_target is a millisecond budget).
  des::QueuePolicy leaf_queue;
  /// Goodput time series: when > 0, ClusterResult::answered_per_window
  /// counts answered queries per window of this many seconds -- the
  /// instrument that shows whether goodput *recovers* after a fault
  /// burst.  0 (default) records nothing.
  double goodput_window_s = 0;
  /// Network latency between the root and every leaf, one way, in ms.
  /// It picks the transport the client engine (cloud/client.hpp) runs
  /// over.  0 (default) is the direct transport: the zero-latency model
  /// on one serial simulator, the only one that supports gray injection
  /// and powercap.  > 0 is the message transport (cluster_pdes.cpp): the
  /// leaves are sharded into LP groups, requests and replies each travel
  /// net_latency_ms, and that latency is the conservative lookahead the
  /// parallel engine hides behind.
  double net_latency_ms = 0;
  /// Worker threads for the parallel engine.  0 (default) runs the
  /// LP-sharded scenario on the serial loopback reference engine; W >= 1
  /// runs it on des::ParallelEngine over a W-thread pool.  Results are
  /// bit-identical for every value of this knob (the determinism
  /// contract; pinned by tests/test_pdes.cpp).  Requires
  /// net_latency_ms > 0.
  unsigned workers = 0;
  /// Number of leaf-group LPs the PDES scenario shards the leaves into
  /// (the root is one more LP).  0 = min(leaves, 8).  Part of the MODEL,
  /// deliberately independent of `workers`: changing the partition may
  /// shift results at FP-tie granularity, changing workers never does.
  unsigned leaf_groups = 0;
  /// Failure injection (off by default).
  ClusterFaultConfig faults;
  /// Gray-failure (fail-slow) injection (off by default).
  ClusterGrayConfig gray;
  /// Client-side mitigation + server-edge overload policies (all off by
  /// default).
  ResiliencePolicy policy;
  /// Power-capped co-simulation (off by default; see cloud/powercap.hpp):
  /// every leaf gets a DVFS p-state whose speed divides its service times
  /// and whose power feeds a windowed energy contract against the
  /// datacenter cap.  Requires the direct transport (net_latency_ms ==
  /// 0; the cap's window accounting is cluster-wide and has no LP
  /// sharding).  Disabled, results are byte-identical to pre-powercap
  /// builds.
  PowercapConfig powercap;
#if ARCH21_OBS_ENABLED
  /// Observability trace sink for ONE simulation (timestamps are ms, so
  /// construct it with ts_to_us = 1e3).  The DES kernel, every leaf
  /// Resource, and the query lifecycle emit into it: track 0 carries
  /// kernel instants plus retry/hedge/timeout/lost/denied/deadline and
  /// shed/rejected/breaker markers, track 1+l carries leaf l's serve
  /// spans, and queries are async "query" spans annotated with result
  /// quality.  Strictly read-only -- attaching a trace never changes
  /// simulation results.  Rejected (std::invalid_argument) by
  /// run_cluster_trials(): a single ring cannot absorb concurrent
  /// trials.
  obs::TraceBuffer* trace = nullptr;
#endif

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Simulation output.  Counters are raw so multi-trial aggregates can
/// merge(); ratio fields are averaged per-trial.
struct ClusterResult {
  std::uint64_t queries = 0;            ///< queries ADMITTED (sheds excluded)
  std::uint64_t ok_queries = 0;         ///< every leaf contributed
  std::uint64_t degraded_queries = 0;   ///< returned on quorum at deadline
  std::uint64_t failed_queries = 0;     ///< missed quorum / never completed
  LogHistogram query_ms{1e-2, 1e5, 90}; ///< answered (ok + degraded) queries
  LogHistogram leaf_ms{1e-2, 1e5, 90};
  double mean_leaf_utilization = 0;
  double hedge_fraction = 0;  ///< fraction of leaf requests that were hedges

  // --- resilience telemetry ---
  std::uint64_t leaf_requests = 0;   ///< first attempts + retries + hedges
  std::uint64_t retries = 0;
  std::uint64_t hedges = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t lost_requests = 0;   ///< sent to a down leaf or killed by it
  std::uint64_t budget_denials = 0;  ///< retries suppressed by the budget
  std::uint64_t leaf_failures = 0;   ///< injected leaf failure events
  std::uint64_t domain_failures = 0; ///< injected domain failure events

  // --- overload-protection telemetry ---
  std::uint64_t shed_queries = 0;    ///< refused at the root by admission
  /// Requests bounced off a full bounded leaf queue (server-side total:
  /// query traffic and background load both count).
  std::uint64_t rejected_requests = 0;
  /// Waiters dropped at dequeue by the kDeadline discipline (sojourn
  /// target already blown; server-side total like rejected_requests).
  std::uint64_t expired_drops = 0;
  std::uint64_t breaker_open_transitions = 0;  ///< closed/half-open -> open
  std::uint64_t breaker_short_circuits = 0;    ///< sends blocked while open
  std::uint64_t breaker_probes = 0;            ///< half-open probe sends
  /// Summed per-replica milliseconds spent in the open state.
  double breaker_open_ms = 0;
  /// Answered (ok + degraded) queries per goodput_window_s window,
  /// indexed by floor(close_time / window).  Empty unless
  /// ClusterConfig::goodput_window_s > 0.  merge() sums element-wise.
  std::vector<std::uint64_t> answered_per_window;
  /// The window size answered_per_window was recorded on, copied from
  /// ClusterConfig::goodput_window_s by the simulators (0 = no series).
  /// merge() throws std::invalid_argument when two results carry
  /// different non-zero window sizes: summing counts recorded on
  /// different grids would silently corrupt every downstream hysteresis
  /// measurement.  A windowless result adopts the other's grid.
  double goodput_window_s = 0;

  // --- gray-failure telemetry (all zero unless gray/detection enabled) ---
  std::uint64_t gray_episodes = 0;        ///< injected degradation onsets
  std::uint64_t gray_dropped_replies = 0; ///< replies eaten by lossy/zombie leaves
  std::uint64_t gray_evictions = 0;       ///< detector evictions (incl. re-evictions)
  std::uint64_t gray_probations = 0;      ///< eviction -> probation re-admissions
  std::uint64_t gray_zombies = 0;         ///< zombie (zero-reply-rate) detections
  std::uint64_t gray_redirected_sends = 0;///< sends steered off evicted replicas
  /// Adaptive deadline at end of run, ms (per-trial average under merge();
  /// 0 = adaptive deadline off).
  double adaptive_deadline_ms = 0;

  // --- power-capping telemetry (all zero unless powercap.enabled) ---
  std::uint64_t power_shed_queries = 0;  ///< refused by cap-aware admission
  std::uint64_t power_gate_stalls = 0;   ///< leaf stalls on an exhausted window
  std::uint64_t power_overruns = 0;      ///< single-job-over-window exceptions
  /// Energy charged over the accounting horizon, joules (idle floor plus
  /// per-start dynamic contracts; see cloud/powercap.hpp).  merge() sums.
  double energy_j = 0;
  /// Max charged window power across the run, watts.  merge() takes the
  /// max, so a multi-trial aggregate still certifies "no window anywhere
  /// exceeded the cap" (peak_window_w <= power_cap_w).
  double peak_window_w = 0;
  /// The enforced IT cap, watts (0 = uncapped).  merge() throws on a
  /// mismatch of non-zero caps, like goodput_window_s.
  double power_cap_w = 0;
  /// Grid of energy_j_per_window (copied from powercap.window_s; 0 = no
  /// series).  Same adopt/mismatch rules as goodput_window_s.
  double power_window_s = 0;
  /// Charged joules per accounting window; merge() sums element-wise.
  std::vector<double> energy_j_per_window;

  /// Answered queries per charged joule (0 when nothing was metered).
  double goodput_per_joule() const noexcept {
    return energy_j > 0
               ? static_cast<double>(ok_queries + degraded_queries) / energy_j
               : 0;
  }

  /// leaf_requests / (queries * leaves): 1.0 = no extra load; a retry
  /// storm shows up here first.
  double retry_amplification = 0;
  double goodput_qps = 0;            ///< answered queries per second
  double availability_measured = 1;  ///< leaf up-fraction over the horizon
  double availability_predicted = 1; ///< steady-state availability algebra
  /// Sum over answered queries of (leaves contributing / leaves);
  /// ok queries contribute 1.0.  The result-quality metric.
  double sum_result_quality = 0;
  /// Fraction of answered queries at least as slow as the leaf p99 --
  /// the paper's 63%-at-fanout-100 claim, measured under queueing.
  double frac_over_leaf_p99 = 0;
  unsigned trials = 1;               ///< sims aggregated into this result

  double mean_result_quality() const noexcept {
    const std::uint64_t answered = ok_queries + degraded_queries;
    return answered ? sum_result_quality / static_cast<double>(answered) : 0;
  }

  /// Fold `other` into this result: counters add, histograms merge,
  /// goodput windows sum element-wise, per-trial ratios average
  /// (weighted by trial counts), and frac_over_leaf_p99 is recomputed
  /// from the merged histograms.
  void merge(const ClusterResult& other);
};

/// Run the cluster simulation.  Dispatches on net_latency_ms: 0 runs the
/// client engine over the direct transport, > 0 over the message
/// transport below.
ClusterResult simulate_cluster(const ClusterConfig& cfg);

/// The client engine over the message transport (requires
/// net_latency_ms > 0): the root client is one logical process, the
/// leaves are sharded into leaf_groups more, and every root<->leaf
/// exchange travels net_latency_ms each way through the PDES engine's
/// mailboxes.
/// cfg.workers picks the engine (0 = serial loopback reference, >= 1 =
/// des::ParallelEngine on that many threads) without affecting results.
/// simulate_cluster() calls this automatically; it is public so benches
/// and tests can name the path explicitly.
ClusterResult simulate_cluster_pdes(const ClusterConfig& cfg);

}  // namespace arch21::cloud
