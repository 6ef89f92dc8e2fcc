#include "cloud/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cloud/client.hpp"
#include "reliab/gray.hpp"

namespace arch21::cloud {

// Simulation time unit: milliseconds.

namespace {

[[noreturn]] void bad(const char* strct, const char* field) {
  throw std::invalid_argument(std::string(strct) + "::" + field);
}

/// The trace parameterization of a ClusterGrayConfig (entities, horizon
/// and seed left for the caller).
reliab::GrayTraceConfig gray_trace_config(const ClusterGrayConfig& g) {
  reliab::GrayTraceConfig gcfg;
  gcfg.episode = g.episode;
  gcfg.w_slow = g.w_slow;
  gcfg.w_lossy = g.w_lossy;
  gcfg.w_zombie = g.w_zombie;
  gcfg.w_jittery = g.w_jittery;
  gcfg.slow_factor_min = g.slow_factor_min;
  gcfg.slow_factor_max = g.slow_factor_max;
  gcfg.loss_fraction_min = g.loss_fraction_min;
  gcfg.loss_fraction_max = g.loss_fraction_max;
  gcfg.spike_ms_min = g.spike_ms_min;
  gcfg.spike_ms_max = g.spike_ms_max;
  gcfg.spike_prob = g.spike_prob;
  return gcfg;
}

}  // namespace

void ClusterFaultConfig::validate() const {
  // The burst is independent of the stochastic trace, so its fields are
  // checked whether or not `enabled` is set.
  if (!(burst_start_s >= 0)) {
    bad("ClusterFaultConfig", "burst_start_s must be >= 0");
  }
  if (!(burst_duration_s >= 0)) {
    bad("ClusterFaultConfig", "burst_duration_s must be >= 0");
  }
  if (burst_leaves > 0 && !(burst_duration_s > 0)) {
    bad("ClusterFaultConfig", "burst_leaves requires burst_duration_s > 0");
  }
  if (!enabled) return;
  if (!(leaf.mtbf_hours > 0)) {
    bad("ClusterFaultConfig", "leaf.mtbf_hours must be > 0");
  }
  if (!(leaf.mttr_hours >= 0)) {
    bad("ClusterFaultConfig", "leaf.mttr_hours must be >= 0");
  }
  if (leaves_per_domain > 0) {
    if (!(domain.mtbf_hours > 0)) {
      bad("ClusterFaultConfig", "domain.mtbf_hours must be > 0");
    }
    if (!(domain.mttr_hours >= 0)) {
      bad("ClusterFaultConfig", "domain.mttr_hours must be >= 0");
    }
  }
}

void ClusterGrayConfig::validate() const {
  // Burst fields are independent of the stochastic trace, so they are
  // checked whether or not `enabled` is set (like ClusterFaultConfig).
  if (!(burst_start_s >= 0)) {
    bad("ClusterGrayConfig", "burst_start_s must be >= 0");
  }
  if (!(burst_duration_s >= 0)) {
    bad("ClusterGrayConfig", "burst_duration_s must be >= 0");
  }
  if (burst_leaves > 0) {
    if (!(burst_duration_s > 0)) {
      bad("ClusterGrayConfig", "burst_leaves requires burst_duration_s > 0");
    }
    switch (burst_mode) {
      case reliab::GrayMode::kSlow:
        if (!(burst_severity > 1) || !std::isfinite(burst_severity)) {
          bad("ClusterGrayConfig", "slow burst_severity must be finite and > 1");
        }
        break;
      case reliab::GrayMode::kLossy:
        if (!(burst_severity > 0) || burst_severity > 1) {
          bad("ClusterGrayConfig", "lossy burst_severity must be in (0, 1]");
        }
        break;
      case reliab::GrayMode::kZombie:
        break;  // total reply loss; severity ignored
      case reliab::GrayMode::kJittery:
        if (!(burst_severity > 0) || !std::isfinite(burst_severity)) {
          bad("ClusterGrayConfig",
              "jittery burst_severity must be finite and > 0");
        }
        break;
    }
  }
  if (!(spike_prob > 0) || spike_prob > 1) {
    bad("ClusterGrayConfig", "spike_prob must be in (0, 1]");
  }
  if (!enabled) return;
  // The trace parameterization is exactly a GrayTraceConfig; delegate so
  // the two layers can never drift apart on what is legal.
  reliab::GrayTraceConfig gcfg = gray_trace_config(*this);
  gcfg.entities = 1;
  gcfg.validate();
}

void ClusterConfig::validate() const {
  if (leaves == 0) bad("ClusterConfig", "leaves must be > 0");
  if (!(query_rate_hz > 0)) bad("ClusterConfig", "query_rate_hz must be > 0");
  if (!(leaf_service_ms > 0)) {
    bad("ClusterConfig", "leaf_service_ms must be > 0");
  }
  if (!(service_sigma > 0)) bad("ClusterConfig", "service_sigma must be > 0");
  if (!(background_rate_hz >= 0)) {
    bad("ClusterConfig", "background_rate_hz must be >= 0");
  }
  if (background_rate_hz > 0 && !(background_ms > 0)) {
    bad("ClusterConfig", "background_ms must be > 0");
  }
  if (!(duration_s > 0)) bad("ClusterConfig", "duration_s must be > 0");
  leaf_queue.validate();
  if (!(goodput_window_s >= 0)) {
    bad("ClusterConfig", "goodput_window_s must be >= 0");
  }
  if (!(net_latency_ms >= 0) || !std::isfinite(net_latency_ms)) {
    bad("ClusterConfig", "net_latency_ms must be finite and >= 0");
  }
  if (workers > 0 && !(net_latency_ms > 0)) {
    // The conservative engine needs latency to hide behind; the
    // zero-latency model stays on the (serial) legacy path.
    bad("ClusterConfig", "workers > 0 requires net_latency_ms > 0");
  }
  if (leaf_groups > leaves) {
    bad("ClusterConfig", "leaf_groups must be <= leaves");
  }
#if ARCH21_OBS_ENABLED
  if (trace != nullptr && workers > 1) {
    // The trace ring is single-writer; with one worker the parallel
    // engine runs LP phases sequentially, so one ring still works.
    bad("ClusterConfig", "trace requires workers <= 1");
  }
#endif
  faults.validate();
  if (faults.burst_leaves > leaves) {
    bad("ClusterFaultConfig", "burst_leaves must be <= leaves");
  }
  policy.validate();
  powercap.validate();
  gray.validate();
  if (gray.burst_leaves > leaves) {
    bad("ClusterGrayConfig", "burst_leaves must be <= leaves");
  }
  // Powercap and gray injection are direct-transport features (gray
  // DETECTION -- policy.gray -- runs on both transports).  The window
  // energy contract is cluster-wide state that no leaf-group LP owns, and
  // the gray reply coins come from one stream consumed in reply order,
  // which LP-sharded leaves would split.  The message transport rejects
  // both rather than silently ignoring them.  (workers > 0 is excluded
  // transitively: it requires net_latency_ms > 0.)
  if (powercap.enabled && net_latency_ms > 0) {
    bad("ClusterConfig", "powercap requires net_latency_ms == 0");
  }
  if (gray.any() && net_latency_ms > 0) {
    bad("ClusterConfig", "gray injection requires net_latency_ms == 0");
  }
  if (gray.any() && powercap.enabled) {
    // Both layers drive Resource::set_speed; composed, one would silently
    // overwrite the other's p-state.
    bad("ClusterConfig", "gray injection and powercap are mutually exclusive");
  }
}

void ClusterResult::merge(const ClusterResult& other) {
  const double w_self = static_cast<double>(trials);
  const double w_other = static_cast<double>(other.trials);
  const double w = w_self + w_other;
  auto avg = [&](double a, double b) { return (a * w_self + b * w_other) / w; };

  queries += other.queries;
  ok_queries += other.ok_queries;
  degraded_queries += other.degraded_queries;
  failed_queries += other.failed_queries;
  query_ms.merge(other.query_ms);
  leaf_ms.merge(other.leaf_ms);
  mean_leaf_utilization =
      avg(mean_leaf_utilization, other.mean_leaf_utilization);
  hedge_fraction = avg(hedge_fraction, other.hedge_fraction);
  leaf_requests += other.leaf_requests;
  retries += other.retries;
  hedges += other.hedges;
  timeouts += other.timeouts;
  lost_requests += other.lost_requests;
  budget_denials += other.budget_denials;
  leaf_failures += other.leaf_failures;
  domain_failures += other.domain_failures;
  shed_queries += other.shed_queries;
  rejected_requests += other.rejected_requests;
  expired_drops += other.expired_drops;
  breaker_open_transitions += other.breaker_open_transitions;
  breaker_short_circuits += other.breaker_short_circuits;
  breaker_probes += other.breaker_probes;
  breaker_open_ms += other.breaker_open_ms;
  // Goodput windows are raw counts over the same wall-clock grid in every
  // trial, so merging is an element-wise sum (trials may differ in length
  // by a window when completions straggle past the horizon).  The grids
  // must actually match: summing counts recorded on different window
  // sizes would silently corrupt the hysteresis measurement.
  if (goodput_window_s > 0 && other.goodput_window_s > 0 &&
      goodput_window_s != other.goodput_window_s) {
    throw std::invalid_argument(
        "ClusterResult::merge: goodput_window_s mismatch");
  }
  if (goodput_window_s == 0) goodput_window_s = other.goodput_window_s;
  if (answered_per_window.size() < other.answered_per_window.size()) {
    answered_per_window.resize(other.answered_per_window.size(), 0);
  }
  for (std::size_t i = 0; i < other.answered_per_window.size(); ++i) {
    answered_per_window[i] += other.answered_per_window[i];
  }
  power_shed_queries += other.power_shed_queries;
  power_gate_stalls += other.power_gate_stalls;
  power_overruns += other.power_overruns;
  energy_j += other.energy_j;
  // The max (not a mean): a merged aggregate must still certify that no
  // accounting window in ANY trial exceeded the cap.
  peak_window_w = std::max(peak_window_w, other.peak_window_w);
  if (power_cap_w > 0 && other.power_cap_w > 0 &&
      power_cap_w != other.power_cap_w) {
    throw std::invalid_argument("ClusterResult::merge: power_cap_w mismatch");
  }
  if (power_cap_w == 0) power_cap_w = other.power_cap_w;
  if (power_window_s > 0 && other.power_window_s > 0 &&
      power_window_s != other.power_window_s) {
    throw std::invalid_argument(
        "ClusterResult::merge: power_window_s mismatch");
  }
  if (power_window_s == 0) power_window_s = other.power_window_s;
  if (energy_j_per_window.size() < other.energy_j_per_window.size()) {
    energy_j_per_window.resize(other.energy_j_per_window.size(), 0.0);
  }
  for (std::size_t i = 0; i < other.energy_j_per_window.size(); ++i) {
    energy_j_per_window[i] += other.energy_j_per_window[i];
  }
  gray_episodes += other.gray_episodes;
  gray_dropped_replies += other.gray_dropped_replies;
  gray_evictions += other.gray_evictions;
  gray_probations += other.gray_probations;
  gray_zombies += other.gray_zombies;
  gray_redirected_sends += other.gray_redirected_sends;
  adaptive_deadline_ms = avg(adaptive_deadline_ms, other.adaptive_deadline_ms);
  retry_amplification = avg(retry_amplification, other.retry_amplification);
  goodput_qps = avg(goodput_qps, other.goodput_qps);
  availability_measured =
      avg(availability_measured, other.availability_measured);
  availability_predicted =
      avg(availability_predicted, other.availability_predicted);
  sum_result_quality += other.sum_result_quality;
  trials += other.trials;
  frac_over_leaf_p99 = query_ms.fraction_above(leaf_ms.quantile(0.99));
}

namespace {

// The direct transport: every leaf is one group on the root simulator,
// and an attempt is a zero-latency des::Resource::request.  On top of
// the shared engine it carries the two direct-only features (see
// ClusterConfig::validate): gray reply effects on the leaves' replies and
// the powercap gate on their starts.
class DirectCluster : public ClientEngine<DirectCluster> {
 public:
  static constexpr const char* kRootTrack = "des-kernel";

  explicit DirectCluster(const ClusterConfig& cfg) : ClientEngine(cfg) {
    add_group(sim_, 0, cfg.leaves);
    // All background arrivals and query starts are scheduled up front;
    // pre-size the event tiers for them (plus in-flight completions) so
    // the hot loop rarely reallocates.
    sim_.reserve(static_cast<std::size_t>(
                     cfg.duration_s * (cfg.background_rate_hz * cfg.leaves +
                                       cfg.query_rate_hz) * 1.1) +
                 2 * cfg.leaves + 64);
  }

 private:
  friend class ClientEngine<DirectCluster>;

  des::Simulator& root() noexcept { return sim_; }
  void run_events() { sim_.run(); }
  std::uint64_t executed() const noexcept { return sim_.executed(); }
  std::uint64_t cancelled() const noexcept { return sim_.cancelled(); }

  /// Deliver one attempt.  A down leaf swallows it (only a timeout or
  /// the query deadline will tell the client); a full bounded queue
  /// bounces it synchronously.
  void send(const QueryRef& q, const CallRef& call, double service,
            unsigned t) {
    LeafGroup& grp = groups_[0];
    if (!grp.up[t]) {
      ++grp.lost;
      trace_instant(tr_.lost);
      return;
    }
    if (!grp.leaves[t]->request(service, [this, q, call, t](double, double) {
          on_leaf_reply(q, call, t);
        })) {
      on_rejected(t);
      trace_instant(tr_.rejected);
    }
  }

  /// A leaf finished serving an attempt: apply gray reply effects before
  /// the client sees anything.  A lossy/zombie leaf eats the reply (only
  /// the client's timeout will tell it); a jittery leaf delays it by an
  /// exponential spike -- the leaf itself kept full capacity, so this is
  /// a NIC/GC hiccup, not queueing.  All coins/draws come from the
  /// dedicated gray stream, and only while an episode is active.
  void on_leaf_reply(const QueryRef& q, const CallRef& call, unsigned target) {
    if (gray_active_) {
      const LeafGray& g = gray_[target];
      if (g.active) {
        switch (g.mode) {
          case reliab::GrayMode::kZombie:
            ++res_.gray_dropped_replies;
            return;
          case reliab::GrayMode::kLossy:
            if (grng_.chance(g.severity)) {
              ++res_.gray_dropped_replies;
              return;
            }
            break;
          case reliab::GrayMode::kJittery:
            if (grng_.chance(cfg_.gray.spike_prob)) {
              auto deliver = [this, q, call, target] {
                on_leaf_done(q, call, target);
              };
              static_assert(
                  sizeof(deliver) <= des::Simulator::Action::capacity(),
                  "spiked-reply closure must fit the Action inline buffer");
              sim_.schedule(grng_.exponential(g.severity), std::move(deliver));
              return;
            }
            break;
          case reliab::GrayMode::kSlow:
            break;  // slow acts through set_speed at onset
        }
      }
    }
    on_leaf_done(q, call, target);
  }

  /// The p-states and the window energy contract: one boundary per full
  /// window covering the horizon (the last may land past it -- windows
  /// are never shortened, so every window's charged power is comparable
  /// against the cap).  The final boundary also detaches the gates: the
  /// post-horizon drain runs unconstrained and unmetered.  The runtime
  /// draws no randomness, so none of this perturbs any other stream.
  void plan_powercap() {
    if (!cfg_.powercap.enabled) return;
    // Expected background busy fraction per leaf, for the governor's
    // admissible-rate estimate.
    const double bg_frac = cfg_.background_rate_hz * cfg_.background_ms * 1e-3;
    pcap_ = std::make_unique<PowercapRuntime>(
        cfg_.powercap, cfg_.leaves, cfg_.leaf_service_ms, bg_frac);
    pcap_->attach(groups_[0].leaves);
    res_.power_cap_w = pcap_->cap_w();
    res_.power_window_s = cfg_.powercap.window_s;
    const auto nwin = static_cast<std::uint64_t>(
        std::ceil(horizon_ms_ / pcap_->window_ms()));
    for (std::uint64_t k = 1; k <= nwin; ++k) {
      const bool last = k == nwin;
      sim_.schedule_at(static_cast<double>(k) * pcap_->window_ms(),
                       [this, last] {
                         pcap_->on_window(sim_.now());
                         if (last) pcap_->detach();
                       });
    }
  }

  /// Gray (fail-slow) injection: the seeded trace and/or the planted
  /// burst (the E34 trigger, mirroring E29's crash burst).
  void plan_gray_injection() {
    gray_active_ = cfg_.gray.any();
    if (!gray_active_) return;
    gray_.assign(cfg_.leaves, LeafGray{});
    // Dedicated stream for the per-reply coins (loss, jitter spikes) so
    // gray injection never perturbs workload/fault/client draws.
    grng_ = Rng(cfg_.seed, 0x6417);
    if (cfg_.gray.enabled) {
      reliab::GrayTraceConfig gcfg = gray_trace_config(cfg_.gray);
      gcfg.entities = cfg_.leaves;
      gcfg.horizon_hours = horizon_ms_ / kMsPerHour;
      // Its own sub-stream, like the fail-stop trace's 0xFA17.
      gcfg.seed = Rng(cfg_.seed, 0xFA51).next();
      for (const reliab::GrayEvent& ev :
           reliab::generate_gray_trace(gcfg).events) {
        sim_.schedule_at(ev.t_hours * kMsPerHour, [this, ev] {
          apply_gray(ev.entity, ev.mode, ev.severity, ev.onset);
        });
      }
    }
    if (cfg_.gray.burst_enabled()) {
      const unsigned n = std::min(cfg_.gray.burst_leaves, cfg_.leaves);
      const double t0 = cfg_.gray.burst_start_s * 1000.0;
      const reliab::GrayMode mode = cfg_.gray.burst_mode;
      const double sev = cfg_.gray.burst_severity;
      for (const bool onset : {true, false}) {
        sim_.schedule_at(
            onset ? t0 : t0 + cfg_.gray.burst_duration_s * 1000.0,
            [this, n, mode, sev, onset] {
              for (unsigned l = 0; l < n; ++l) apply_gray(l, mode, sev, onset);
            });
      }
    }
  }

  /// Apply one gray-degradation transition to leaf `l`.  Slow mode acts
  /// through the leaf's service speed (work genuinely takes longer);
  /// lossy/zombie/jittery act on the reply path in on_leaf_reply().  A
  /// clear restores full speed and deactivates the reply effects.
  void apply_gray(unsigned l, reliab::GrayMode mode, double severity,
                  bool onset) {
    LeafGray& g = gray_[l];
    des::Resource& leaf = *groups_[0].leaves[l];
    const bool was_slow = g.active && g.mode == reliab::GrayMode::kSlow;
    if (onset) {
      ++res_.gray_episodes;
      if (was_slow && mode != reliab::GrayMode::kSlow) leaf.set_speed(1.0);
      g.mode = mode;
      g.severity = severity;
      g.active = true;
      if (mode == reliab::GrayMode::kSlow) leaf.set_speed(1.0 / severity);
    } else {
      if (was_slow) leaf.set_speed(1.0);
      g.active = false;
    }
  }

  /// Live gray-degradation state of one leaf (injection side).
  struct LeafGray {
    reliab::GrayMode mode = reliab::GrayMode::kSlow;
    double severity = 0;
    bool active = false;
  };

  des::Simulator sim_;
  std::vector<LeafGray> gray_;
  bool gray_active_ = false;  // any gray injection configured this trial
  Rng grng_{0};  // gray-injection-only stream: loss coins, jitter spikes
};

}  // namespace

ClusterResult simulate_cluster(const ClusterConfig& cfg) {
  cfg.validate();
  if (cfg.net_latency_ms > 0) return simulate_cluster_pdes(cfg);
  return DirectCluster(cfg).run();
}

}  // namespace arch21::cloud
