#pragma once
// The cluster's fan-out client engine, written once and run over the two
// transports ClusterConfig::net_latency_ms selects:
//
//   * direct  (cluster.cpp, net_latency_ms == 0): every leaf is one
//     group on the root simulator and an attempt is a zero-latency
//     des::Resource::request, plus the direct-only gray reply effects
//     and powercap gate;
//   * message (cluster_pdes.cpp, net_latency_ms > 0): the leaves are
//     sharded into LP groups, and an attempt travels as a kReq message
//     and returns as kReply/kReject through the PDES engine's mailboxes.
//
// ClientEngine<Transport> is a CRTP base, so every per-attempt call into
// the transport is static dispatch: no virtual call and no std::function
// (and, on the direct transport, no heap allocation once the slabs and
// event tiers have reached their high-water marks; the message
// transport's serial table grows by one entry per send).  It owns
// everything the client does: query and call slabs with their counted
// refs, admission and the powercap admit hook, retries with backoff and
// the budget, hedges, timeouts and the adaptive deadline, quorum
// deadlines, breakers, the gray detector, goodput windows, trace
// instants, publish_metrics(), and the end-of-run folds.  It also builds
// the leaf plan both transports run: background arrivals, pre-drawn
// service times, and the fault trace and crash burst expanded into
// per-leaf transitions.
//
// A transport provides root() (the client's simulator), send() (deliver
// one attempt), run_events(), the kernel counters executed(),
// cancelled(), rebuckets() and rebucket_moved(), the name of the
// root trace track (kRootTrack), and may shadow the plan_powercap(),
// plan_gray_injection() and publish_engine_metrics() hooks.
//
// Determinism: the setup order in run() is also the order coincident
// setup events execute in, and every Rng is either consumed at setup in
// a fixed order or owned by one simulator (the client streams by the
// root, gray coins by the direct leaves).  Admission sheds before any
// per-query state is touched, and breaker, fault and gray draws come
// from dedicated streams, so a disabled policy leaves results
// byte-identical.  The setup sequence, per-event operation order and
// every draw site are pinned by tests/test_golden.cpp's digests.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cluster.hpp"
#include "cloud/gray_detect.hpp"
#include "cloud/policy.hpp"
#include "cloud/powercap.hpp"
#include "des/partition.hpp"
#include "des/resource.hpp"
#include "des/simulator.hpp"
#include "reliab/failure_trace.hpp"
#include "util/rng.hpp"
#include "util/slab.hpp"

#if ARCH21_OBS_ENABLED
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#endif

namespace arch21::cloud {

/// The leaves one simulator owns: the whole cluster on the direct
/// transport, one LP's contiguous shard on the message transport.
struct LeafGroup {
  std::vector<std::unique_ptr<des::Resource>> leaves;  ///< local index
  std::vector<char> up;     ///< effective state: own AND domain
  std::uint64_t lost = 0;   ///< arrivals at a down leaf + fail_all kills
  unsigned first = 0;       ///< global id of leaves[0]
  des::Simulator* sim = nullptr;
  std::uint32_t trace_tid = 0;  ///< kernel track (0 = the root's)
};

template <class Transport>
class ClientEngine {
 public:
  ClusterResult run();

 protected:
  static constexpr std::uint32_t kNull = Slab<int>::kNull;
  static constexpr double kMsPerHour = 3.6e6;

  explicit ClientEngine(const ClusterConfig& cfg)
      : cfg_(cfg), pol_(cfg.policy) {}

  struct QueryRec {
    unsigned replied = 0;
    double start_ms = 0;
    bool closed = false;
    des::EventHandle deadline{};
#if ARCH21_OBS_ENABLED
    /// Monotone per-trial serial keying the query's async trace span
    /// (slab handles recycle, so they cannot key overlapping spans).
    std::uint64_t trace_serial = 0;
#endif
  };
  struct CallRec {
    bool done = false;
    unsigned attempts = 0;  // non-hedge issues so far
    bool hedged = false;
    des::EventHandle timeout{};
    des::EventHandle hedge{};
    /// Counted reference to the owning query, dropped by release_call()
    /// when the call record itself dies.
    std::uint32_t query = kNull;
  };

  /// Tag: take ownership of the reference acquire() created instead of
  /// adding a new one.
  struct Adopt {};

  /// RAII counted reference to a QueryRec slot: retains on construction
  /// and copy, releases on destruction, so a closure capturing one keeps
  /// the record alive exactly as long as a captured shared_ptr would.
  /// 16 bytes (pointer + handle), so closures stay inline.
  struct QueryRef {
    ClientEngine* s = nullptr;
    std::uint32_t h = kNull;
    QueryRef(ClientEngine* sim, std::uint32_t handle) : s(sim), h(handle) {
      s->queries_.retain(h);
    }
    QueryRef(Adopt, ClientEngine* sim, std::uint32_t handle) noexcept
        : s(sim), h(handle) {}
    QueryRef(const QueryRef& o) : s(o.s), h(o.h) {
      if (s) s->queries_.retain(h);
    }
    QueryRef(QueryRef&& o) noexcept : s(o.s), h(o.h) { o.s = nullptr; }
    QueryRef& operator=(const QueryRef&) = delete;
    QueryRef& operator=(QueryRef&&) = delete;
    ~QueryRef() {
      if (s) s->queries_.release(h);
    }
    QueryRec* operator->() const noexcept { return &s->queries_[h]; }
  };

  /// RAII counted reference to a CallRec slot (see QueryRef).
  struct CallRef {
    ClientEngine* s = nullptr;
    std::uint32_t h = kNull;
    CallRef(Adopt, ClientEngine* sim, std::uint32_t handle) noexcept
        : s(sim), h(handle) {}
    CallRef(const CallRef& o) : s(o.s), h(o.h) {
      if (s) s->calls_.retain(h);
    }
    CallRef(CallRef&& o) noexcept : s(o.s), h(o.h) { o.s = nullptr; }
    CallRef& operator=(const CallRef&) = delete;
    CallRef& operator=(CallRef&&) = delete;
    ~CallRef() {
      if (s) s->release_call(h);
    }
    CallRec* operator->() const noexcept { return &s->calls_[h]; }
  };

  Transport& self() noexcept { return static_cast<Transport&>(*this); }
  double now() noexcept { return self().root().now(); }

  /// Drop one reference to a call record; when it was the last, also drop
  /// the record's reference to its query (read out *before* release()
  /// resets the slot -- the cross-slab pattern slab.hpp documents).
  void release_call(std::uint32_t h) {
    const std::uint32_t q = calls_[h].query;
    if (calls_.release(h) && q != kNull) queries_.release(q);
  }

  /// Create leaves [lo, hi) as one group on `sim`.
  void add_group(des::Simulator& sim, unsigned lo, unsigned hi) {
    LeafGroup& grp = groups_.emplace_back();
    grp.first = lo;
    grp.sim = &sim;
    grp.up.assign(hi - lo, 1);
    grp.leaves.reserve(hi - lo);
    for (unsigned l = lo; l < hi; ++l) {
      grp.leaves.push_back(
          std::make_unique<des::Resource>(sim, 1, cfg_.leaf_queue));
    }
  }

  unsigned group_of(unsigned l) const noexcept {
    return des::group_of(l, cfg_.leaves,
                         static_cast<unsigned>(groups_.size()));
  }

  /// A leaf's effective up/down transition, on its group's simulator.
  void on_leaf_transition(unsigned g, unsigned li, bool up) {
    LeafGroup& grp = groups_[g];
    if (grp.up[li] && !up) {
      // Crash: everything queued or in service on this leaf is lost.
      grp.lost += grp.leaves[li]->fail_all();
    }
    grp.up[li] = up ? 1 : 0;
  }

  // Transport hooks a transport may shadow (direct-only features).
  void plan_powercap() {}
  void plan_gray_injection() {}
  void publish_engine_metrics() {}

  // ----------------------------------------------------- client policy

  /// Admission decision for one arriving query: concurrency cap first
  /// (a full root burns no rate tokens), then the token bucket.  Only
  /// called while admission is enabled; an admitted query holds an
  /// in-flight slot until it closes.
  bool admit() {
    const AdmissionPolicy& a = pol_.admission;
    if (a.max_in_flight > 0 && in_flight_ >= a.max_in_flight) return false;
    if (a.rate_qps > 0) {
      admission_.refill(now(), a.rate_qps, a.burst);
      if (!admission_.take()) return false;
    }
    ++in_flight_;
    return true;
  }

  /// Close the query's root-side bookkeeping (callers set q->closed).
  void free_in_flight() {
    if (in_flight_ > 0) --in_flight_;
  }

  /// Count an answered (ok or degraded) query into its goodput window.
  void note_answered() {
    if (window_ms_ <= 0) return;
    const auto idx = static_cast<std::size_t>(now() / window_ms_);
    if (idx >= res_.answered_per_window.size()) {
      res_.answered_per_window.resize(idx + 1, 0);
    }
    ++res_.answered_per_window[idx];
  }

  bool breaker_allows(unsigned l) {
    BreakerBank::Event ev = BreakerBank::Event::kNone;
    const bool ok = brk_.allows(l, now(), &ev);
    trace_breaker(ev);
    return ok;
  }

  void breaker_record(unsigned l, bool ok) {
    if (pol_.breaker.enabled) trace_breaker(brk_.record(l, ok, now()));
  }

  void trace_breaker([[maybe_unused]] BreakerBank::Event ev) {
#if ARCH21_OBS_ENABLED
    if (trace_ && ev != BreakerBank::Event::kNone) {
      trace_->instant(tr_.breaker[static_cast<int>(ev)], now(), 0);
    }
#endif
  }

  /// A client lifecycle marker on the root's track.
  void trace_instant([[maybe_unused]] std::uint32_t name) {
#if ARCH21_OBS_ENABLED
    if (trace_) trace_->instant(name, now(), 0);
#endif
  }

  /// A query's start event: admission first (a shed query touches no
  /// per-query state and issues nothing -- its pre-drawn service times
  /// are simply never used, which keeps workload draws aligned across
  /// protected/unprotected configs); then create the record, arm the
  /// quorum deadline, and issue the first attempt on every leaf.
  void on_query_start(std::size_t services_base) {
    // The power cap is the primary constraint: the governor's cap-aware
    // admission sheds BEFORE the resilience-policy admission -- a
    // power-shed query touches no per-query state, like a policy shed.
    if (pcap_ && !pcap_->admit(now())) {
      trace_instant(tr_.power_shed);
      return;
    }
    if (pol_.admission.enabled && !admit()) {
      ++res_.shed_queries;
      trace_instant(tr_.shed);
      return;
    }
    QueryRef q(Adopt{}, this, queries_.acquire());
    q->start_ms = now();
    ++started_;
#if ARCH21_OBS_ENABLED
    if (trace_) {
      q->trace_serial = started_;
      trace_->async_begin(tr_.query, q->trace_serial, now());
    }
#endif
    if (pol_.quorum.enabled()) {
      q->deadline = self().root().schedule_cancellable(
          pol_.quorum.deadline_ms, [this, q] { on_deadline(q); });
    }
    for (unsigned l = 0; l < cfg_.leaves; ++l) {
      const std::uint32_t ch = calls_.acquire();
      queries_.retain(q.h);
      calls_[ch].query = q.h;
      CallRef call(Adopt{}, this, ch);
      issue(q, call, services_[services_base + l], l, false);
    }
  }

  /// Issue one attempt (or hedge) of a leaf call against `target`.  A
  /// gray-evicted target is steered round-robin to a healthy peer; an
  /// open breaker short-circuits the send and redirects it (up to three
  /// draws from the breaker stream) to a replica that admits traffic.
  /// When nothing may be sent, the armed timeout recovers the call.
  void issue(const QueryRef& q, const CallRef& call, double service,
             unsigned target, bool is_hedge) {
    if (call->done || q->closed) return;
    ++res_.leaf_requests;
    if (is_hedge) {
      ++res_.hedges;
    } else {
      ++call->attempts;
      if (pol_.budget.enabled && call->attempts == 1) {
        budget_.credit(pol_.budget.ratio, pol_.budget.burst);
      }
    }

    unsigned t = target;
    bool send = true;
    if (gdet_.engaged() && gdet_.evicted(t)) {
      // Down-weighted to zero: no redirect storm and no RNG.
      ++res_.gray_redirected_sends;
      const unsigned alt = gdet_.redirect_target(t);
      if (alt == GrayDetector::kNone) {
        send = false;
      } else {
        t = alt;
      }
    }
    if (send && pol_.breaker.enabled && !breaker_allows(t)) {
      ++res_.breaker_short_circuits;
      trace_instant(tr_.brk_short);
      send = false;
      for (int k = 0; k < 3; ++k) {
        const auto alt = static_cast<unsigned>(brk_.rng().below(cfg_.leaves));
        if (breaker_allows(alt)) {
          t = alt;
          send = true;
          break;
        }
      }
    }
    if (send) {
      if (gdet_.engaged()) gdet_.on_sent(t);
      self().send(q, call, service, t);
    }

    if (!is_hedge && pol_.hedge_after_ms > 0 && !call->hedged &&
        call->attempts == 1) {
      auto hedge = [this, q, call, service] { on_hedge(q, call, service); };
      static_assert(sizeof(hedge) <= des::Simulator::Action::capacity(),
                    "hedge closure must fit the Action inline buffer");
      call->hedge = self().root().schedule_cancellable(pol_.hedge_after_ms,
                                                       std::move(hedge));
    }
    if (!is_hedge && pol_.retry.timeout_ms > 0) {
      // The adaptive deadline (when on) replaces the fixed per-attempt
      // timeout with the detector's tracked p99-based value, clamped to
      // [deadline_min_ms, the fixed timeout].
      const double to = gdet_.engaged() && pol_.gray.adaptive_deadline
                            ? gdet_.timeout_ms()
                            : pol_.retry.timeout_ms;
      auto timeout = [this, q, call, service, t] {
        on_timeout(q, call, service, t);
      };
      static_assert(sizeof(timeout) <= des::Simulator::Action::capacity(),
                    "timeout closure must fit the Action inline buffer");
      call->timeout =
          self().root().schedule_cancellable(to, std::move(timeout));
    }
  }

  /// A leaf bounced an attempt off its full bounded queue.  A rejecting
  /// replica is an overloaded replica (a breaker failure); for the gray
  /// detector the bounce is a LOUD refusal, not a silent non-reply --
  /// counting it toward the reply rate would let redirect-concentrated
  /// load evict the healthy majority.  The armed timeout recovers the
  /// call itself.
  void on_rejected(unsigned target) {
    breaker_record(target, false);
    if (gdet_.engaged()) gdet_.on_rejected(target);
  }

  /// A reply reached the client: a breaker success and a detector sample
  /// (late and duplicate replies included -- exactly the fail-slow
  /// signal the breaker window launders into successes).  The first
  /// reply per call resolves it.
  void on_leaf_done(const QueryRef& q, const CallRef& call, unsigned target) {
    breaker_record(target, true);
    if (gdet_.engaged()) gdet_.on_reply(target, now() - q->start_ms);
    if (call->done) return;  // a faster attempt already answered
    call->done = true;
    self().root().cancel(call->timeout);
    self().root().cancel(call->hedge);
    const double lat = now() - q->start_ms;
    res_.leaf_ms.add(lat);
    if (q->closed) return;  // degraded/failed; reply arrived late
    if (++q->replied == cfg_.leaves) {
      q->closed = true;
      free_in_flight();
      self().root().cancel(q->deadline);
      ++res_.ok_queries;
      res_.sum_result_quality += 1.0;
      res_.query_ms.add(lat);
      note_answered();
#if ARCH21_OBS_ENABLED
      if (mreg_) mreg_->record(m_query_ms_, lat);
      if (trace_) {
        trace_->async_end(tr_.query, q->trace_serial, now(), tr_.quality,
                          1.0);
      }
#endif
    }
  }

  /// Quorum deadline: close the query with whatever has replied.
  void on_deadline(const QueryRef& q) {
    if (q->closed) return;
    q->closed = true;
    free_in_flight();
    trace_instant(tr_.deadline);
    double quality = 0;
    if (q->replied >= quorum_needed_) {
      ++res_.degraded_queries;
      quality = static_cast<double>(q->replied) /
                static_cast<double>(cfg_.leaves);
      res_.sum_result_quality += quality;
      res_.query_ms.add(now() - q->start_ms);
      note_answered();
#if ARCH21_OBS_ENABLED
      if (mreg_) mreg_->record(m_query_ms_, now() - q->start_ms);
#endif
    } else {
      ++res_.failed_queries;
    }
#if ARCH21_OBS_ENABLED
    if (trace_) {
      trace_->async_end(tr_.query, q->trace_serial, now(), tr_.quality,
                        quality);
    }
#endif
  }

  void on_hedge(const QueryRef& q, const CallRef& call, double service) {
    if (call->done || q->closed) return;
    call->hedged = true;
    trace_instant(tr_.hedge);
    issue(q, call, service, static_cast<unsigned>(crng_.below(cfg_.leaves)),
          true);
  }

  void on_timeout(const QueryRef& q, const CallRef& call, double service,
                  unsigned target) {
    // The attempt against `target` got no reply in time: a failure
    // observation whether or not we still care about the query.
    breaker_record(target, false);
    if (call->done || q->closed) return;
    ++res_.timeouts;
    trace_instant(tr_.timeout);
    if (call->attempts > pol_.retry.max_retries) return;
    if (pol_.budget.enabled && !budget_.take()) {
      ++res_.budget_denials;
      trace_instant(tr_.denied);
      return;
    }
    ++res_.retries;
    trace_instant(tr_.retry);
    const double backoff = pol_.retry.backoff_ms(call->attempts - 1, crng_);
    // Retry against a random replica, like the hedge path.
    const unsigned alt = static_cast<unsigned>(crng_.below(cfg_.leaves));
    auto retry = [this, q, call, service, alt] {
      issue(q, call, service, alt, false);
    };
    static_assert(sizeof(retry) <= des::Simulator::Action::capacity(),
                  "retry closure must fit the Action inline buffer");
    self().root().schedule(backoff, std::move(retry));
  }

  // --------------------------------------------------------- leaf plan

  /// Expand the stochastic fault trace and the deterministic crash burst
  /// into per-leaf EFFECTIVE up/down transitions at setup (a serial
  /// replay of the own/domain state machine), each scheduled on its
  /// leaf's group simulator: the domain coupling is resolved here, so
  /// no leaf event ever reads another group's state.
  void plan_faults() {
    struct Raw {
      double t_ms;
      reliab::FailureEvent ev;
      int burst = 0;  // 0 = trace event, 1 = burst down, 2 = burst up
    };
    std::vector<Raw> raw;
    reliab::FailureTraceConfig fcfg;
    if (cfg_.faults.enabled) {
      fcfg.leaves = cfg_.leaves;
      fcfg.leaves_per_domain = cfg_.faults.leaves_per_domain;
      fcfg.leaf = cfg_.faults.leaf;
      fcfg.domain = cfg_.faults.domain;
      fcfg.horizon_hours = horizon_ms_ / kMsPerHour;
      // A dedicated sub-stream so the trace never perturbs workload draws.
      fcfg.seed = Rng(cfg_.seed, 0xFA17).next();
      const reliab::FailureTrace trace = reliab::generate_failure_trace(fcfg);
      res_.leaf_failures = trace.leaf_failures;
      res_.domain_failures = trace.domain_failures;
      res_.availability_measured = trace.measured_leaf_availability(fcfg);
      res_.availability_predicted = fcfg.predicted_leaf_availability();
      raw.reserve(trace.events.size() + 2);
      for (const reliab::FailureEvent& ev : trace.events) {
        raw.push_back(Raw{ev.t_hours * kMsPerHour, ev});
      }
    }
    const unsigned nburst = std::min(cfg_.faults.burst_leaves, cfg_.leaves);
    if (cfg_.faults.burst_enabled()) {
      const double t0 = cfg_.faults.burst_start_s * 1000.0;
      raw.push_back(Raw{t0, reliab::FailureEvent{}, 1});
      raw.push_back(Raw{t0 + cfg_.faults.burst_duration_s * 1000.0,
                        reliab::FailureEvent{}, 2});
      res_.leaf_failures += nburst;
    }
    // Coincident events keep their scheduling order: trace, then burst.
    std::stable_sort(raw.begin(), raw.end(), [](const Raw& a, const Raw& b) {
      return a.t_ms < b.t_ms;
    });
    const unsigned per_domain = fcfg.leaves_per_domain;
    std::vector<char> own(cfg_.leaves, 1);
    std::vector<char> eff(cfg_.leaves, 1);
    std::vector<char> dom(std::max(fcfg.domains(), 1u), 1);
    auto dom_ok = [&](unsigned l) {
      return per_domain == 0 || dom[l / per_domain] != 0;
    };
    auto set_eff = [&](double t_ms, unsigned l, bool up) {
      if ((eff[l] != 0) == up) return;
      eff[l] = up ? 1 : 0;
      const unsigned g = group_of(l);
      const unsigned li = l - groups_[g].first;
      groups_[g].sim->schedule_at(
          t_ms, [this, g, li, up] { on_leaf_transition(g, li, up); });
    };
    for (const Raw& r : raw) {
      if (r.burst != 0) {
        const bool up = r.burst == 2;
        for (unsigned l = 0; l < nburst; ++l) {
          own[l] = up ? 1 : 0;
          set_eff(r.t_ms, l, up && dom_ok(l));
        }
      } else if (r.ev.is_domain) {
        dom[r.ev.entity] = r.ev.up ? 1 : 0;
        const unsigned begin = r.ev.entity * per_domain;
        const unsigned end = std::min(begin + per_domain, cfg_.leaves);
        for (unsigned l = begin; l < end; ++l) {
          set_eff(r.t_ms, l, r.ev.up && own[l]);
        }
      } else {
        own[r.ev.entity] = r.ev.up ? 1 : 0;
        set_eff(r.t_ms, r.ev.entity, r.ev.up && dom_ok(r.ev.entity));
      }
    }
  }

  /// Background load on each leaf (dropped while the leaf is down).  The
  /// Rng splits in GLOBAL leaf order, so draws are partition-independent.
  void plan_background(Rng& rng) {
    for (unsigned l = 0; l < cfg_.leaves; ++l) {
      double t = 0;
      Rng brng = rng.split();
      if (cfg_.background_rate_hz <= 0) continue;
      LeafGroup& grp = groups_[group_of(l)];
      des::Resource* leaf = grp.leaves[l - grp.first].get();
      const char* up = &grp.up[l - grp.first];
      while (true) {
        t += brng.exponential(1000.0 / cfg_.background_rate_hz);
        if (t >= horizon_ms_) break;
        const double sz = brng.exponential(cfg_.background_ms);
        grp.sim->schedule_at(t, [leaf, sz, up] {
          if (*up) leaf->request(sz, nullptr);
        });
      }
    }
  }

  /// Query arrivals on the root, each with its per-leaf service times
  /// pre-drawn so the workload is identical across policy/fault variants
  /// of the same seed (one flat vector; a start event remembers its
  /// slice's base index).
  void plan_queries(Rng& rng) {
    Rng qrng = rng.split();
    crng_ = rng.split();
    budget_.tokens = pol_.budget.burst;
    admission_.tokens = pol_.admission.burst;
    quorum_needed_ = static_cast<unsigned>(std::ceil(
        pol_.quorum.quorum_fraction * static_cast<double>(cfg_.leaves)));
    const double mu_log = std::log(cfg_.leaf_service_ms) -
                          0.5 * cfg_.service_sigma * cfg_.service_sigma;
    double qt = 0;
    while (true) {
      qt += qrng.exponential(1000.0 / cfg_.query_rate_hz);
      if (qt >= horizon_ms_) break;
      const std::size_t base = services_.size();
      for (unsigned l = 0; l < cfg_.leaves; ++l) {
        services_.push_back(qrng.lognormal(mu_log, cfg_.service_sigma));
      }
      self().root().schedule_at(qt, [this, base] { on_query_start(base); });
    }
  }

  // --------------------------------------------------- obs + end of run

#if ARCH21_OBS_ENABLED
  /// Wire the trace sink into every layer of this trial: the root
  /// kernel's instants and the client lifecycle on track 0, leaf l's
  /// serve spans on track 1 + l, and -- when a group runs its own kernel
  /// (the parallel engine) -- group g's kernel instants on track
  /// 1 + leaves + g.
  void attach_trace(obs::TraceBuffer* t) {
    trace_ = t;
    self().root().set_trace(t, 0);
    t->name_thread(0, Transport::kRootTrack);
    for (unsigned g = 0; g < groups_.size(); ++g) {
      LeafGroup& grp = groups_[g];
      if (grp.sim != &self().root()) {
        grp.trace_tid = 1 + cfg_.leaves + g;
        grp.sim->set_trace(t, grp.trace_tid);
        t->name_thread(grp.trace_tid, "pdes-lp-" + std::to_string(1 + g));
      }
      for (unsigned li = 0; li < grp.leaves.size(); ++li) {
        const unsigned l = grp.first + li;
        t->name_thread(1 + l, "leaf-" + std::to_string(l));
        grp.leaves[li]->set_trace(t, 1 + l);
      }
    }
    tr_.query = t->intern("query");
    tr_.retry = t->intern("retry");
    tr_.hedge = t->intern("hedge");
    tr_.timeout = t->intern("timeout");
    tr_.lost = t->intern("lost");
    tr_.denied = t->intern("budget-denied");
    tr_.deadline = t->intern("deadline");
    tr_.quality = t->intern("quality");
    tr_.shed = t->intern("shed");
    tr_.rejected = t->intern("rejected");
    tr_.breaker[1] = t->intern("breaker-open");
    tr_.breaker[2] = t->intern("breaker-half-open");
    tr_.breaker[3] = t->intern("breaker-close");
    tr_.brk_short = t->intern("breaker-short-circuit");
    tr_.power_shed = t->intern("power-shed");
  }

  /// Fold this trial's counters and slab high-water marks into the
  /// process-wide registry.  Called once at the end of run(); a no-op
  /// while the registry is disabled.
  void publish_metrics() {
    auto& m = obs::MetricsRegistry::global();
    if (!m.enabled()) return;
    m.add(m.counter("cluster.queries"), res_.queries);
    m.add(m.counter("cluster.retries"), res_.retries);
    m.add(m.counter("cluster.hedges"), res_.hedges);
    m.add(m.counter("cluster.timeouts"), res_.timeouts);
    m.add(m.counter("cluster.lost_requests"), res_.lost_requests);
    m.add(m.counter("cluster.budget_denials"), res_.budget_denials);
    m.add(m.counter("cluster.shed.queries"), res_.shed_queries);
    m.add(m.counter("cluster.shed.rejected"), res_.rejected_requests);
    m.add(m.counter("cluster.shed.expired"), res_.expired_drops);
    m.add(m.counter("cluster.breaker.opens"), res_.breaker_open_transitions);
    m.add(m.counter("cluster.breaker.short_circuits"),
          res_.breaker_short_circuits);
    m.add(m.counter("cluster.breaker.probes"), res_.breaker_probes);
    m.gauge_max(m.gauge("cluster.breaker.open_ms"), res_.breaker_open_ms);
    if (pcap_) {
      m.add(m.counter("cluster.power.shed"), res_.power_shed_queries);
      m.add(m.counter("cluster.power.stalls"), res_.power_gate_stalls);
      m.gauge_max(m.gauge("cluster.power.peak_window_w"),
                  res_.peak_window_w);
    }
    std::size_t qhwm = 0;
    for (const LeafGroup& grp : groups_) {
      for (const auto& leaf : grp.leaves) {
        qhwm = std::max(qhwm, leaf->queue_high_water());
      }
    }
    m.gauge_max(m.gauge("cluster.leaf_queue.hwm"), static_cast<double>(qhwm));
    m.add(m.counter("des.executed"), self().executed());
    m.add(m.counter("des.cancelled"), self().cancelled());
    m.add(m.counter("des.rebucket.count"), self().rebuckets());
    m.add(m.counter("des.rebucket.moved"), self().rebucket_moved());
    m.gauge_max(m.gauge("slab.queries.hwm"),
                static_cast<double>(queries_.high_water()));
    m.gauge_max(m.gauge("slab.calls.hwm"),
                static_cast<double>(calls_.high_water()));
    self().publish_engine_metrics();
  }
#endif

  /// End-of-run folds: server-side drop totals from the leaves, breaker
  /// books (closed at the last event anywhere), detector and powercap
  /// telemetry, and the per-trial ratios.
  ClusterResult finish() {
    res_.queries = started_;
    // Queries that neither completed nor resolved at a deadline (e.g. a
    // reply lost to a crash with no timeout armed) are failures too.
    res_.failed_queries += started_ - res_.ok_queries -
                           res_.degraded_queries - res_.failed_queries;
    double end = now();
    double util = 0;
    for (const LeafGroup& grp : groups_) {  // global leaf order
      res_.lost_requests += grp.lost;
      end = std::max(end, grp.sim->now());
      for (const auto& leaf : grp.leaves) {
        res_.rejected_requests += leaf->rejected();
        res_.expired_drops += leaf->expired();
        util += leaf->busy_time() / horizon_ms_;
      }
    }
    res_.breaker_open_transitions = brk_.opens();
    res_.breaker_probes = brk_.probes();
    res_.breaker_open_ms = brk_.open_ms(end);
    if (gdet_.engaged()) {
      res_.gray_evictions = gdet_.evictions();
      res_.gray_probations = gdet_.probations();
      res_.gray_zombies = gdet_.zombies();
      res_.adaptive_deadline_ms =
          pol_.gray.adaptive_deadline ? gdet_.timeout_ms() : 0;
    }
    if (pcap_) {
      pcap_->finish();
      const PowercapStats& ps = pcap_->stats();
      res_.power_shed_queries = ps.shed_queries;
      res_.power_gate_stalls = ps.gate_stalls;
      res_.power_overruns = ps.overruns;
      res_.energy_j = ps.energy_j;
      res_.peak_window_w = ps.peak_window_w;
      res_.energy_j_per_window = ps.energy_j_per_window;
    }
    res_.mean_leaf_utilization = util / static_cast<double>(cfg_.leaves);
    res_.hedge_fraction =
        res_.leaf_requests ? static_cast<double>(res_.hedges) /
                                 static_cast<double>(res_.leaf_requests)
                           : 0;
    res_.retry_amplification =
        started_ ? static_cast<double>(res_.leaf_requests) /
                       (static_cast<double>(started_) *
                        static_cast<double>(cfg_.leaves))
                 : 0;
    res_.goodput_qps =
        static_cast<double>(res_.ok_queries + res_.degraded_queries) /
        cfg_.duration_s;
    res_.frac_over_leaf_p99 =
        res_.query_ms.fraction_above(res_.leaf_ms.quantile(0.99));
#if ARCH21_OBS_ENABLED
    publish_metrics();
#endif
    return std::move(res_);
  }

  const ClusterConfig& cfg_;
  const ResiliencePolicy pol_;  // a copy: read on every attempt
  ClusterResult res_;
  // Declaration order is a destruction contract: the transport's
  // simulators die first (derived members), then the groups' Resources,
  // then the slabs -- so every pending action or queued completion that
  // captured a QueryRef/CallRef can still release it.
  Slab<QueryRec> queries_;
  Slab<CallRec> calls_;
  std::vector<LeafGroup> groups_;
  /// Power-capped co-simulation engine (direct transport only; null
  /// unless powercap.enabled).
  std::unique_ptr<PowercapRuntime> pcap_;
  BreakerBank brk_;
  GrayDetector gdet_;             // client-side fail-slow detector (no RNG)
  std::vector<double> services_;  // pre-drawn per-(query,leaf) service times
  Rng crng_{0};  // client-side picks: hedge/retry targets, backoff jitter
  TokenBucket budget_;     // retry budget
  TokenBucket admission_;  // admission rate gate
  unsigned in_flight_ = 0;  // queries open at the root
  double window_ms_ = 0;    // goodput window size (0 = off)
  unsigned quorum_needed_ = 0;
  double horizon_ms_ = 0;
  std::uint64_t started_ = 0;

  /// Interned client trace names (attach_trace() fills them in).
  struct TraceNames {
    std::uint32_t query = 0, retry = 0, hedge = 0, timeout = 0, lost = 0,
                  denied = 0, deadline = 0, quality = 0, shed = 0,
                  rejected = 0, brk_short = 0, power_shed = 0;
    std::uint32_t breaker[4] = {};  // by BreakerBank::Event
  } tr_;
#if ARCH21_OBS_ENABLED
  obs::TraceBuffer* trace_ = nullptr;
  obs::MetricsRegistry* mreg_ = nullptr;  // set iff enabled at trial start
  obs::MetricsRegistry::MetricId m_query_ms_ = 0;
#endif
};

/// One trial.  The transport has built its leaf groups; the setup order
/// below is also the order coincident setup events run in (powercap
/// windows before fault transitions matters; the detector's evals
/// commute with every other setup event).
template <class Transport>
ClusterResult ClientEngine<Transport>::run() {
  Rng rng(cfg_.seed);
  // A dedicated sub-stream: breaker jitter/redirect draws never perturb
  // workload, fault, or client-policy draws.
  brk_.init(pol_.breaker, cfg_.leaves, Rng(cfg_.seed, 0xB4EA));
#if ARCH21_OBS_ENABLED
  if (cfg_.trace) attach_trace(cfg_.trace);
  if (auto& mreg = obs::MetricsRegistry::global(); mreg.enabled()) {
    mreg_ = &mreg;
    // Same layout as ClusterResult::query_ms so quantiles agree.
    m_query_ms_ = mreg.timer("cluster.query_ms", 1e-2, 1e5, 90);
  }
#endif
  horizon_ms_ = cfg_.duration_s * 1000.0;
  window_ms_ = cfg_.goodput_window_s * 1000.0;
  res_.goodput_window_s = cfg_.goodput_window_s;
  if (window_ms_ > 0) {
    // Completions can straggle a little past the horizon; headroom keeps
    // note_answered()'s resize from reallocating in steady state.
    res_.answered_per_window.reserve(
        static_cast<std::size_t>(horizon_ms_ / window_ms_) + 4);
  }

  self().plan_powercap();
  if (pol_.gray.enabled) {
    // Detection is root state only: all scoring happens on replies the
    // client observes.
    gdet_.init(pol_.gray, cfg_.leaves, pol_.retry.timeout_ms);
    const double step = pol_.gray.eval_interval_ms;
    const auto evals =
        static_cast<std::uint64_t>(std::ceil(horizon_ms_ / step));
    for (std::uint64_t k = 1; k <= evals; ++k) {
      self().root().schedule_at(static_cast<double>(k) * step,
                                [this] { gdet_.eval(now()); });
    }
  }
  plan_faults();
  self().plan_gray_injection();
  plan_background(rng);
  plan_queries(rng);

  self().run_events();  // drain: completions may straggle past the horizon
  return finish();
}

}  // namespace arch21::cloud
