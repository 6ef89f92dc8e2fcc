#pragma once
// Resilience policies for the fork-join cluster.  Client side: per-request
// timeouts, bounded retries with exponential backoff + jitter, a global
// retry *budget* that prevents retry storms under overload, hedged
// requests, and quorum-based graceful degradation.  Server/edge side:
// admission control at the root (token-bucket rate limit + max-concurrent
// in-flight, with counted sheds) and per-replica circuit breakers
// (rolling failure window, closed -> open -> half-open with probes).
//
// These are the standard production mitigations (Dean & Barroso's "Tail
// at Scale", SRE retry-budget practice, and the metastable-failure
// literature's load-shedding prescriptions) that the paper's datacenter
// agenda implies but never models; simulate_cluster() executes them
// against injected failures so their costs -- extra backend load, shed
// traffic, lost result quality -- are measured, not assumed.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace arch21::cloud {

/// Per-request timeout + bounded retry with exponential backoff.
struct RetryPolicy {
  /// Give up on a leaf request after this long (0 disables timeouts, and
  /// with them retries -- a client that never times out never retries).
  double timeout_ms = 0;
  /// Maximum retries per leaf call after the initial attempt.
  unsigned max_retries = 0;
  double backoff_base_ms = 2.0;  ///< delay before the first retry
  double backoff_mult = 2.0;     ///< multiplier per subsequent retry
  double jitter_frac = 0.2;      ///< uniform +/- fraction on each backoff

  /// Backoff before retry `retry_index` (0-based), jittered via `rng` and
  /// clamped to >= 0 (a jittered backoff must never schedule into the
  /// past, whatever the jitter draw).  Also records the chosen delay into
  /// the global metrics registry's "policy.backoff_ms" timer when metrics
  /// are enabled (which may allocate a per-thread shard on first use,
  /// hence not noexcept).
  double backoff_ms(unsigned retry_index, Rng& rng) const;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Global token-bucket retry budget: every first-attempt leaf request
/// credits `ratio` tokens (capped at `burst`); every retry debits one.
/// A retry is only issued while a full token is available, so cluster-
/// wide retry traffic is bounded by ratio x regular traffic + burst --
/// the mechanism that keeps a failure burst from amplifying itself into
/// a retry storm.
struct RetryBudget {
  bool enabled = false;
  double ratio = 0.1;   ///< sustained retries per regular request
  double burst = 50;    ///< initial tokens / bucket cap

  void validate() const;
};

/// Quorum-based graceful degradation: at `deadline_ms` after the query
/// started, the root returns a *partial* result if at least
/// ceil(quorum_fraction * leaves) leaves have replied, trading result
/// quality (fraction of leaves contributing) for bounded tail latency.
struct QuorumPolicy {
  double quorum_fraction = 1.0;  ///< 1.0 = only full results
  double deadline_ms = 0;        ///< 0 = wait for every leaf

  bool enabled() const noexcept {
    return deadline_ms > 0 && quorum_fraction < 1.0;
  }
  void validate() const;
};

/// Admission control at the query root: the load shedder that keeps
/// accepted work inside the cluster's capacity so it completes, instead
/// of letting every arrival in to queue forever (the unbounded-queue
/// half of a metastable failure).  Two independent gates, both counted
/// as sheds in ClusterResult::shed_queries:
///   * a token bucket over arrivals (`rate_qps` sustained, `burst` deep,
///     0 = no rate gate), and
///   * a concurrency cap (`max_in_flight` queries open at the root,
///     0 = no cap).
/// Note: the concurrency gate frees a slot when a query *closes* (all
/// leaves replied, or the quorum deadline resolved it); pair it with a
/// QuorumPolicy deadline so every accepted query eventually closes, or
/// replies lost to crashes can pin slots for the rest of the run.
struct AdmissionPolicy {
  bool enabled = false;
  double rate_qps = 0;          ///< sustained accepted-query rate; 0 = off
  double burst = 10;            ///< token-bucket depth for the rate gate
  unsigned max_in_flight = 0;   ///< concurrent open queries; 0 = off

  void validate() const;
};

/// Per-replica circuit breaker (client-side bookkeeping, one state
/// machine per leaf): a rolling window of the last `window` observed
/// outcomes per replica -- a reply is a success, a timeout against that
/// replica is a failure.  When at least `min_samples` outcomes are in
/// the window and the failure fraction reaches `failure_threshold`, the
/// breaker *opens*: sends to that replica are short-circuited (and
/// redirected to another replica when one is available) for `open_ms`,
/// jittered by +/- `open_jitter_frac` so replicas do not re-probe in
/// lockstep.  After the cooldown the breaker goes *half-open* and lets
/// `half_open_probes` probe requests through: the first probe outcome
/// decides -- success closes the breaker (window reset), failure re-opens
/// it with a fresh cooldown.
///
/// Determinism: all breaker randomness (cooldown jitter, redirect
/// targets) draws from a dedicated Rng stream, so enabling the breaker
/// never perturbs workload/fault draws, and a disabled breaker leaves
/// the simulation byte-identical to pre-breaker builds.  Failures are
/// *observed* via timeouts, so a breaker without RetryPolicy::timeout_ms
/// can never open (validate() rejects that combination).
struct CircuitBreakerPolicy {
  bool enabled = false;
  unsigned window = 16;           ///< rolling outcomes kept per replica (1..64)
  double failure_threshold = 0.5; ///< failure fraction that opens, in (0, 1]
  unsigned min_samples = 8;       ///< outcomes required before opening
  double open_ms = 50;            ///< cooldown before half-open
  double open_jitter_frac = 0.1;  ///< +/- fraction on each cooldown, [0, 1)
  unsigned half_open_probes = 1;  ///< probes admitted while half-open

  void validate() const;
};

/// Client-side gray-failure (fail-slow) detection and mitigation.  The
/// breaker above is blind to gray replicas by construction: a slow or
/// jittery replica eventually *replies*, and every late reply lands a
/// success in the breaker window, so the failure fraction never reaches
/// the threshold ("successes, just late").  This detector scores what
/// breakers ignore:
///
///   * per-replica EWMA latency with PEER-RELATIVE outlier detection --
///     a replica is evicted when its EWMA exceeds `outlier_factor` times
///     the lower-quartile EWMA of its peers (robust even when a majority
///     of replicas degrade at once, where mean/median references fail);
///   * reply-rate accounting -- a replica whose replies/sends ratio over
///     an eval interval drops below `reply_rate_floor` is evicted, and
///     one that stops replying entirely for `zombie_strikes` consecutive
///     intervals is flagged a *zombie* (accepts work, never answers);
///   * eviction redirects the replica's sends round-robin across healthy
///     peers (down-weighting to zero without the breaker's random
///     redirect storm); after `evict_ms` the replica enters *probation*
///     with fresh counters -- it is re-admitted after `probation_samples`
///     clean replies or re-evicted on the next eval it still scores bad;
///   * an ADAPTIVE DEADLINE: the effective per-attempt timeout tracks
///     `deadline_factor` x the observed reply-latency p99 of the last
///     eval interval, clamped to [deadline_min_ms, retry.timeout_ms] --
///     under a fail-slow burst the fixed timeout is either too tight
///     (healthy tail) or too loose (gray tail); tracking p99 keeps it
///     matched to what the fleet currently delivers.
///
/// Scoring is a pure function of observed replies -- the detector draws
/// NO randomness -- and the eval events are only scheduled when enabled,
/// so disabled detection leaves results byte-identical.
struct GrayDetectionPolicy {
  bool enabled = false;
  double eval_interval_ms = 100;  ///< scoring/eviction cadence
  double ewma_alpha = 0.1;        ///< EWMA weight of each new reply latency
  unsigned min_samples = 8;       ///< replies required before outlier calls
  double outlier_factor = 4.0;    ///< eviction ratio vs peer lower quartile
  double floor_ms = 2.0;          ///< reference floor (ignore sub-ms noise)
  /// Consecutive evals a replica must score bad (latency outlier OR
  /// below the reply-rate floor) before it is evicted -- one slow reply
  /// can swing a fresh EWMA past the threshold and one clump of server
  /// deadline-drops can dent an interval's reply rate, but both decay
  /// within an eval interval; a genuinely gray replica scores bad on
  /// every pass.
  unsigned outlier_strikes = 2;
  bool evict = true;              ///< false = score/telemetry only
  double evict_ms = 1000;         ///< eviction duration before probation
  unsigned probation_samples = 8; ///< clean replies that re-admit
  double reply_rate_floor = 0.75; ///< min replies/sends per interval
  unsigned min_rate_sends = 12;   ///< sends required before rate calls
  unsigned zombie_strikes = 2;    ///< zero-reply intervals = zombie
  bool adaptive_deadline = true;  ///< timeout tracks observed p99
  double deadline_factor = 1.5;   ///< x observed p99
  double deadline_min_ms = 2.0;   ///< adaptive timeout lower clamp
  unsigned min_window_samples = 16;  ///< replies needed to move deadline

  void validate() const;
};

/// The full resilience policy stack for one cluster configuration:
/// client-side mitigation (retry/budget/hedge/quorum) plus the
/// server-edge overload protections (admission, breakers) and gray
/// (fail-slow) detection.
struct ResiliencePolicy {
  RetryPolicy retry;
  RetryBudget budget;
  /// Hedging: reissue a straggling leaf request to a random other leaf
  /// after this delay (0 = disabled).  Same semantics as the historical
  /// ClusterConfig::hedge_after_ms, now unified with retries/timeouts.
  double hedge_after_ms = 0;
  QuorumPolicy quorum;
  AdmissionPolicy admission;
  CircuitBreakerPolicy breaker;
  GrayDetectionPolicy gray;

  void validate() const;
};

/// A token bucket: the one piece of arithmetic behind the retry budget
/// (credited per first attempt, debited per retry), root admission, and
/// the region balancer's per-region caps (both refilled with time).
struct TokenBucket {
  double tokens = 0;
  double last_ms = 0;  ///< time of the last refill()

  /// Add `n` tokens, capped at `burst`.
  void credit(double n, double burst) noexcept {
    tokens = std::min(tokens + n, burst);
  }
  /// Accrue `rate_qps` tokens per second of the milliseconds elapsed
  /// since the last refill, capped at `burst`.
  void refill(double now_ms, double rate_qps, double burst) noexcept {
    tokens = std::min(burst, tokens + (now_ms - last_ms) * rate_qps / 1000.0);
    last_ms = now_ms;
  }
  /// Take one whole token if one is available.
  bool take() noexcept {
    if (tokens < 1.0) return false;
    tokens -= 1.0;
    return true;
  }
};

/// The runtime of CircuitBreakerPolicy, one breaker per replica (a leaf,
/// or a region), shared by the cluster client and the region balancer.
/// Each rolling outcome window is a bit set in one word (window <= 64),
/// so recording an outcome is a handful of ALU ops.  The bank schedules
/// no events: open -> half-open happens lazily in allows() once the
/// cooldown has passed.  Cooldown jitter draws from the bank's own Rng,
/// which the cluster also uses for its redirect draws.
class BreakerBank {
 public:
  /// A state change, reported so callers can trace it.
  enum class Event : std::uint8_t { kNone, kOpened, kHalfOpened, kClosed };

  /// Arm `n` closed breakers; a disabled policy arms none, and the bank
  /// then allows every send and ignores every outcome.
  void init(const CircuitBreakerPolicy& pol, unsigned n, Rng rng) {
    pol_ = pol;
    if (!pol.enabled) return;
    b_.assign(n, Breaker{});
    rng_ = rng;
  }

  Rng& rng() noexcept { return rng_; }

  /// May a send go to replica `i` at `now`?  Grants and counts half-open
  /// probes; `ev` (when given) learns of an open -> half-open transition.
  bool allows(unsigned i, double now, Event* ev = nullptr) {
    if (!pol_.enabled) return true;
    Breaker& b = b_[i];
    if (b.state == Breaker::kClosed) return true;
    if (b.state == Breaker::kOpen) {
      if (now < b.open_until) return false;
      open_ms_ += b.open_until - b.opened_at;
      b.state = Breaker::kHalfOpen;
      b.probes_left = pol_.half_open_probes;
      if (ev) *ev = Event::kHalfOpened;
    }
    if (b.probes_left == 0) return false;
    --b.probes_left;
    ++probes_;
    return true;
  }

  /// Record an observed outcome against replica `i`: a reply is a
  /// success; a timeout or a queue rejection is a failure.  While
  /// half-open, any failure re-opens -- including a straggling timeout
  /// from before the trip, which is deliberately conservative (the
  /// replica is still hurting us).  While open, outcomes are ignored;
  /// the cooldown alone decides re-entry.
  Event record(unsigned i, bool ok, double now) {
    if (!pol_.enabled) return Event::kNone;
    Breaker& b = b_[i];
    switch (b.state) {
      case Breaker::kOpen:
        return Event::kNone;
      case Breaker::kHalfOpen:
        if (!ok) return open(b, now);
        b = Breaker{};  // close with a fresh window
        return Event::kClosed;
      case Breaker::kClosed:
        break;
    }
    const std::uint64_t bit = std::uint64_t{1} << b.idx;
    if (b.filled == pol_.window) {
      if (b.bits & bit) --b.fails;
    } else {
      ++b.filled;
    }
    if (ok) {
      b.bits &= ~bit;
    } else {
      b.bits |= bit;
      ++b.fails;
    }
    b.idx = (b.idx + 1) % pol_.window;
    if (b.filled >= pol_.min_samples &&
        static_cast<double>(b.fails) >=
            pol_.failure_threshold * static_cast<double>(b.filled)) {
      return open(b, now);
    }
    return Event::kNone;
  }

  std::uint64_t opens() const noexcept { return opens_; }
  std::uint64_t probes() const noexcept { return probes_; }
  /// Summed milliseconds the breakers spent open, closing the books at
  /// `end` on those still open.
  double open_ms(double end) const noexcept {
    double ms = open_ms_;
    for (const Breaker& b : b_) {
      if (b.state == Breaker::kOpen) {
        ms += std::min(end, b.open_until) - b.opened_at;
      }
    }
    return ms;
  }

 private:
  struct Breaker {
    enum State : std::uint8_t { kClosed, kOpen, kHalfOpen };
    State state = kClosed;
    std::uint64_t bits = 0;    // rolling outcomes, 1 = failure
    std::uint32_t filled = 0;  // outcomes currently in the window
    std::uint32_t idx = 0;     // next write position
    std::uint32_t fails = 0;   // failures currently in the window
    std::uint32_t probes_left = 0;
    double opened_at = 0;
    double open_until = 0;
  };

  /// Trip a breaker open with a jittered cooldown.
  Event open(Breaker& b, double now) {
    b.state = Breaker::kOpen;
    b.opened_at = now;
    b.open_until =
        now + pol_.open_ms *
                  (1.0 + pol_.open_jitter_frac * rng_.uniform(-1.0, 1.0));
    ++opens_;
    return Event::kOpened;
  }

  CircuitBreakerPolicy pol_;
  std::vector<Breaker> b_;
  Rng rng_{0};
  std::uint64_t opens_ = 0;
  std::uint64_t probes_ = 0;
  double open_ms_ = 0;  // closed-out open periods
};

}  // namespace arch21::cloud
