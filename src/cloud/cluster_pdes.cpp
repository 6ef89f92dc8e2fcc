// The message transport of the cluster client engine (cloud/client.hpp),
// templated over the PDES engine: des::LoopbackEngine (one serial kernel
// -- the differential reference) or des::ParallelEngine (conservative
// window synchronization on the thread pool).  simulate_cluster_pdes()
// picks the engine from ClusterConfig::workers; results are bit-identical
// either way (tests/test_pdes.cpp).
//
// Partitioning: LP 0 is the root -- query arrivals plus the whole client
// engine.  LPs 1..G each own a contiguous group of leaves: their
// des::Resource queues, their background load, and their fault
// transitions.  Every root<->leaf exchange travels net_latency_ms one
// way, which is exactly the engine's conservative lookahead.
//
// Differences from the direct transport (net_latency_ms == 0):
//   * A request sent to a down leaf is counted lost at the LEAF, when it
//     arrives -- the root only learns through its timeout, as a real
//     client would.
//   * A bounded-queue rejection reaches the root as an explicit reject
//     message after the return latency, and only then feeds the breaker.
//   * leaf_ms/query latencies include two network hops.
//
// Determinism: all client-side state is touched only by root-LP events;
// each group's state only by that group's events; cross-LP effects only
// via engine messages.  Every RNG is either consumed at setup in a fixed
// order or owned by the root, so a fixed partition replays identically
// on any engine and any worker count.

#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "cloud/client.hpp"
#include "cloud/cluster.hpp"
#include "des/partition.hpp"
#include "des/pdes.hpp"
#include "util/thread_pool.hpp"

namespace arch21::cloud {

namespace {

template <class Engine>
class MessageCluster : public ClientEngine<MessageCluster<Engine>> {
  using Base = ClientEngine<MessageCluster<Engine>>;
  using LpT = std::remove_reference_t<decltype(std::declval<Engine&>().lp(0))>;
  using typename Base::Adopt;
  using typename Base::CallRef;
  using typename Base::QueryRef;
  using Base::cfg_;
  using Base::groups_;
  using Base::kNull;

 public:
  static constexpr const char* kRootTrack = "pdes-root";

  /// Extra arguments construct the engine in place (LoopbackEngine takes
  /// the spec; ParallelEngine takes spec + pool).  The engine lives
  /// INSIDE this object, so its kernels die before the base's leaf
  /// groups and slabs (the destruction contract in client.hpp).
  template <class... EngineArgs>
  MessageCluster(const ClusterConfig& cfg, unsigned groups,
                 EngineArgs&&... engine_args)
      : Base(cfg),
        eng_(std::forward<EngineArgs>(engine_args)...),
        root_(eng_.lp(0)) {
    root_.set_handler([this](LpT&, const des::Payload& p) {
      if (p.kind == kReply) {
        on_reply(p.u32, p.a);
      } else {
        on_reject(p.u32, p.a);
      }
    });
    groups_.reserve(groups);
    for (unsigned g = 0; g < groups; ++g) {
      const auto [lo, hi] = des::group_range(g, cfg.leaves, groups);
      des::Simulator& gs = eng_.lp(1 + g).sim();
      this->add_group(gs, lo, hi);
      eng_.lp(1 + g).set_handler([this, g](LpT& lp, const des::Payload& p) {
        on_request(g, lp, p);
      });
      gs.reserve(static_cast<std::size_t>(cfg.duration_s *
                                          cfg.background_rate_hz *
                                          static_cast<double>(hi - lo) * 1.1) +
                 2 * (hi - lo) + 64);
    }
    root().reserve(static_cast<std::size_t>(cfg.duration_s *
                                            cfg.query_rate_hz * 1.2) +
                   2 * cfg.leaves + 64);
  }

 private:
  friend Base;

  /// Cross-LP message tags (des::Payload::kind).
  enum : std::uint32_t {
    kReq = 1,    ///< root -> group: u32 = leaf, a = serial, x = service_ms
    kReply = 2,  ///< group -> root: u32 = leaf, a = serial
    kReject = 3  ///< group -> root: bounced off a full leaf queue
  };

  des::Simulator& root() noexcept { return root_.sim(); }
  void run_events() { eng_.run(); }
  std::uint64_t executed() const { return eng_.executed(); }
  std::uint64_t cancelled() const { return eng_.cancelled(); }
  std::uint64_t rebuckets() const { return eng_.rebuckets(); }
  std::uint64_t rebucket_moved() const { return eng_.rebucket_moved(); }
  void publish_engine_metrics() {
    if constexpr (requires { eng_.publish_metrics(); }) {
      eng_.publish_metrics();  // pdes.window.* / pdes.mailbox.*
    }
  }

  // ------------------------------------------------------- root side

  /// Send one attempt as a kReq to the target's group LP, identified by
  /// a fresh per-attempt serial (slab handles recycle, so raw handles
  /// cannot ride in messages; the serial table pins the call until its
  /// response).
  void send(const QueryRef&, const CallRef& call, double service,
            unsigned t) {
    const std::uint64_t serial = call_by_serial_.size();
    this->calls_.retain(call.h);
    call_by_serial_.push_back(call.h);
    des::Payload req;
    req.kind = kReq;
    req.u32 = t;
    req.a = serial;
    req.x = service;
    root_.send(1 + this->group_of(t), cfg_.net_latency_ms, req);
  }

  /// Resolve a response's serial to its call, taking over the table's
  /// reference.  Every send gets at most one response (a reply or a
  /// reject); a send lost to a crash keeps its entry until teardown.
  CallRef take(std::uint64_t serial) {
    const std::uint32_t h = std::exchange(call_by_serial_[serial], kNull);
    return CallRef(Adopt{}, this, h);
  }

  void on_reply(unsigned leaf, std::uint64_t serial) {
    const CallRef call = take(serial);
    this->on_leaf_done(QueryRef(this, call->query), call, leaf);
  }

  void on_reject(unsigned leaf, std::uint64_t serial) {
    this->on_rejected(leaf);
    take(serial);  // drop the table's reference
  }

  // ------------------------------------------------- leaf-group side

  void on_request(unsigned g, LpT& lp, const des::Payload& p) {
    LeafGroup& grp = groups_[g];
    const unsigned leaf = p.u32;
    const unsigned li = leaf - grp.first;
    const std::uint64_t serial = p.a;
    if (!grp.up[li]) {
      // The request vanishes into a dead leaf; only the root's timeout
      // (or the query deadline) will tell the client.
      ++grp.lost;
#if ARCH21_OBS_ENABLED
      if (this->trace_) {
        this->trace_->instant(this->tr_.lost, lp.now(), grp.trace_tid);
      }
#endif
      return;
    }
    LpT* lpp = &lp;
    if (!grp.leaves[li]->request(
            p.x, [this, lpp, leaf, serial](double, double) {
              des::Payload reply;
              reply.kind = kReply;
              reply.u32 = leaf;
              reply.a = serial;
              lpp->send(0, cfg_.net_latency_ms, reply);
            })) {
      // Bounced off a full bounded queue: tell the root explicitly (the
      // reject notice rides the same return latency).
      des::Payload rej;
      rej.kind = kReject;
      rej.u32 = leaf;
      rej.a = serial;
      lp.send(0, cfg_.net_latency_ms, rej);
#if ARCH21_OBS_ENABLED
      if (this->trace_) {
        this->trace_->instant(this->tr_.rejected, lp.now(), grp.trace_tid);
      }
#endif
    }
  }

  Engine eng_;
  LpT& root_;
  /// serial -> call handle (kNull once resolved).  Each entry holds one
  /// counted reference from send until its reply/reject arrives.
  std::vector<std::uint32_t> call_by_serial_;
};

}  // namespace

ClusterResult simulate_cluster_pdes(const ClusterConfig& cfg) {
  cfg.validate();
  if (!(cfg.net_latency_ms > 0)) {
    throw std::invalid_argument(
        "simulate_cluster_pdes: net_latency_ms must be > 0");
  }
  const unsigned groups = cfg.leaf_groups
                              ? cfg.leaf_groups
                              : des::balanced_groups(cfg.leaves, 8);
  des::PartitionSpec spec;
  spec.lps = 1 + groups;
  spec.lookahead = cfg.net_latency_ms;
  // Per-LP allocation hint: the engines pre-size each LP's kernel and
  // commit buffers for the per-window message burst (a window spans the
  // lookahead, so the burst is bounded by the query rate times the
  // lookahead times the fanout, with slack for leaf answers and timer
  // events) so warm-up never grows a vector mid-run.  The transport's
  // constructor still applies its finer per-sim estimates on top.
  spec.reserve_events =
      static_cast<std::size_t>(cfg.query_rate_hz * cfg.net_latency_ms * 1e-3 *
                               static_cast<double>(cfg.leaves) * 8.0) +
      1024;
  if (cfg.workers == 0) {
    return MessageCluster<des::LoopbackEngine>(cfg, groups, spec).run();
  }
  ThreadPool pool(cfg.workers);  // outlives the engine inside the sim
  return MessageCluster<des::ParallelEngine>(cfg, groups, spec, pool).run();
}

}  // namespace arch21::cloud
