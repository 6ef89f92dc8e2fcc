#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string_view>
#include <thread>
#include <type_traits>

#include "cloud/gray_detect.hpp"
#include "cloud/powercap.hpp"
#include "cloud/traffic.hpp"
#include "cloud/wan.hpp"
#include "des/resource.hpp"
#include "des/simulator.hpp"
#include "des/workload.hpp"
#include "obs/enabled.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#if !ARCH21_OBS_ENABLED
#error "the layers run measures the obs hooks; build with ARCH21_OBS=ON"
#endif

namespace e2e {

namespace {

namespace cloud = arch21::cloud;
namespace des = arch21::des;
namespace obs = arch21::obs;
using arch21::Rng;
using Clock = std::chrono::steady_clock;

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Host-time span recorder: runs a call, returns its seconds, and
/// records it as a complete span on track 1 of a bench-owned ring.
class Spans {
 public:
  Spans() : buf_(std::size_t{1} << 15, 1.0), origin_(Clock::now()) {
    buf_.name_thread(1, "arch21_e2e layers");
  }

  template <typename F>
  double time(std::string_view name, F&& f, std::string_view arg_name = {},
              double arg = 0) {
    const auto t0 = Clock::now();
    f();
    const auto t1 = Clock::now();
    const std::uint32_t arg_id =
        arg_name.empty() ? obs::TraceBuffer::kNoArg : buf_.intern(arg_name);
    buf_.complete(buf_.intern(name), us(t0), us(t1) - us(t0), 1, arg_id, arg);
    return seconds(t1 - t0);
  }

  void write(const std::string& path) const {
    if (buf_.dropped() != 0) {
      throw std::runtime_error("layers trace ring dropped spans");
    }
    std::ofstream out(path);
    buf_.write_chrome_json(out);
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  obs::TraceBuffer buf_;
  Clock::time_point origin_;
};

/// Discards everything written to it: times trace export without disk.
class NullBuf : public std::streambuf {
 protected:
  int overflow(int c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

double registry_value(const obs::MetricsSnapshot& s, std::string_view name) {
  for (const auto& e : s.entries) {
    if (e.name == name) {
      return e.kind == obs::MetricKind::kGauge ? e.value
                                               : static_cast<double>(e.count);
    }
  }
  return 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

template <typename F>
double best_of_3(F&& f) {
  double best = 1e300;
  for (int i = 0; i < 3; ++i) best = std::min(best, f());
  return best;
}

// --- des Resource: the workload's per-station stream, nothing else ---

/// Offered load of every station, in the simulators' ms time unit.
struct Stream {
  unsigned stations = 0;
  unsigned servers = 1;
  des::QueuePolicy queue;
  double query_rate_hz = 0;
  double mu_log = 0;  ///< lognormal query service
  double sigma = 0;
  double bg_rate_hz = 0;
  double bg_ms = 0;  ///< exponential background service
  double duration_ms = 0;
};

Stream stream_of(const ClusterConfig& c) {
  return {c.leaves,
          1,
          c.leaf_queue,
          c.query_rate_hz,
          std::log(c.leaf_service_ms) - 0.5 * c.service_sigma * c.service_sigma,
          c.service_sigma,
          c.background_rate_hz,
          c.background_ms,
          c.duration_s * 1000.0};
}

Stream stream_of(const MultiRegionConfig& c) {
  const auto& r = c.regions.front();
  return {static_cast<unsigned>(c.regions.size()),
          r.servers,
          r.queue,
          c.traffic.mean_query_rate_hz() / static_cast<double>(c.regions.size()),
          std::log(r.service_median_ms),
          r.service_sigma,
          0,
          0,
          c.duration_s * 1000.0};
}

struct Drive {
  double seconds = 0;
  std::uint64_t requests = 0;
  std::uint64_t background = 0;
  std::uint64_t kernel_ops = 0;
};

/// Push `s` through des::Resource::request (fire-and-forget) on a bare
/// kernel.  Arrivals and service times are drawn before the clock
/// starts; the timed part is scheduling plus the run.
Drive drive_resources(const Stream& s, std::uint64_t seed) {
  struct Arrival {
    double t;
    unsigned station;
    double service;
  };
  std::vector<Arrival> arrivals;
  Drive d;
  Rng rng(seed);
  for (unsigned st = 0; st < s.stations; ++st) {
    const double gap = 1000.0 / s.query_rate_hz;
    for (double t = rng.exponential(gap); t < s.duration_ms;
         t += rng.exponential(gap)) {
      arrivals.push_back({t, st, rng.lognormal(s.mu_log, s.sigma)});
    }
    if (s.bg_rate_hz <= 0) continue;
    const double bg_gap = 1000.0 / s.bg_rate_hz;
    for (double t = rng.exponential(bg_gap); t < s.duration_ms;
         t += rng.exponential(bg_gap)) {
      arrivals.push_back({t, st, rng.exponential(s.bg_ms)});
      ++d.background;
    }
  }
  d.requests = arrivals.size();

  des::Simulator sim;
  std::vector<std::unique_ptr<des::Resource>> stations;
  for (unsigned st = 0; st < s.stations; ++st) {
    stations.push_back(std::make_unique<des::Resource>(sim, s.servers, s.queue));
  }
  const auto t0 = Clock::now();
  sim.reserve(arrivals.size());
  for (const Arrival& a : arrivals) {
    des::Resource* r = stations[a.station].get();
    const double service = a.service;
    sim.schedule_at(a.t, [r, service] { r->request(service, nullptr); });
  }
  sim.run();
  d.seconds = seconds(Clock::now() - t0);
  d.kernel_ops = sim.executed() + sim.cancelled();
  return d;
}

// --- cloud component drives (fixed shapes, see README) ---

/// GrayDetector over 20 replicas, 6 of them jittery (p=0.45 spikes of
/// mean 1 s), 280 replies per 100 ms eval for 30 s: E34's shape.
double gray_detector_ns_per_reply(const cloud::GrayDetectionPolicy& pol,
                                  std::uint64_t seed) {
  constexpr unsigned kReplicas = 20, kJittery = 6, kPerEval = 280;
  constexpr unsigned kEvals = 300;
  constexpr double kEvalMs = 100, kTimeoutMs = 25;
  Rng rng(seed);
  std::vector<double> latency(kEvals * kPerEval);
  for (std::size_t i = 0; i < latency.size(); ++i) {
    latency[i] = rng.lognormal(std::log(3.0), 0.35);
    if (i % kReplicas < kJittery && rng.chance(0.45)) {
      latency[i] += rng.exponential(1000.0);
    }
  }
  cloud::GrayDetectionPolicy p = pol;
  p.enabled = true;
  return best_of_3([&] {
    cloud::GrayDetector det;
    det.init(p, kReplicas, kTimeoutMs);
    const auto t0 = Clock::now();
    for (unsigned k = 0; k < kEvals; ++k) {
      for (unsigned j = 0; j < kPerEval; ++j) {
        unsigned r = j % kReplicas;
        if (det.evicted(r)) r = det.redirect_target(r);
        if (r == cloud::GrayDetector::kNone) continue;
        det.on_sent(r);
        det.on_reply(r, latency[k * kPerEval + j]);
      }
      det.eval((k + 1) * kEvalMs);
    }
    return seconds(Clock::now() - t0) * 1e9 / (kEvals * kPerEval);
  });
}

struct PowercapCost {
  double admit_ns = 0;
  double window_us = 0;
};

/// PowercapRuntime::admit at the offered query rate, and on_window over
/// 20 attached idle Resources.
PowercapCost powercap_cost(const ClusterConfig& c) {
  constexpr unsigned kAdmits = 200000, kWindows = 2000, kLeaves = 20;
  const double bg_frac = c.background_rate_hz * c.background_ms * 1e-3;
  PowercapCost out;
  out.admit_ns = best_of_3([&] {
    cloud::PowercapRuntime rt(c.powercap, c.leaves, c.leaf_service_ms, bg_frac);
    const double gap_ms = 1000.0 / c.query_rate_hz;
    unsigned admitted = 0;
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < kAdmits; ++i) admitted += rt.admit(i * gap_ms);
    const double s = seconds(Clock::now() - t0);
    if (admitted == 0) throw std::runtime_error("powercap drive admitted 0");
    return s * 1e9 / kAdmits;
  });
  out.window_us = best_of_3([&] {
    des::Simulator sim;
    std::vector<std::unique_ptr<des::Resource>> leaves;
    for (unsigned l = 0; l < kLeaves; ++l) {
      leaves.push_back(std::make_unique<des::Resource>(sim, 1));
    }
    cloud::PowercapRuntime rt(c.powercap, kLeaves, c.leaf_service_ms, bg_frac);
    rt.attach(leaves);
    const auto t0 = Clock::now();
    for (unsigned k = 1; k <= kWindows; ++k) rt.on_window(k * rt.window_ms());
    const double s = seconds(Clock::now() - t0);
    rt.detach();
    return s * 1e6 / kWindows;
  });
  return out;
}

double traffic_ns_per_request(const MultiRegionConfig& c, std::uint64_t seed) {
  return best_of_3([&] {
    const auto t0 = Clock::now();
    const auto reqs = cloud::generate_traffic(
        c.traffic, c.duration_s, static_cast<unsigned>(c.regions.size()), seed);
    const double s = seconds(Clock::now() - t0);
    if (reqs.empty()) throw std::runtime_error("generate_traffic gave 0");
    return s * 1e9 / static_cast<double>(reqs.size());
  });
}

double wan_ns_per_sample(const MultiRegionConfig& c, std::uint64_t seed) {
  constexpr unsigned kSamples = 200000;
  const cloud::Wan wan(c.wan, c.duration_s * 1000.0, seed);
  const unsigned n = c.wan.regions;
  return best_of_3([&] {
    Rng rng(seed);
    double sum = 0;
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < kSamples; ++i) {
      sum += wan.sample_latency_ms(i % n, (i / n) % n, rng);
    }
    const double s = seconds(Clock::now() - t0);
    if (!(sum > 0)) throw std::runtime_error("WAN drive summed to 0");
    return s * 1e9 / kSamples;
  });
}

template <typename Cfg>
LayersRound layers_round(const std::string& workload, const Cfg& base,
                         unsigned n, unsigned round,
                         const std::string& trace_path) {
  using Result = decltype(simulate(base));
  constexpr bool kCluster = std::is_same_v<Cfg, ClusterConfig>;
  // Every drive is measured on every workload: the gray detector and
  // powercap drives on their drill rungs, the traffic and WAN drives on
  // the workload's own regions when it has them, else on E31's.
  const ClusterConfig gray_cfg = grayfail_adaptive();
  const ClusterConfig pcap_cfg = powercap_governor();
  const auto region_ref = std::get<MultiRegionConfig>(
      make_workload("multiregion_failover", base.seed));
  const MultiRegionConfig* region_cfg = &region_ref;
  if constexpr (!kCluster) region_cfg = &base;
  auto& reg = obs::MetricsRegistry::global();
  Spans spans;
  LayersRound out;

  std::vector<Result> results;
  results.reserve(n);
  double sim_s = 0, kernel_s = 0, drive_s = 0;
  std::uint64_t kernel_events = 0, ops = 0, executed = 0, cancelled = 0;
  std::uint64_t drive_requests = 0, drive_ops = 0, background = 0;
  std::uint64_t allocs = 0, windows = 0, msgs = 0, records = 0;
  double queue_hwm = 0, calls_hwm = 0, export_ms = 0;
  std::vector<double> metrics_ratio, trace_ratio, pdes_ratio, snapshot_ms;
  std::unique_ptr<obs::TraceBuffer> ring;
  double merge_s = 0, pool1_s = 0, poolk_s = 0;
  double gray_ns = 0, traffic_ns = 0, wan_ns = 0;
  PowercapCost pcap;

  auto trial = [&](unsigned i) {
    const Cfg c = trial_config(base, i);
    Result r;
    const std::uint64_t a0 = allocation_count();
    const double off = spans.time("cloud.simulate", [&] { r = simulate(c); });
    allocs += allocation_count() - a0;
    sim_s += off;
    const std::uint64_t want = digest(r);
    out.digests.push_back(want);
    auto expect_same = [&](const Result& other, const char* what) {
      if (digest(other) != want) {
        out.failures.push_back({i, std::string(what) + " changed the result"});
      }
    };
    if (const char* law = broken_invariant(r)) {
      out.failures.push_back({i, std::string("invariant broken: ") + law});
    }

    reg.reset();
    reg.set_enabled(true);
    Result with_metrics;
    const double on =
        spans.time("obs.metrics_on", [&] { with_metrics = simulate(c); });
    reg.set_enabled(false);
    expect_same(with_metrics, "enabling metrics");
    metrics_ratio.push_back(on / off);
    obs::MetricsSnapshot snap;
    snapshot_ms.push_back(
        1e3 * spans.time("obs.snapshot", [&] { snap = reg.snapshot(); }));
    auto count = [&snap](std::string_view name) {
      return static_cast<std::uint64_t>(registry_value(snap, name));
    };
    const std::uint64_t ex = count("des.executed"), ca = count("des.cancelled");
    executed += ex;
    cancelled += ca;
    ops += ex + ca;
    queue_hwm = std::max(queue_hwm, registry_value(snap, "cluster.leaf_queue.hwm"));
    calls_hwm = std::max(calls_hwm, registry_value(snap, "slab.calls.hwm"));
    windows += count("pdes.window.count");
    msgs += count("pdes.mailbox.committed");

    unsigned fanout = 0;
    if constexpr (kCluster) {
      fanout = c.leaves;
      // A ring that never drops: start at ~4 records per kernel op and
      // double until one pass fits (only the fitting pass is kept).
      const std::size_t need = 4 * (ex + ca) + 4096;
      if (!ring || ring->capacity() < need) {
        ring = std::make_unique<obs::TraceBuffer>(need, 1e3);
      }
      for (;;) {
        ring->clear();
        Cfg traced = c;
        traced.trace = ring.get();
        Result with_trace;
        const double t =
            spans.time("obs.trace_on", [&] { with_trace = simulate(traced); });
        if (ring->dropped() == 0) {
          expect_same(with_trace, "attaching a trace");
          trace_ratio.push_back(t / off);
          records += ring->size();
          break;
        }
        ring = std::make_unique<obs::TraceBuffer>(2 * ring->capacity(), 1e3);
      }
      if (i == 0) {
        export_ms = 1e3 * spans.time("obs.trace_export", [&] {
          NullBuf sink;
          std::ostream os(&sink);
          ring->write_chrome_json(os);
        });
      }
      if (c.workers > 0) {
        Cfg serial = c;
        serial.workers = 0;
        Result serial_r;
        const double w0 =
            spans.time("des.pdes_serial", [&] { serial_r = simulate(serial); });
        expect_same(serial_r, "the serial PDES engine");
        pdes_ratio.push_back(off / w0);
      }
    } else {
      fanout = static_cast<unsigned>(c.regions.size());
    }

    des::WorkloadResult replay;
    kernel_s += spans.time("des.kernel_replay", [&] {
      replay = des::replay_cluster_like<des::Simulator>(
          c.seed, static_cast<std::uint32_t>(offered(r)), fanout);
    });
    kernel_events += replay.events();

    Drive d;
    spans.time("des.resource_drive",
               [&] { d = drive_resources(stream_of(c), c.seed); });
    drive_s += d.seconds;
    drive_requests += d.requests;
    drive_ops += d.kernel_ops;
    background += d.background;
    results.push_back(std::move(r));
  };

  spans.time("round", [&] {
    spans.time(workload, [&] {
      spans.time("warmup", [&] { (void)simulate(trial_config(base, 0)); });
      for (unsigned i = 0; i < n; ++i) {
        spans.time("trial", [&] { trial(i); }, "trial", i);
      }
      Result agg = results.front();
      merge_s = spans.time("util.merge", [&] {
        for (unsigned i = 1; i < n; ++i) agg.merge(results[i]);
      });
      results.front() = std::move(agg);

      const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
      arch21::ThreadPool pool1(1), poolk(std::min(4u, hw));
      pool1_s = spans.time("util.pool_1", [&] { (void)run_trials(base, n, pool1); });
      poolk_s = spans.time("util.pool_k", [&] { (void)run_trials(base, n, poolk); });

      spans.time("cloud.gray_detector", [&] {
        gray_ns = gray_detector_ns_per_reply(gray_cfg.policy.gray, base.seed);
      });
      spans.time("cloud.powercap", [&] { pcap = powercap_cost(pcap_cfg); });
      spans.time("cloud.traffic_wan", [&] {
        traffic_ns = traffic_ns_per_request(*region_cfg, base.seed);
        wan_ns = wan_ns_per_sample(*region_cfg, base.seed);
      });
    });
  }, "round", round);
  spans.write(trace_path);

  const Result& agg = results.front();
  const double offered_q = static_cast<double>(offered(agg));
  const double trials = static_cast<double>(n);
  const double sim_ns = sim_s * 1e9;
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto put = [&out](const char* name, double v) {
    out.metrics.push_back({name, v});
  };

  const double kernel_ns = per(kernel_s * 1e9, static_cast<double>(kernel_events));
  const double resource_ns = per(drive_s * 1e9, static_cast<double>(drive_requests));
  // Net of the kernel events the drive itself schedules, so rows (a)
  // and (b) of the ledger never count one kernel operation twice.
  const double resource_net_ns =
      resource_ns - kernel_ns * per(static_cast<double>(drive_ops),
                                    static_cast<double>(drive_requests));
  double station_requests = 0;
  if constexpr (kCluster) {
    station_requests = static_cast<double>(agg.leaf_requests + background);
  } else {
    station_requests = static_cast<double>(agg.attempts);
  }
  const double kernel_share = per(kernel_ns * static_cast<double>(ops), sim_ns);
  const double resource_share = per(resource_net_ns * station_requests, sim_ns);

  // Measured on every workload.
  put("des.kernel_ns_per_event", kernel_ns);
  put("des.resource_ns_per_request", resource_ns);
  put("des.resource_share", resource_share);
  put("cloud.gray_detector_ns_per_reply", gray_ns);
  put("cloud.powercap_admit_ns", pcap.admit_ns);
  put("cloud.powercap_window_us", pcap.window_us);
  put("cloud.traffic_ns_per_request", traffic_ns);
  put("cloud.wan_ns_per_sample", wan_ns);
  put("obs.metrics_overhead", median(metrics_ratio) - 1);
  put("obs.snapshot_ms", median(snapshot_ms));
  put("util.allocs_per_trial", static_cast<double>(allocs) / trials);
  put("util.merge_us", n > 1 ? merge_s * 1e6 / (n - 1) : 0);
  put("util.pool_speedup", per(pool1_s, poolk_s));

  // Only where the layer exists; run.py reports the rest as 0.
  if constexpr (kCluster) {
    put("des.events_per_query", per(static_cast<double>(executed), offered_q));
    put("des.cancel_frac", per(static_cast<double>(cancelled), static_cast<double>(ops)));
    put("des.scenario_ns_per_event", per(sim_ns, static_cast<double>(ops)));
    put("des.kernel_share", kernel_share);
    put("des.leaf_queue_hwm", queue_hwm);
    put("des.slab_calls_hwm", calls_hwm);
    if (base.workers > 0) {
      put("des.pdes_windows_per_event", per(static_cast<double>(windows), static_cast<double>(executed)));
      put("des.pdes_msgs_per_event", per(static_cast<double>(msgs), static_cast<double>(executed)));
      put("des.pdes_sync_overhead", median(pdes_ratio) - 1);
    }
    put("cloud.leaf_requests_per_query",
        per(static_cast<double>(agg.leaf_requests), static_cast<double>(agg.queries)));
    put("cloud.retry_amplification", agg.retry_amplification);
    put("cloud.timeouts_per_query", per(static_cast<double>(agg.timeouts), offered_q));
    put("cloud.shed_frac",
        per(static_cast<double>(agg.shed_queries + agg.power_shed_queries), offered_q));
    put("cloud.short_circuits_per_query",
        per(static_cast<double>(agg.breaker_short_circuits), offered_q));
    put("cloud.client_share", 1.0 - kernel_share - resource_share);
    put("obs.trace_overhead", median(trace_ratio) - 1);
    put("obs.trace_records_per_event", per(static_cast<double>(records), static_cast<double>(ops)));
    put("obs.trace_export_ms", export_ms);
  } else {
    // region.cpp publishes no registry counters and takes no trace.
    put("cloud.region_attempt_amplification", agg.attempt_amplification);
    put("cloud.region_timeouts_per_request",
        per(static_cast<double>(agg.timeouts), offered_q));
    put("cloud.region_ns_per_attempt", per(sim_ns, static_cast<double>(agg.attempts)));
    put("cloud.traffic_share", per(traffic_ns * offered_q, sim_ns));
  }
  return out;
}

}  // namespace

LayersRound run_layers(const std::string& workload, const Config& cfg,
                       unsigned seeds, unsigned round,
                       const std::string& trace_path) {
  return std::visit(
      [&](const auto& base) {
        return layers_round(workload, base, seeds, round, trace_path);
      },
      cfg);
}

}  // namespace e2e
