#include "cloud/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace arch21::cloud {

namespace {

[[noreturn]] void bad(const char* strct, const char* field) {
  throw std::invalid_argument(std::string(strct) + "::" + field);
}

}  // namespace

void TrafficClass::validate() const {
  if (name.empty()) bad("TrafficClass", "name must be non-empty");
  if (!(slo_ms > 0)) bad("TrafficClass", "slo_ms must be > 0");
  if (!(weight > 0)) bad("TrafficClass", "weight must be > 0");
  if (!(service_scale > 0)) bad("TrafficClass", "service_scale must be > 0");
}

std::vector<TrafficClass> default_traffic_classes() {
  return {
      TrafficClass{.name = "interactive",
                   .slo_ms = 100,
                   .weight = 0.75,
                   .service_scale = 1.0},
      TrafficClass{.name = "bulk",
                   .slo_ms = 400,
                   .weight = 0.25,
                   .service_scale = 2.5},
  };
}

double TrafficConfig::session_rate_at(double t_s) const noexcept {
  const double phase =
      2.0 * std::numbers::pi * (t_s - diurnal_peak_s) / diurnal_period_s;
  return session_rate_hz * (1.0 + diurnal_amplitude * std::cos(phase));
}

void TrafficConfig::validate() const {
  if (!(session_rate_hz > 0) || !std::isfinite(session_rate_hz)) {
    bad("TrafficConfig", "session_rate_hz must be finite and > 0");
  }
  if (!(diurnal_amplitude >= 0) || !(diurnal_amplitude < 1)) {
    bad("TrafficConfig", "diurnal_amplitude must be in [0, 1)");
  }
  if (!(diurnal_period_s > 0)) {
    bad("TrafficConfig", "diurnal_period_s must be > 0");
  }
  if (!(diurnal_peak_s >= 0)) {
    bad("TrafficConfig", "diurnal_peak_s must be >= 0");
  }
  if (!(session_mean_queries >= 1)) {
    bad("TrafficConfig", "session_mean_queries must be >= 1");
  }
  if (!(session_alpha > 1)) {
    // alpha <= 1 has infinite mean: the truncation cap would silently
    // define the workload instead of the configured mean.
    bad("TrafficConfig", "session_alpha must be > 1");
  }
  if (session_max_queries == 0) {
    bad("TrafficConfig", "session_max_queries must be > 0");
  }
  if (!(think_time_ms >= 0)) {
    bad("TrafficConfig", "think_time_ms must be >= 0");
  }
  if (classes.size() < 2) {
    // The multi-SLO dimension is structural to the scenario, not
    // optional seasoning.
    bad("TrafficConfig", "classes must hold >= 2 request classes");
  }
  for (const TrafficClass& c : classes) c.validate();
}

std::vector<TrafficRequest> generate_traffic(const TrafficConfig& cfg,
                                             double duration_s,
                                             unsigned origins,
                                             std::uint64_t seed) {
  cfg.validate();
  if (!(duration_s > 0)) {
    throw std::invalid_argument("generate_traffic: duration_s must be > 0");
  }
  if (origins == 0) {
    throw std::invalid_argument("generate_traffic: origins must be > 0");
  }

  // Class-weight CDF for the per-session class draw.
  std::vector<double> cdf;
  cdf.reserve(cfg.classes.size());
  double wsum = 0;
  for (const TrafficClass& c : cfg.classes) {
    wsum += c.weight;
    cdf.push_back(wsum);
  }

  // Pareto scale so the *untruncated* mean matches session_mean_queries:
  // E[X] = xm * alpha / (alpha - 1).
  const double xm =
      cfg.session_mean_queries * (cfg.session_alpha - 1.0) / cfg.session_alpha;

  Rng rng(seed);
  std::vector<TrafficRequest> out;
  out.reserve(static_cast<std::size_t>(cfg.mean_query_rate_hz() * duration_s *
                                       1.2) +
              64);

  // Nonhomogeneous Poisson session arrivals by thinning against the
  // diurnal peak rate.
  const double peak_hz = cfg.session_rate_hz * (1.0 + cfg.diurnal_amplitude);
  const double horizon_ms = duration_s * 1000.0;
  double t_ms = 0;
  while (true) {
    t_ms += rng.exponential(1000.0 / peak_hz);
    if (t_ms >= horizon_ms) break;
    if (!rng.chance(cfg.session_rate_at(t_ms / 1000.0) / peak_hz)) continue;

    const auto origin = static_cast<std::uint32_t>(rng.below(origins));
    const double u = rng.uniform(0.0, wsum);
    std::uint32_t cls = 0;
    while (cls + 1 < cdf.size() && u >= cdf[cls]) ++cls;
    const double raw = rng.pareto(xm, cfg.session_alpha);
    const auto queries = static_cast<std::uint32_t>(std::min<double>(
        cfg.session_max_queries, std::max(1.0, std::ceil(raw))));

    double q_ms = t_ms;
    for (std::uint32_t q = 0; q < queries; ++q) {
      if (q > 0) q_ms += rng.exponential(cfg.think_time_ms);
      if (q_ms >= horizon_ms) break;  // sessions never outlive the horizon
      out.push_back(TrafficRequest{q_ms, cls, origin});
    }
  }

  // Sessions interleave, so the stream is only sorted per session;
  // stable_sort keeps equal-time arrivals in generation order (a fixed
  // tie-break, so the output is a pure function of the inputs).
  std::stable_sort(out.begin(), out.end(),
                   [](const TrafficRequest& a, const TrafficRequest& b) {
                     return a.t_ms < b.t_ms;
                   });
  return out;
}

}  // namespace arch21::cloud
