#include "cloud/powercap.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace arch21::cloud {

namespace {

[[noreturn]] void bad(const char* field) {
  throw std::invalid_argument(std::string("PowercapConfig::") + field);
}

}  // namespace

std::vector<Pstate> pstate_ladder(const tech::DvfsModel& dvfs, unsigned n) {
  if (n < 2) {
    throw std::invalid_argument("pstate_ladder: need at least 2 p-states");
  }
  const double fnom = dvfs.frequency(dvfs.params().vnom);
  const double pnom = dvfs.power(dvfs.params().vnom);
  std::vector<Pstate> out;
  out.reserve(n);
  for (const tech::DvfsModel::Point& pt : dvfs.sweep(static_cast<int>(n))) {
    out.push_back({pt.v, pt.f_hz / fnom, pt.power_w / pnom});
  }
  // The sweep's top supply IS vnom, but reconstructing 1.0 through the
  // divisions above could leave residue; pin the nominal state exactly
  // (Resource::set_speed(1.0) must divide service times exactly).
  out.back() = {dvfs.params().vnom, 1.0, 1.0};
  return out;
}

std::size_t capped_pstate(const std::vector<Pstate>& ladder, double idle_w,
                          double peak_w, double cap_w_per_server) {
  std::size_t best = 0;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const double worst = idle_w + (peak_w - idle_w) * ladder[i].power_ratio;
    if (worst <= cap_w_per_server) best = i;  // ladder ascends in speed
  }
  return best;
}

void PowercapConfig::validate() const {
  if (!enabled) return;
  if (!(server.idle_w >= 0)) bad("server.idle_w must be >= 0");
  if (!(server.peak_w > server.idle_w)) {
    bad("server.peak_w must exceed server.idle_w");
  }
  if (!(cap_fraction > 0) || !(cap_fraction <= 1.0)) {
    bad("cap_fraction must be in (0, 1]");
  }
  if (!(cap_fraction * server.peak_w > server.idle_w)) {
    bad("cap_fraction * peak_w must exceed idle_w "
        "(a cap below the idle floor cannot be met by throttling)");
  }
  if (!(window_s > 0) || !std::isfinite(window_s)) {
    bad("window_s must be finite and > 0");
  }
  if (pstates < 2) bad("pstates must be >= 2");
  if (!(pace_target > 0) || !(pace_target <= 1.0)) {
    bad("pace_target must be in (0, 1]");
  }
  if (!(admit_margin > 0) || !(admit_margin <= 1.0)) {
    bad("admit_margin must be in (0, 1]");
  }
  const tech::DvfsModel model(dvfs);  // throws on a malformed curve
  (void)model;
}

PowercapRuntime::PowercapRuntime(const PowercapConfig& cfg, unsigned leaves,
                                 double leaf_service_ms,
                                 double background_dyn_frac)
    : cfg_((cfg.validate(), cfg)),
      leaves_n_(leaves),
      ladder_(pstate_ladder(tech::DvfsModel(cfg.dvfs), cfg.pstates)),
      budget_("datacenter-it", cfg.cap_fraction *
                                  static_cast<double>(leaves) *
                                  cfg.server.peak_w) {
  if (leaves == 0) {
    throw std::invalid_argument("PowercapRuntime: need at least one leaf");
  }
  idle_w_total_ = static_cast<double>(leaves) * cfg_.server.idle_w;
  window_ms_ = cfg_.window_s * 1000.0;
  window_budget_j_ = (budget_.cap() - idle_w_total_) * cfg_.window_s;
  // The idle floor is a standing component of the budget; the per-window
  // dynamic draw is added/removed each boundary (remove() recomputes the
  // total, so the churn never drifts).
  budget_.add("idle-floor", idle_w_total_);

  const double pdyn_full = cfg_.server.peak_w - cfg_.server.idle_w;
  leaf_pstate_.assign(leaves, ladder_.size() - 1);
  leaf_pdyn_w_.assign(leaves, pdyn_full);
  leaf_busy_prev_.assign(leaves, 0.0);
  leaf_demand_ewma_.assign(leaves, 0.0);

  if (cfg_.policy == PowercapPolicy::kUniform) {
    // The naive static throttle: the fastest p-state that is safe even
    // with every leaf flat out for a whole window.
    const std::size_t p =
        capped_pstate(ladder_, cfg_.server.idle_w, cfg_.server.peak_w,
                      budget_.cap() / static_cast<double>(leaves));
    for (unsigned l = 0; l < leaves; ++l) set_pstate(l, p);
  }

  if (cfg_.policy == PowercapPolicy::kGovernor) {
    // Convert the window budget into a sustainable query rate: each
    // admitted query costs every leaf one service at vnom dynamic power,
    // and the background load (also at vnom) gets first claim.  This is
    // the AIMD *ceiling*; the live rate backs off whenever the energy
    // gate reports that the estimate over-admitted (one joule per query
    // is a healthy-cluster number -- a retry storm multiplies it).
    const double bg_w =
        static_cast<double>(leaves) * background_dyn_frac * pdyn_full;
    const double query_j = static_cast<double>(leaves) *
                           (leaf_service_ms * 1e-3) * pdyn_full;
    const double avail_w =
        std::max(0.0, (budget_.cap() - idle_w_total_) - bg_w);
    admit_rate_max_ =
        query_j > 0 ? cfg_.admit_margin * avail_w / query_j : 0;
    set_admit_rate(admit_rate_max_);
    // Start with one token, not a full burst: an initial burst admits
    // ~2x the sustainable rate into the first window, trips the gate,
    // and AIMD then punishes the cluster for the inrush.
    admit_tokens_ = 1.0;
  }
}

void PowercapRuntime::set_admit_rate(double qps) {
  admit_rate_qps_ = std::clamp(qps, admit_rate_max_ / 64.0, admit_rate_max_);
  admit_burst_ = std::max(1.0, admit_rate_qps_ * cfg_.window_s);
  admit_tokens_ = std::min(admit_tokens_, admit_burst_);
}

void PowercapRuntime::set_pstate(unsigned leaf, std::size_t p) {
  leaf_pstate_[leaf] = p;
  leaf_pdyn_w_[leaf] =
      (cfg_.server.peak_w - cfg_.server.idle_w) * ladder_[p].power_ratio;
  if (!res_.empty()) res_[leaf]->set_speed(ladder_[p].speed);
}

void PowercapRuntime::attach(
    const std::vector<std::unique_ptr<des::Resource>>& leaves) {
  res_.clear();
  res_.reserve(leaves.size());
  for (const auto& l : leaves) res_.push_back(l.get());
  for (unsigned l = 0; l < leaves_n_; ++l) {
    res_[l]->set_speed(ladder_[leaf_pstate_[l]].speed);
    res_[l]->set_start_gate(
        [this, l](des::Time eff) { return gate(l, eff); });
  }
}

void PowercapRuntime::detach() {
  for (des::Resource* r : res_) r->set_start_gate(nullptr);
}

bool PowercapRuntime::gate(unsigned leaf, double effective_service_ms) {
  const double e = leaf_pdyn_w_[leaf] * effective_service_ms * 1e-3;
  if (window_spent_j_ + e <= window_budget_j_) {
    window_spent_j_ += e;
    return true;
  }
  if (e > window_budget_j_ && window_spent_j_ == 0) {
    // A job bigger than a whole window's budget could never start under
    // the strict contract; admit it at a fresh window and count the
    // overrun (bench_power asserts this stays zero at sane windows).
    window_spent_j_ += e;
    ++stats_.overruns;
    return true;
  }
  return false;
}

bool PowercapRuntime::admit(double now_ms) {
  if (cfg_.policy != PowercapPolicy::kGovernor) return true;
  if (admit_rate_qps_ <= 0) {
    ++stats_.shed_queries;
    return false;
  }
  // Not the shared cloud::TokenBucket: this refill multiplies by 1e-3
  // where the shared bucket divides by 1000.0, and the two round
  // differently, so sharing it would change E33's results.
  admit_tokens_ = std::min(
      admit_burst_,
      admit_tokens_ + (now_ms - admit_last_ms_) * admit_rate_qps_ * 1e-3);
  admit_last_ms_ = now_ms;
  if (admit_tokens_ < 1.0) {
    ++stats_.shed_queries;
    return false;
  }
  admit_tokens_ -= 1.0;
  return true;
}

void PowercapRuntime::adapt(double /*now_ms*/) {
  if (cfg_.policy != PowercapPolicy::kPace) return;
  for (unsigned l = 0; l < leaves_n_; ++l) {
    const double busy = res_[l]->busy_time();
    const double u =
        std::clamp((busy - leaf_busy_prev_[l]) / window_ms_, 0.0, 1.0);
    leaf_busy_prev_[l] = busy;
    const std::size_t cur = leaf_pstate_[l];
    // Demand in NOMINAL work units (u * speed): invariant across
    // p-states, so the EWMA stays meaningful when the rung changes.
    leaf_demand_ewma_[l] =
        0.5 * leaf_demand_ewma_[l] + 0.5 * u * ladder_[cur].speed;
    if (u >= cfg_.pace_target) {
      // At or past the target the busy fraction stops measuring demand
      // (a backlogged leaf reads 1.0 no matter how deep the queue), so
      // the only safe move is straight back to nominal -- the classic
      // ondemand shape: jump up, trickle down.
      leaf_demand_ewma_[l] = ladder_[cur].speed;  // at least a full window
      set_pstate(l, ladder_.size() - 1);
      continue;
    }
    // The slowest p-state whose PREDICTED utilization (demand / speed)
    // stays under the target is speed >= demand / target; picking it
    // directly means pace converges instead of cycling through
    // saturation.  Downward moves are clamped to one rung per window so
    // one quiet window cannot fling the leaf to the floor.
    const double need = leaf_demand_ewma_[l] / cfg_.pace_target;
    std::size_t p = 0;
    while (p + 1 < ladder_.size() && ladder_[p].speed < need) ++p;
    if (cur > 0 && p < cur - 1) p = cur - 1;
    set_pstate(l, p);
  }
}

void PowercapRuntime::on_window(double now_ms) {
  const double win_s = (now_ms - last_window_ms_) * 1e-3;
  const double e = idle_w_total_ * win_s + window_spent_j_;
  stats_.energy_j += e;
  stats_.energy_j_per_window.push_back(e);
  if (win_s > 0) {
    const double w = e / win_s;
    stats_.peak_window_w = std::max(stats_.peak_window_w, w);
    budget_.remove("window-dynamic");
    budget_.add("window-dynamic", window_spent_j_ / win_s);
  }
  last_window_ms_ = now_ms;
  window_spent_j_ = 0;
  if (cfg_.policy == PowercapPolicy::kGovernor && !res_.empty()) {
    // AIMD feedback: a window the gate had to backstop means the static
    // joules-per-query estimate under-priced admission (retry storms do
    // exactly this), so back off hard; a clean window earns the rate
    // back toward the ceiling.
    std::uint64_t stalls = 0;
    for (des::Resource* r : res_) stalls += r->gate_stalls();
    set_admit_rate(stalls > stalls_seen_ ? admit_rate_qps_ * 0.5
                                         : admit_rate_qps_ * 1.25);
    stalls_seen_ = stalls;
  }
  adapt(now_ms);
  for (des::Resource* r : res_) r->release_gate();
}

void PowercapRuntime::finish() {
  for (des::Resource* r : res_) stats_.gate_stalls += r->gate_stalls();
}

}  // namespace arch21::cloud
