#pragma once
// Trial aggregation shared by ClusterResult and MultiRegionResult: the
// merge rules their merge() functions apply field by field, the seeded
// trial fold behind run_cluster_trials() and run_multiregion_trials(),
// and the windowed-goodput mean every disruption drill reduces its
// series to.  Each field's rule is still chosen once, in its own merge().

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace arch21::cloud {

/// Trial-weighted mean of a per-trial ratio: `a` stands for `na` trials
/// and `b` for `nb`.
inline double trial_mean(double a, unsigned na, double b, unsigned nb) {
  const double wa = static_cast<double>(na);
  const double wb = static_cast<double>(nb);
  return (a * wa + b * wb) / (wa + wb);
}

/// Merge the grid a windowed series (or a cap) was recorded on: 0 means
/// "none" and adopts the other side's value, and two different non-zero
/// values throw std::invalid_argument("<what> mismatch").  Summing counts
/// recorded on different grids would silently corrupt every windowed
/// measurement downstream.
inline void merge_grid(double& grid, double other, const char* what) {
  if (grid > 0 && other > 0 && grid != other) {
    throw std::invalid_argument(std::string(what) + " mismatch");
  }
  if (grid == 0) grid = other;
}

/// Element-wise sum of a windowed series.  Trials may differ in length by
/// a window when completions straggle past the horizon; the shorter side
/// reads as zeros.
template <typename T>
void sum_series(std::vector<T>& acc, const std::vector<T>& other) {
  if (acc.size() < other.size()) acc.resize(other.size(), T{});
  for (std::size_t i = 0; i < other.size(); ++i) acc[i] += other[i];
}

/// Per-region series: sums region by region.
template <typename T>
void sum_series(std::vector<std::vector<T>>& acc,
                const std::vector<std::vector<T>>& other) {
  if (acc.size() < other.size()) acc.resize(other.size());
  for (std::size_t i = 0; i < other.size(); ++i) sum_series(acc[i], other[i]);
}

/// Run `trials` independent simulations of `cfg` on `pool`
/// (ThreadPool::global() when null): trial i runs `simulate` on a copy of
/// `cfg` reseeded with Rng(cfg.seed, i).next().  With grain 1 every chunk
/// is one trial, and parallel_reduce merges them in trial order, so the
/// aggregate is bit-identical for any pool size.
template <typename Config, typename Simulate>
auto fold_trials(const Config& cfg, unsigned trials, ThreadPool* pool,
                 Simulate simulate) {
  using Result = decltype(simulate(cfg));
  ThreadPool& tp = pool ? *pool : ThreadPool::global();
  Result empty;
  empty.trials = 0;
  return tp.parallel_reduce<Result>(
      trials, std::move(empty), /*grain=*/1,
      [&](std::size_t i, std::size_t, std::size_t) {
        Config c = cfg;
        c.seed = Rng(cfg.seed, i).next();
        return simulate(c);
      },
      [](Result acc, Result one) {
        if (acc.trials == 0) return one;  // the empty fold has no shape
        acc.merge(one);
        return acc;
      });
}

/// Mean goodput, answered queries per second per trial, over the complete
/// windows inside [from_s, to_s) of `series`: per-window counts summed
/// over `trials` trials on `window_s`-second windows (window_s > 0).
/// Windows past the end of the series count as zeros -- a run that never
/// answers again is the metastable signal itself.  An empty range is 0.
inline double window_mean_qps(const std::vector<std::uint64_t>& series,
                              double window_s, unsigned trials,
                              double from_s, double to_s) {
  const auto begin = static_cast<std::size_t>(std::ceil(from_s / window_s));
  const auto end = static_cast<std::size_t>(to_s / window_s);
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t i = begin; i < end; ++i, ++n) {
    if (i < series.size()) sum += static_cast<double>(series[i]);
  }
  const double per_window =
      window_s * static_cast<double>(std::max(trials, 1u));
  return n > 0 ? sum / (static_cast<double>(n) * per_window) : 0.0;
}

/// Windowed-goodput summary of one disruption run (a fault burst, a
/// regional blackout or grayout): mean goodput over the complete windows
/// strictly before the disruption, skipping window 0 as warmup, vs the
/// complete windows inside the horizon after it cleared plus a settle.
/// A protected system recovers (recovery_ratio ~ 1); a metastable one
/// does not (the disruption is gone but goodput is not coming back).
struct GoodputHysteresis {
  double pre_qps = 0;
  double post_qps = 0;
  double recovery_ratio() const noexcept {
    return pre_qps > 0 ? post_qps / pre_qps : 0;
  }
};

/// GoodputHysteresis of `series` around a disruption over
/// [start_s, end_s) in a `horizon_s` run.
inline GoodputHysteresis hysteresis_around(
    const std::vector<std::uint64_t>& series, double window_s,
    unsigned trials, double start_s, double end_s, double horizon_s,
    double settle_s) {
  // The pre range starts one window in: window 0 is warmup.
  return {window_mean_qps(series, window_s, trials, window_s, start_s),
          window_mean_qps(series, window_s, trials, end_s + settle_s,
                          horizon_s)};
}

}  // namespace arch21::cloud
