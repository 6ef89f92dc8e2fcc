#pragma once
// The benchmark's traced "layers" round: per-layer costs and counts for
// one workload, attributed by timing calls into the public functions of
// des, cloud, obs and util.  Never feeds the end-to-end numbers.

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace e2e {

/// Heap allocations made so far by this process (counted by the
/// benchmark binary's global operator new).
std::uint64_t allocation_count();

struct LayerMetric {
  std::string name;
  double value = 0;
};

struct LayersRound {
  std::vector<LayerMetric> metrics;
  std::vector<std::uint64_t> digests;  ///< per trial, obs off
  /// Thrown trials, broken invariants, and trials whose result changed
  /// when metrics or tracing were switched on (obs must be read-only).
  std::vector<TrialFailure> failures;
};

/// One layers round over `seeds` trials of `cfg`.  Every timed call is
/// recorded as a host-time 'X' span (round > workload > trial > layer
/// call) and the spans are written to `trace_path` as Chrome trace JSON.
/// Metrics of a layer the workload does not have are left out.
LayersRound run_layers(const std::string& workload, const Config& cfg,
                       unsigned seeds, unsigned round,
                       const std::string& trace_path);

}  // namespace e2e
