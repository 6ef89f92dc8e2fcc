#pragma once
// The end-to-end benchmark's four workloads and the per-trial plumbing
// every mode shares: run one seeded trial, fingerprint its result, and
// check its conservation laws.
//
// Each workload is one drill rung, frozen here rather than rebuilt from
// the library's ladder builders (cloud::overload_scenarios and friends):
// a benchmark has to keep measuring the same inputs when those builders
// change.  Cluster workloads carry a cloud::ClusterConfig, the region
// workload a cloud::MultiRegionConfig; the helpers below are overloaded
// on the two so the round loops can be written once as templates.

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "cloud/cluster.hpp"
#include "cloud/region.hpp"
#include "util/histogram.hpp"
#include "util/thread_pool.hpp"

namespace e2e {

using arch21::cloud::ClusterConfig;
using arch21::cloud::ClusterResult;
using arch21::cloud::MultiRegionConfig;
using arch21::cloud::MultiRegionResult;

using Config = std::variant<ClusterConfig, MultiRegionConfig>;

/// Workload names in the order run.py interleaves them.
const std::vector<std::string>& workload_names();

/// The workload's config with `seed` as its base seed.  Throws
/// std::invalid_argument for an unknown name.
Config make_workload(const std::string& name, std::uint64_t seed);

/// Two drill rungs that are not workloads: the layers run drives their
/// gray detector (E34 rung 4 "+ eviction + probation") and powercap
/// runtime (E33 "cap 60% governor") on every workload.
ClusterConfig grayfail_adaptive();
ClusterConfig powercap_governor();

/// Trial `index` of a run seeded `base`: the run_cluster_trials /
/// run_multiregion_trials convention, so a serial loop over trials and
/// the pooled aggregate see the same seeds.
template <typename Cfg>
Cfg trial_config(const Cfg& base, std::uint64_t index) {
  Cfg c = base;
  c.seed = arch21::Rng(base.seed, index).next();
  return c;
}

ClusterResult simulate(const ClusterConfig& cfg);
MultiRegionResult simulate(const MultiRegionConfig& cfg);

/// Pooled aggregate of `trials` trials (workers forced to 0 for the PDES
/// workload: run_cluster_trials parallelizes across trials, and the
/// worker count never changes results).
ClusterResult run_trials(const ClusterConfig& base, unsigned trials,
                         arch21::ThreadPool& pool);
MultiRegionResult run_trials(const MultiRegionConfig& base, unsigned trials,
                             arch21::ThreadPool& pool);

/// Simulated queries offered: admitted + shed + power-shed for a
/// cluster, generated requests for the regions.
std::uint64_t offered(const ClusterResult& r);
std::uint64_t offered(const MultiRegionResult& r);

/// 64-bit FNV-1a over every counter, the bit patterns of the FP fields,
/// the windowed series, and each histogram's count, min, max, mean, p50,
/// p90, p99 and p99.9.
std::uint64_t digest(const ClusterResult& r);
std::uint64_t digest(const MultiRegionResult& r);

/// Name of the first broken conservation law, or nullptr when all hold.
const char* broken_invariant(const ClusterResult& r);
const char* broken_invariant(const MultiRegionResult& r);

/// A trial that threw, broke an invariant, or disagreed with a run that
/// must reproduce it.
struct TrialFailure {
  unsigned trial = 0;
  std::string why;
};

}  // namespace e2e
