// E4 -- Section 2.1: "if 100 systems must jointly respond to a request,
// 63% of requests will incur the 99-percentile delay of the individual
// systems due to waiting for stragglers".
//
// Regenerates (a) the closed-form and simulated tail-amplification curve
// vs fan-out, (b) the mitigation table (hedged and tied requests), and
// (c) the queueing-interference view from the DES cluster.

#include <benchmark/benchmark.h>

#include <iostream>

#include "cloud/cluster.hpp"
#include "cloud/tail.hpp"
#include "util/table.hpp"

namespace {

using namespace arch21;
using namespace arch21::cloud;

void print_amplification() {
  std::cout << "\n=== E4a: tail amplification vs fan-out ===\n";
  auto leaf = make_leaf_distribution();
  const auto rows =
      fanout_sweep({1, 5, 10, 25, 50, 100, 200, 500, 1000}, 20000, leaf);
  TextTable t({"fanout", "P(wait >= leaf p99) analytic", "simulated",
               "p99 amplification"});
  for (const auto& r : rows) {
    t.row({std::to_string(r.fanout), TextTable::num(r.analytic_frac),
           TextTable::num(r.simulated_frac),
           TextTable::num(r.p99_amplification)});
  }
  t.print(std::cout);
  std::cout << "  Paper claim: fan-out 100 -> 63% of requests wait >= leaf "
               "p99.  (1 - 0.99^100 = 0.634)\n";
}

void print_mitigations() {
  std::cout << "\n=== E4b: Dean-style mitigations at fan-out 100 ===\n";
  auto leaf = make_leaf_distribution(5.0, 0.4, 0.02, 60.0, 1.4);
  HedgePolicy none;
  HedgePolicy hedged;
  hedged.kind = HedgePolicy::Kind::Hedged;
  hedged.hedge_delay_ms = 15;
  HedgePolicy tied;
  tied.kind = HedgePolicy::Kind::Tied;

  TextTable t({"policy", "p50 ms", "p99 ms", "p99.9 ms", "extra load"});
  for (const auto& [name, pol] :
       {std::pair<const char*, HedgePolicy>{"none", none},
        {"hedged@15ms", hedged},
        {"tied", tied}}) {
    const auto r = simulate_fork_join(100, 20000, leaf, pol, 11);
    t.row({name, TextTable::num(r.request_latency_ms.p50),
           TextTable::num(r.request_latency_ms.p99),
           TextTable::num(r.request_latency_ms.p999),
           TextTable::num(r.extra_load_fraction * 100, 3) + "%"});
  }
  t.print(std::cout);
}

void print_cluster() {
  std::cout << "\n=== E4c: DES cluster with queueing interference ===\n";
  ClusterConfig cfg;
  cfg.leaves = 50;
  cfg.duration_s = 10;
  cfg.query_rate_hz = 40;
  cfg.background_rate_hz = 60;
  cfg.background_ms = 5;
  TextTable t({"hedge", "queries", "leaf util", "query p50 ms", "query p99 ms",
               "hedge frac"});
  for (double hedge_ms : {0.0, 20.0}) {
    cfg.policy.hedge_after_ms = hedge_ms;
    const auto r = simulate_cluster(cfg);
    t.row({hedge_ms == 0 ? "off" : "20 ms", std::to_string(r.queries),
           TextTable::num(r.mean_leaf_utilization),
           TextTable::num(r.query_ms.quantile(0.5)),
           TextTable::num(r.query_ms.quantile(0.99)),
           TextTable::num(r.hedge_fraction)});
  }
  t.print(std::cout);
}

void BM_fork_join_100(benchmark::State& state) {
  auto leaf = make_leaf_distribution();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_fork_join(100, 200, leaf, {}, 3));
  }
}
BENCHMARK(BM_fork_join_100);

void BM_cluster_short(benchmark::State& state) {
  ClusterConfig cfg;
  cfg.leaves = 20;
  cfg.duration_s = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_cluster(cfg));
  }
}
BENCHMARK(BM_cluster_short);

}  // namespace

int main(int argc, char** argv) {
  print_amplification();
  print_mitigations();
  print_cluster();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
