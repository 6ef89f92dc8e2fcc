#include "reference.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <queue>
#include <random>
#include <unordered_map>
#include <vector>

namespace e2e {

namespace {

struct Event {
  double t;
  std::uint64_t seq;
  std::uint32_t id;
  bool arrival;
};

struct Later {
  bool operator()(const Event& a, const Event& b) const {
    return a.t > b.t || (a.t == b.t && a.seq > b.seq);
  }
};

constexpr std::size_t kTableWords = std::size_t{1} << 19;  // 4 MiB
constexpr unsigned kLeaves = 64, kFanout = 8, kTouches = 8;
constexpr double kGapMs = 5, kHorizonMs = 20000;

volatile std::uint64_t sink;

}  // namespace

double reference_pass_s() {
  static std::vector<std::uint64_t> table(kTableWords, 1);
  const auto t0 = std::chrono::steady_clock::now();
  std::mt19937_64 rng(1);
  std::lognormal_distribution<double> service(1.0, 0.35);
  std::exponential_distribution<double> gap(1.0 / kGapMs);
  std::priority_queue<Event, std::vector<Event>, Later> events;
  std::unordered_map<std::uint32_t, double> in_flight;
  std::vector<double> busy_until(kLeaves, 0.0), latency;
  std::uint64_t seq = 0, acc = 0;
  std::uint32_t next_id = 0;
  double now = 0;
  events.push({gap(rng), seq++, 0, true});
  while (!events.empty() && now < kHorizonMs) {
    const Event e = events.top();
    events.pop();
    now = e.t;
    if (e.arrival) {
      const std::uint32_t id = next_id++;
      in_flight[id] = now;
      for (unsigned k = 0; k < kTouches; ++k) {
        std::uint64_t& w = table[rng() & (kTableWords - 1)];
        acc += w;
        w += acc;
      }
      for (unsigned k = 0; k < kFanout; ++k) {
        double& busy = busy_until[rng() % kLeaves];
        busy = std::max(now, busy) + service(rng);
        events.push({busy, seq++, id, false});
      }
      events.push({now + gap(rng), seq++, 0, true});
    } else if (auto it = in_flight.find(e.id); it != in_flight.end()) {
      latency.push_back(now - it->second);
      in_flight.erase(it);
    }
  }
  sink = acc + latency.size();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace e2e
