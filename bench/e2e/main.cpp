// arch21_e2e: one round of one end-to-end benchmark workload, in its own
// process so set-up time and peak RSS are per workload.  run.py launches
// these, interleaves rounds across workloads, and aggregates.
//
//   arch21_e2e --workload W [--seed S] [--seeds N] [--round R] [--checks]
//   arch21_e2e --workload W ... --layers --trace-out PATH
//
// Default mode: the set-up -- process start through one untimed cold
// trial, always trial 0 of seed 2014 so every run sets up on the same
// input, after which peak RSS is read and the reference kernel (see
// reference.hpp) makes kSetupRefPasses timed passes -- then trials
// 0..N-1 of --seed, each timed around its one simulate_* call with obs
// off, right after one timed reference pass.  --seeds 0 stops after the
// set-up's reference passes.
// --checks adds the correctness probes: the serial aggregate of the
// first trials against run_*_trials on a 2-thread pool, and the
// seed-2014 three-trial digest run.py compares with golden.json.
// --layers runs the traced per-layer round instead (see layers.hpp).
// Prints one JSON object on stdout; exits nonzero on bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "layers.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kGoldenSeed = 2014;
constexpr unsigned kGoldenTrials = 3;
constexpr unsigned kPoolCheckTrials = 8;
constexpr unsigned kSetupRefPasses = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = kGoldenSeed;
  unsigned seeds = 50;
  unsigned round = 0;
  bool checks = false;
  bool layers = false;
  std::string trace_out;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

/// Peak resident set of this process image, MiB.  VmHWM, not ru_maxrss:
/// Linux carries ru_maxrss across execve, so under run.py it would report
/// the Python parent's peak whenever that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void write_digests(std::ostream& out, const std::vector<std::uint64_t>& d) {
  out << "\"digests\": [";
  for (std::size_t i = 0; i < d.size(); ++i) {
    out << (i ? ", " : "") << quoted(hex(d[i]));
  }
  out << "]";
}

void write_failures(std::ostream& out, const std::vector<TrialFailure>& f) {
  out << "\"failed\": [";
  for (std::size_t i = 0; i < f.size(); ++i) {
    out << (i ? ", " : "") << "{\"trial\": " << f[i].trial
        << ", \"why\": " << quoted(f[i].why) << "}";
  }
  out << "]";
}

template <typename Result>
void fold(Result& acc, Result r) {
  if (acc.trials == 0) {
    acc = std::move(r);
  } else {
    acc.merge(r);
  }
}

template <typename Cfg>
void e2e_round(const Cfg& base, const Args& a, Clock::time_point t_main,
               std::ostream& out) {
  using Result = decltype(simulate(base));
  std::vector<TrialFailure> failed;

  Cfg golden = base;
  golden.seed = kGoldenSeed;
  std::uint64_t setup_digest = 0;
  try {
    setup_digest = digest(simulate(trial_config(golden, 0)));
  } catch (const std::exception& e) {
    failed.push_back({0, std::string("set-up trial threw: ") + e.what()});
  }
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - t_main).count();
  // Peak memory is read on the set-up's fixed input too: over the timed
  // trials it would be the largest trial of --seed's set, which moves
  // with the seed far more than with the code.
  const double rss_mb = peak_rss_mb();

  (void)reference_pass_s();  // allocates and warms its table
  std::vector<double> setup_ref(kSetupRefPasses);
  for (double& s : setup_ref) s = reference_pass_s();
  std::sort(setup_ref.begin(), setup_ref.end());
  const double setup_ref_s = setup_ref[kSetupRefPasses / 2];

  const unsigned n = a.seeds;
  const unsigned pool_trials = std::min(n, kPoolCheckTrials);
  std::vector<double> trial_s(n, std::nan("")), ref_s(n, 0);
  std::vector<std::uint64_t> offered_q(n, 0), digests(n, 0);
  Result agg, prefix;
  agg.trials = 0;
  for (unsigned i = 0; i < n; ++i) {
    const Cfg c = trial_config(base, i);
    ref_s[i] = reference_pass_s();
    try {
      const auto t0 = Clock::now();
      Result r = simulate(c);
      trial_s[i] = std::chrono::duration<double>(Clock::now() - t0).count();
      offered_q[i] = offered(r);
      digests[i] = digest(r);
      if (const char* law = broken_invariant(r)) {
        failed.push_back({i, std::string("invariant broken: ") + law});
      }
      fold(agg, std::move(r));
    } catch (const std::exception& e) {
      failed.push_back({i, std::string("threw: ") + e.what()});
    }
    if (i + 1 == pool_trials) prefix = agg;
  }

  out << "{\"workload\": " << quoted(a.workload) << ", \"seed\": " << a.seed
      << ", \"seeds\": " << n << ", \"round\": " << a.round
      << ", \"setup_s\": " << setup_s << ", \"setup_ref_s\": " << setup_ref_s
      << ", \"setup_digest\": " << quoted(hex(setup_digest))
      << ", \"peak_rss_mb\": " << rss_mb
      << ", \"trial_s\": [";
  for (unsigned i = 0; i < n; ++i) {
    out << (i ? ", " : "");
    if (std::isnan(trial_s[i])) {
      out << "null";
    } else {
      out << trial_s[i];
    }
  }
  out << "], \"ref_s\": [";
  for (unsigned i = 0; i < n; ++i) out << (i ? ", " : "") << ref_s[i];
  out << "], \"offered\": [";
  for (unsigned i = 0; i < n; ++i) out << (i ? ", " : "") << offered_q[i];
  out << "], ";
  write_digests(out, digests);
  out << ", \"aggregate_digest\": " << quoted(hex(digest(agg)));

  if (a.checks) {
    bool pool_identical = false;
    std::string probe = "error";
    try {
      arch21::ThreadPool pool(2);
      pool_identical =
          digest(run_trials(base, pool_trials, pool)) == digest(prefix);
      Result g;
      g.trials = 0;
      for (unsigned i = 0; i < kGoldenTrials; ++i) {
        fold(g, simulate(trial_config(golden, i)));
      }
      probe = hex(digest(g));
    } catch (const std::exception& e) {
      failed.push_back({0, std::string("checks threw: ") + e.what()});
    }
    if (!pool_identical) {
      failed.push_back({0, "serial aggregate differs from the 2-thread pool"});
    }
    out << ", \"checks\": {\"pool_identical\": "
        << (pool_identical ? "true" : "false")
        << ", \"golden_digest\": " << quoted(probe) << "}";
  }
  out << ", ";
  write_failures(out, failed);
  out << "}\n";
}

void usage() {
  std::cerr << "usage: arch21_e2e --workload W [--seed S] [--seeds N] "
               "[--round R] [--checks] [--layers --trace-out PATH]\n"
               "workloads:";
  for (const auto& w : workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
}

std::uint64_t parse_u64(const char* s, const char* flag,
                        std::uint64_t max = UINT64_MAX) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || *s == '-' || errno == ERANGE || v > max) {
    throw std::invalid_argument(std::string("bad value for ") + flag);
  }
  return v;
}

int run(int argc, char** argv, Clock::time_point t_main) {
  Args a;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      auto value = [&]() -> const char* {
        if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
        return argv[++i];
      };
      if (flag == "--workload") {
        a.workload = value();
      } else if (flag == "--seed") {
        a.seed = parse_u64(value(), "--seed");
      } else if (flag == "--seeds") {
        a.seeds = static_cast<unsigned>(parse_u64(value(), "--seeds", 100000));
      } else if (flag == "--round") {
        a.round = static_cast<unsigned>(parse_u64(value(), "--round", 1000));
      } else if (flag == "--checks") {
        a.checks = true;
      } else if (flag == "--layers") {
        a.layers = true;
      } else if (flag == "--trace-out") {
        a.trace_out = value();
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (a.workload.empty() || (a.layers && a.trace_out.empty()) ||
        (a.seeds == 0 && (a.checks || a.layers))) {
      throw std::invalid_argument("missing or out-of-range arguments");
    }
    const Config cfg = make_workload(a.workload, a.seed);
    std::ostringstream out;
    out.precision(17);
    if (a.layers) {
      const LayersRound lr =
          run_layers(a.workload, cfg, a.seeds, a.round, a.trace_out);
      out << "{\"workload\": " << quoted(a.workload)
          << ", \"round\": " << a.round << ", \"seeds\": " << a.seeds
          << ", \"layers\": {";
      for (std::size_t i = 0; i < lr.metrics.size(); ++i) {
        out << (i ? ", " : "") << quoted(lr.metrics[i].name) << ": "
            << lr.metrics[i].value;
      }
      out << "}, ";
      write_digests(out, lr.digests);
      out << ", ";
      write_failures(out, lr.failures);
      out << "}\n";
    } else {
      std::visit([&](const auto& base) { e2e_round(base, a, t_main, out); },
                 cfg);
    }
    std::cout << out.str();
  } catch (const std::exception& e) {
    std::cerr << "arch21_e2e: " << e.what() << "\n";
    usage();
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const auto t_main = std::chrono::steady_clock::now();
  return e2e::run(argc, argv, t_main);
}
