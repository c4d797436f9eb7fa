#pragma once

/// \file workloads.hpp
/// The benchmark's four workloads. Each one builds its scenario from the
/// seed, runs a fixed simulated horizon under check::Sentinel, and returns
/// one `Rep`: the host times of set-up and of `run_until`, the program's
/// public counters, the correctness tally and the run digest. NOTES.md says
/// why each workload exists and which metrics it should move.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/sentinel.hpp"
#include "hooks.hpp"

namespace perfbench {

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"quiet_tree", "loaded_tree",
                                                 "fattree_k16", "named_campaigns"};
  return names;
}

struct RunOptions {
  bool traced = false;   ///< wrap the layer hooks (hooks.hpp)
  bool bridged = false;  ///< EngineMode::kBridged (the Fig. 5 trees only)
};

/// Additive and high-water per-layer quantities, keyed by metric name.
struct Layers {
  std::map<std::string, double> sum;
  std::map<std::string, double> max;
  void add(const std::string& k, double v) { sum[k] += v; }
  void hi(const std::string& k, double v) {
    auto [it, fresh] = max.emplace(k, v);
    if (!fresh && v > it->second) it->second = v;
  }
};

struct Rep {
  std::uint64_t sim_seed = 0;
  double setup_s = 0;  ///< construction up to the first run_until
  double run_s = 0;    ///< host seconds inside Simulator::run_until
  double run_cpu_s = 0;  ///< process CPU seconds inside run_until (all threads)
  std::uint64_t events = 0;
  int workers = 1;     ///< threads executing events (shards when parallel)
  double worst_offset_ticks = 0;
  std::uint64_t attempted = 0;  ///< sentinel checks + verdicts + app operations
  std::uint64_t failed = 0;     ///< violations + failed verdicts + failed operations
  std::vector<std::string> failures;
  dtpsim::check::RunDigest digest;
  Layers layers;
  std::vector<double> recover_us;  ///< chaos reconvergence times
  HookTotals hooks;                ///< traced runs only
};

/// Run workload `name` once. Throws std::invalid_argument on an unknown name.
Rep run_workload(const std::string& name, std::uint64_t seed, const RunOptions& opt);

/// Host nanoseconds to schedule and fire one no-op event through the public
/// Simulator API, with `depth` events pending (a hold-model loop of 300k
/// events).
double noop_event_ns(std::size_t depth, std::uint64_t seed);

}  // namespace perfbench
