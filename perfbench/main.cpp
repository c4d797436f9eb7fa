/// perfbench — the repository benchmark's measuring program.
///
///   perfbench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
///
/// Repeats one workload (workloads.hpp) for at least S host seconds and
/// prints one JSON line with every repetition's raw times, the run digest
/// and the correctness tally. With --trace=1 it alternates plain and
/// hook-timed repetitions (hooks.hpp) and adds the per-layer metrics.
/// `run.py` builds this program, aggregates the line, and prints the
/// benchmark result. Unknown or malformed flags exit 2.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "sim/event_queue.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr const char* kUsage =
    "usage: perfbench --workload=quiet_tree|loaded_tree|fattree_k16|named_campaigns\n"
    "                 [--seed=N] [--seconds=S] [--trace=0|1]\n";

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n%s", msg.c_str(), kUsage);
  std::exit(2);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Linear-interpolated quantile `q` in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + json_num(v[i]);
  return out + "]";
}

/// Peak resident memory of this process image. VmHWM, unlike ru_maxrss,
/// starts afresh at exec, so the launching process's footprint is excluded.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

/// Two repetitions of one seed must agree on everything the program
/// produced. Returns what differs, or an empty string when nothing does.
std::string mismatch(const Rep& a, const Rep& b, const char* what) {
  if (a.digest == b.digest && a.events == b.events && a.failed == b.failed &&
      a.worst_offset_ticks == b.worst_offset_ticks)
    return "";
  return std::string(what) + " run differs: digest " + b.digest.hex() + " vs " +
         a.digest.hex() + ", events " + std::to_string(b.events) + " vs " +
         std::to_string(a.events);
}

struct Samples {
  std::vector<double> run_s, run_cpu_s, setup_s, events_per_s;
  void add(const Rep& r) {
    run_s.push_back(r.run_s);
    run_cpu_s.push_back(r.run_cpu_s);
    setup_s.push_back(r.setup_s);
    events_per_s.push_back(static_cast<double>(r.events) / r.run_s);
  }
};

double layer_sum(const Rep& r, const std::string& k) {
  const auto it = r.layers.sum.find(k);
  return it == r.layers.sum.end() ? 0 : it->second;
}

/// Median over repetitions of a per-rep quantity.
template <typename F>
double median_of(const std::vector<Rep>& reps, F f) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(f(r));
  return median(v);
}

double hook_ns_per_call(const Rep& r, std::initializer_list<Hook> self,
                        std::initializer_list<Hook> per) {
  double ns = 0, calls = 0;
  for (Hook h : self) ns += static_cast<double>(r.hooks.self_ns[h]);
  for (Hook h : per) calls += static_cast<double>(r.hooks.calls[h]);
  return ratio(ns, calls);
}

double unattributed_share(const Rep& r) {
  const double busy_ns = r.run_s * 1e9 * r.workers;
  return 1.0 - static_cast<double>(r.hooks.attributed_ns()) / busy_ns;
}

/// The per-layer metrics (NOTES.md): counters from the first traced rep
/// (they repeat exactly), host times as medians over the repetitions.
std::map<std::string, double> layer_metrics(const std::vector<Rep>& plain,
                                            const std::vector<Rep>& traced,
                                            const std::vector<Rep>& bridged,
                                            const std::vector<double>& noop_ns) {
  const Rep& c = traced.front();
  std::map<std::string, double> m;
  auto sum = [&](const std::string& k) { return layer_sum(c, k); };
  for (const auto& [k, v] : c.layers.max) m[k] = v;
  for (const char* k : {"sim.events", "sim.scheduled", "sim.cancelled", "sim.callback_spills",
                        "sim.par.epochs", "sim.par.cross_messages", "phy.control_blocks",
                        "phy.frames", "phy.fifo_crossings", "phy.fifo_extra_cycles",
                        "dtp.beacons_sent", "dtp.beacons_received", "dtp.adjustments",
                        "dtp.inits", "dtp.joins", "net.tx_frames", "net.rx_frames",
                        "net.tx_drops", "net.switch_forwarded", "net.switch_flooded",
                        "check.samples", "check.checks", "check.violations", "chaos.faults",
                        "chaos.probes_done", "chaos.wd_reinits", "chaos.utc_checks",
                        "apps.ops", "apps.failures", "apps.reader_reads"})
    m[k] = sum(k);
  for (std::size_t i = 0; i < dtpsim::sim::kEventCategoryCount; ++i) {
    const std::string k = std::string("sim.events.") +
                          dtpsim::sim::category_name(static_cast<dtpsim::sim::EventCategory>(i));
    m[k] = sum(k);
  }
  m["sim.cancel_ratio"] = ratio(sum("sim.cancelled"), sum("sim.scheduled"));
  m["dtp.beacon_accept_ratio"] =
      ratio(sum("dtp.beacons_received") - sum("dtp.beacons_filtered"), sum("dtp.beacons_received"));
  m["net.delivery_ratio"] = ratio(sum("net.host_rx_frames"), sum("net.host_tx_frames"));
  m["apps.stale_ratio"] = ratio(sum("apps.reader_stale"), sum("apps.reader_reads"));
  m["chaos.recover_p99_us"] = percentile(c.recover_us, 0.99);

  for (const char* part : {"net", "dtp", "check", "apps", "chaos", "partition"}) {
    const std::string k = std::string("setup.") + part + "_s";
    m[k] = median_of(plain, [&](const Rep& r) { return layer_sum(r, k); });
  }
  m["dtp.offset_probe_ns"] = median_of(plain, [](const Rep& r) {
    return ratio(layer_sum(r, "dtp.offset_probe_ns_total"), layer_sum(r, "dtp.offset_probes"));
  });
  m["apps.page_read_ns"] = median_of(plain, [](const Rep& r) {
    return ratio(layer_sum(r, "apps.page_read_ns_total"), layer_sum(r, "apps.page_reads"));
  });

  // plain[i], traced[i], bridged[i] and noop_ns[i] ran back to back on one
  // CPU, so the ratios pair them up before taking the median.
  std::vector<double> overhead, speedup, engine_share;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const Rep& p = plain[i];
    overhead.push_back(traced[i].run_s / p.run_s);
    if (i < bridged.size()) speedup.push_back(p.run_s / bridged[i].run_s);
    engine_share.push_back(noop_ns[i] * static_cast<double>(p.events) /
                           (p.run_s * 1e9 * p.workers));
  }
  m["sim.noop_event_ns"] = median(noop_ns);
  m["sim.run_ns_per_event"] =
      median_of(plain, [](const Rep& r) { return r.run_s * 1e9 / static_cast<double>(r.events); });
  m["trace.overhead"] = median(overhead);
  m["sim.engine_share"] = median(engine_share);
  m["sim.bridged_speedup"] = median(speedup);
  m["sim.unattributed_share"] = median_of(traced, unattributed_share);
  m["dtp.rx_ns_per_block"] =
      median_of(traced, [](const Rep& r) { return hook_ns_per_call(r, {kDtpRx}, {kDtpRx}); });
  m["check.probe_ns_per_block"] = median_of(traced, [](const Rep& r) {
    return hook_ns_per_call(r, {kProbeTx, kProbeRx}, {kProbeTx, kProbeRx});
  });
  m["net.rx_ns_per_frame"] = median_of(
      traced, [](const Rep& r) { return hook_ns_per_call(r, {kMacRx, kHostRx}, {kMacRx}); });
  m["net.fwd_ns_per_frame"] = median_of(
      traced, [](const Rep& r) { return hook_ns_per_call(r, {kSwitchRx}, {kSwitchRx}); });

  return m;
}

struct Flags {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Flags parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    const std::string key = a.rfind("--", 0) == 0 ? a.substr(2, eq == a.npos ? a.npos : eq - 2) : "";
    if (key != "workload" && key != "seed" && key != "seconds" && key != "trace")
      usage_error("unknown argument '" + a + "'");
    if (eq == a.npos || eq + 1 == a.size()) usage_error("--" + key + " needs a value");
  }
  const dtpsim::benchutil::Flags raw(argc, argv);
  Flags f;
  f.workload = raw.get_string("workload", "");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), f.workload) == names.end())
    usage_error("--workload must be one of quiet_tree|loaded_tree|fattree_k16|named_campaigns");
  const long long seed = raw.get_int("seed", 1);
  if (seed < 0) usage_error("--seed must be >= 0");
  f.seed = static_cast<std::uint64_t>(seed);
  f.seconds = raw.get_double("seconds", 10);
  if (!(f.seconds >= 0 && f.seconds <= 3600)) usage_error("--seconds must be in [0, 3600]");
  const long long trace = raw.get_int("trace", 0);
  if (trace != 0 && trace != 1) usage_error("--trace must be 0 or 1");
  f.trace = trace == 1;
  return f;
}

/// Pins the calling thread to each allowed CPU in turn. On a shared host
/// single cores slow down for seconds at a time while others stay fast;
/// rotating the repetitions over every core keeps one contended core from
/// owning a whole run, and run.py's fast-decile statistic then reports the
/// program's speed on the cores that were not contended.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(all_), &all_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(std::size_t i) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

/// Each run cycles through kSubSeeds simulation seeds derived from --seed
/// (the first is --seed itself). The worst offset is a property of one
/// seeded tree instance; the worst over several instances is the headline
/// that repeats from run to run.
constexpr std::size_t kSubSeeds = 16;

std::uint64_t sub_seed(std::uint64_t seed, std::size_t j) {
  return seed + static_cast<std::uint64_t>(j) * 0x9E3779B97F4A7C15ULL;
}

int run(const Flags& f) {
  const Clock::time_point start = Clock::now();
  auto elapsed = [&] { return std::chrono::duration<double>(Clock::now() - start).count(); };
  const bool bridge_compare = f.trace && f.workload == "quiet_tree";

  // refs[j]: the first plain rep of sub-seed j; every later rep of that
  // sub-seed, traced or bridged, must reproduce it exactly. diverged[j]
  // holds the first difference found, or is empty.
  std::vector<Rep> refs;
  std::vector<std::string> diverged;
  std::vector<Rep> plain, traced, bridged;
  std::vector<double> noop_ns;
  double rss_mb = 0;
  auto rep_of = [&](std::size_t j, const RunOptions& opt, const char* what) {
    Rep r = run_workload(f.workload, sub_seed(f.seed, j), opt);
    r.sim_seed = sub_seed(f.seed, j);
    if (j < refs.size()) {
      if (diverged[j].empty()) diverged[j] = mismatch(refs[j], r, what);
    } else {
      refs.push_back(r);
      diverged.emplace_back();
    }
    return r;
  };
  rep_of(0, {}, "repeat");  // warm-up: caches and allocator, not timed
  // Every run covers all sub-seeds and repeats each at least once (the
  // traced rep repeats its plain one), so `attempted` and `failed` depend
  // on the seed alone, not on how many repetitions the host fits in.
  const std::size_t min_reps = f.trace ? kSubSeeds : 2 * kSubSeeds;
  // Parallel workers inherit the creating thread's CPU mask, so only the
  // serial workloads rotate.
  std::optional<CpuRotation> rotation;
  if (f.workload != "fattree_k16") rotation.emplace();
  for (std::size_t i = 0; elapsed() < f.seconds || plain.size() < min_reps; ++i) {
    const std::size_t j = i % kSubSeeds;
    if (rotation) rotation->pin(i);
    plain.push_back(rep_of(j, {}, "repeat"));
    if (f.trace) {
      // sim.peak_pending sums the per-shard peaks; one event sees one queue.
      const Layers& l = plain.back().layers;
      const double depth = l.max.at("sim.peak_pending") / l.max.at("sim.par.shards");
      noop_ns.push_back(noop_event_ns(static_cast<std::size_t>(depth), f.seed + i));
      traced.push_back(rep_of(j, {.traced = true}, "traced"));
    }
    if (bridge_compare) bridged.push_back(rep_of(j, {.bridged = true}, "bridged"));
    // Read the high-water mark after a fixed amount of work: the kept
    // repetitions grow with the host's speed and would leak into it.
    if (plain.size() == kSubSeeds) rss_mb = peak_rss_mb();
  }

  dtpsim::check::RunDigest digest;
  std::vector<double> worst_offsets;
  Tally tally;
  std::uint64_t repro_failed = 0;
  for (std::size_t j = 0; j < refs.size(); ++j) {
    // One determinism check per sub-seed.
    const Rep& r = refs[j];
    tally.check(diverged[j].empty(), "seed " + std::to_string(r.sim_seed) + ": " + diverged[j]);
    if (!diverged[j].empty()) ++repro_failed;
    digest.mix(r.digest.hash);
    worst_offsets.push_back(r.worst_offset_ticks);
    tally.attempted += r.attempted;
    tally.failed += r.failed;
    for (const std::string& s : r.failures)
      tally.failures.push_back("seed " + std::to_string(r.sim_seed) + ": " + s);
  }
  const Rep& first = refs.front();

  Samples samples;
  for (const Rep& r : plain) samples.add(r);

  std::string out = "{\"workload\": " + json_str(f.workload) +
                    ", \"seed\": " + std::to_string(f.seed) +
                    ", \"trace\": " + (f.trace ? "1" : "0") +
                    ", \"reps\": " + std::to_string(plain.size()) +
                    ", \"sub_seeds\": " + std::to_string(refs.size()) +
                    ", \"digest\": " + json_str(digest.hex()) +
                    ", \"events\": " + std::to_string(first.events) +
                    ", \"workers\": " + std::to_string(first.workers) +
                    ", \"attempted\": " + std::to_string(tally.attempted) +
                    ", \"failed\": " + std::to_string(tally.failed) +
                    ", \"repro_failed\": " + std::to_string(repro_failed) +
                    ", \"worst_offsets\": " + json_array(worst_offsets) +
                    ", \"peak_rss_mb\": " + json_num(rss_mb) +
                    ", \"wall_s\": " + json_array(samples.run_s) +
                    ", \"setup_s\": " + json_array(samples.setup_s) +
                    ", \"run_cpu_s\": " + json_array(samples.run_cpu_s) +
                    ", \"events_per_s\": " + json_array(samples.events_per_s) +
                    ", \"compiler\": " + json_str(__VERSION__) +
                    ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE);
  out += ", \"failures\": [";
  for (std::size_t i = 0; i < tally.failures.size() && i < 20; ++i)
    out += (i ? ", " : "") + json_str(tally.failures[i]);
  out += "]";
  if (f.trace) {
    const Rep& t = traced.front();
    const double run_ns = t.run_s * 1e9 * t.workers;
    const double attributed = static_cast<double>(t.hooks.attributed_ns());
    out += ", \"attribution\": {\"run_ns\": " + json_num(run_ns) +
           ", \"attributed_ns\": " + json_num(attributed) +
           ", \"unattributed_ns\": " + json_num(run_ns - attributed) + ", \"hooks\": {";
    const char* names[kHookCount] = {"dtp_rx", "probe_tx", "probe_rx", "mac_rx", "host_rx",
                                     "switch_rx"};
    for (int h = 0; h < kHookCount; ++h)
      out += std::string(h ? ", " : "") + "\"" + names[h] + "\": {\"self_ns\": " +
             std::to_string(t.hooks.self_ns[h]) +
             ", \"calls\": " + std::to_string(t.hooks.calls[h]) + "}";
    out += "}}, \"layers\": {";
    bool first_metric = true;
    for (const auto& [k, v] : layer_metrics(plain, traced, bridged, noop_ns)) {
      out += (first_metric ? "" : ", ") + json_str(k) + ": " + json_num(v);
      first_metric = false;
    }
    out += "}";
  }
  std::printf("%s}\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags f = parse(argc, argv);
  try {
    return run(f);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
