#include "stress/spec.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "chaos/campaign.hpp"
#include "common/rng.hpp"

namespace dtpsim::stress {

const char* topo_name(TopoKind kind) {
  switch (kind) {
    case TopoKind::kChain: return "chain";
    case TopoKind::kPaperTree: return "paper_tree";
    case TopoKind::kRandomTree: return "random_tree";
    case TopoKind::kFatTree: return "fat_tree";
  }
  return "unknown";
}

TopoKind topo_from_name(const std::string& name) {
  for (auto k : {TopoKind::kChain, TopoKind::kPaperTree, TopoKind::kRandomTree,
                 TopoKind::kFatTree})
    if (name == topo_name(k)) return k;
  throw std::invalid_argument("stress: unknown topology '" + name + "'");
}

std::size_t spec_device_count(const StressSpec& s) {
  switch (s.topo) {
    case TopoKind::kChain: return s.chain_switches + 2;
    case TopoKind::kPaperTree: return 12;
    case TopoKind::kRandomTree: return s.tree_switches + s.tree_hosts;
    case TopoKind::kFatTree: {
      const std::size_t half = s.fat_k / 2;
      return half * half + 2 * s.fat_k * half + s.fat_k * half * s.fat_hosts_per_edge;
    }
  }
  return 0;
}

std::size_t spec_host_count(const StressSpec& s) {
  switch (s.topo) {
    case TopoKind::kChain: return 2;
    case TopoKind::kPaperTree: return 8;
    case TopoKind::kRandomTree: return s.tree_hosts;
    case TopoKind::kFatTree:
      return s.fat_k * (s.fat_k / 2) * s.fat_hosts_per_edge;
  }
  return 0;
}

std::pair<std::string, std::string> hier_server_hosts(const StressSpec& s) {
  // Kept in lockstep with build_topology in runner.cpp: the names of the
  // first and last entries of each builder's host list.
  switch (s.topo) {
    case TopoKind::kChain: return {"left", "right"};
    case TopoKind::kPaperTree: return {"S4", "S11"};
    case TopoKind::kRandomTree:
      return {"h0", "h" + std::to_string(s.tree_hosts - 1)};
    case TopoKind::kFatTree: {
      const std::uint32_t half = s.fat_k / 2;
      return {"pod0-e0-h0",
              "pod" + std::to_string(s.fat_k - 1) + "-e" +
                  std::to_string(half - 1) + "-h" +
                  std::to_string(s.fat_hosts_per_edge - 1)};
    }
  }
  return {"", ""};
}

double spec_size(const StressSpec& s) {
  double size = 1000.0 * static_cast<double>(s.faults.size());
  for (const auto& f : s.faults) size += 50.0 * f.count;
  size += 10.0 * static_cast<double>(spec_device_count(s));
  size += static_cast<double>(s.horizon) / static_cast<double>(from_ms(1));
  size += 2.0 * s.threads + s.n_flows + (s.bridged ? 2.0 : 0.0);
  size += s.hier ? 25.0 : 0.0;  // shrinker: drop the hierarchy when it can
  size += s.gray ? 25.0 : 0.0;  // ... and the watchdog
  return size;
}

namespace {

/// Error prefix for the shared number parsers (common/time_units.hpp).
constexpr const char* kWho = "stress";

std::uint64_t parse_u64(const std::string& key, const std::string& v) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long out = std::strtoull(v.c_str(), &end, 10);
  if (errno != 0 || end == v.c_str() || *end != '\0')
    throw std::invalid_argument("stress: bad unsigned for " + key + ": '" + v + "'");
  return static_cast<std::uint64_t>(out);
}

constexpr const char* kPresetNames[] = {"none", "canonical", "gray", "source"};

const char* preset_name(Preset p) { return kPresetNames[static_cast<int>(p)]; }

Preset preset_from_name(const std::string& name) {
  for (int i = 0; i < 4; ++i)
    if (name == kPresetNames[i]) return static_cast<Preset>(i);
  throw std::invalid_argument("stress: unknown preset '" + name + "'");
}

/// Parse "key=value key=value ..." from the remainder of a section line.
std::unordered_map<std::string, std::string> parse_kv(std::istringstream& in,
                                                      const std::string& section) {
  std::unordered_map<std::string, std::string> kv;
  std::string word;
  while (in >> word) {
    const auto eq = word.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("stress: expected key=value in '" + section +
                                  "' line, got '" + word + "'");
    if (!kv.emplace(word.substr(0, eq), word.substr(eq + 1)).second)
      throw std::invalid_argument("stress: duplicate key in '" + section + "' line");
  }
  return kv;
}

std::string take(std::unordered_map<std::string, std::string>& kv,
                 const std::string& section, const std::string& key) {
  auto it = kv.find(key);
  if (it == kv.end())
    throw std::invalid_argument("stress: '" + section + "' line missing key '" + key + "'");
  std::string v = it->second;
  kv.erase(it);
  return v;
}

void expect_empty(const std::unordered_map<std::string, std::string>& kv,
                  const std::string& section) {
  if (!kv.empty())
    throw std::invalid_argument("stress: unknown key '" + kv.begin()->first + "' in '" +
                                section + "' line");
}

}  // namespace

std::string to_text(const StressSpec& s) {
  std::ostringstream out;
  out << "dtpsim-stress-repro v1\n";
  out << "campaign seed=" << s.sim_seed << " topo=" << topo_name(s.topo) << "\n";
  // A preset owns the topology, net and load sections (StressSpec::preset).
  if (s.preset != Preset::kNone) {
    out << "preset name=" << preset_name(s.preset) << "\n";
  } else {
    out << "topo_args chain=" << s.chain_switches << " tree_sw=" << s.tree_switches
        << " tree_hosts=" << s.tree_hosts << " shape=" << s.shape_seed
        << " fat_k=" << s.fat_k << " fat_hpe=" << s.fat_hosts_per_edge << "\n";
    out << "net beacon=" << s.beacon_interval_ticks << " ppm=" << fmt_f64(s.ppm_spread)
        << " drift=" << (s.enable_drift ? 1 : 0) << " prop=" << s.propagation_delay << "\n";
    out << "load flows=" << s.n_flows << " bytes=" << s.frame_bytes
        << " saturate=" << (s.saturate ? 1 : 0) << " gbps=" << fmt_f64(s.rate_gbps) << "\n";
  }
  out << "run threads=" << s.threads << " settle=" << s.settle
      << " horizon=" << s.horizon << " engine=" << (s.bridged ? "bridged" : "exact")
      << "\n";
  out << "sentinel bound=" << fmt_f64(s.offset_bound_ticks)
      << " sample=" << s.sample_period << "\n";
  // Optional section: omitted entirely for hierarchy-free specs so files
  // written before the hierarchy existed re-serialize byte-identically.
  if (s.hier || s.hier_holdover_ceiling != 0)
    out << "hier enabled=" << (s.hier ? 1 : 0)
        << " ceiling=" << s.hier_holdover_ceiling << "\n";
  if (s.gray) out << "gray enabled=1\n";
  if (s.wd_check_period != 0 || s.wd_backoff != 0)
    out << "watchdog check=" << s.wd_check_period << " backoff=" << s.wd_backoff << "\n";
  for (const auto& f : s.faults) out << chaos::fault_to_line(f) << "\n";
  out << "end\n";
  return out.str();
}

StressSpec spec_from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "dtpsim-stress-repro v1")
    throw std::invalid_argument("stress: missing 'dtpsim-stress-repro v1' header");

  StressSpec s;
  bool terminated = false;
  bool seen[6] = {};
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line == "end") {
      terminated = true;
      break;
    }
    std::istringstream ls(line);
    std::string section;
    ls >> section;
    if (section == "fault") {
      s.faults.push_back(chaos::fault_from_line(line));
      continue;
    }
    auto kv = parse_kv(ls, section);
    if (section == "campaign") {
      seen[0] = true;
      s.sim_seed = parse_u64("seed", take(kv, section, "seed"));
      s.topo = topo_from_name(take(kv, section, "topo"));
    } else if (section == "topo_args") {
      seen[1] = true;
      s.chain_switches = static_cast<std::uint32_t>(parse_u64("chain", take(kv, section, "chain")));
      s.tree_switches = static_cast<std::uint32_t>(parse_u64("tree_sw", take(kv, section, "tree_sw")));
      s.tree_hosts = static_cast<std::uint32_t>(parse_u64("tree_hosts", take(kv, section, "tree_hosts")));
      s.shape_seed = parse_u64("shape", take(kv, section, "shape"));
      s.fat_k = static_cast<std::uint32_t>(parse_u64("fat_k", take(kv, section, "fat_k")));
      s.fat_hosts_per_edge =
          static_cast<std::uint32_t>(parse_u64("fat_hpe", take(kv, section, "fat_hpe")));
    } else if (section == "net") {
      seen[2] = true;
      s.beacon_interval_ticks =
          static_cast<std::uint32_t>(parse_u64("beacon", take(kv, section, "beacon")));
      s.ppm_spread = parse_f64(kWho, "ppm", take(kv, section, "ppm"));
      s.enable_drift = parse_u64("drift", take(kv, section, "drift")) != 0;
      s.propagation_delay = parse_i64(kWho, "prop", take(kv, section, "prop"));
    } else if (section == "load") {
      seen[3] = true;
      s.n_flows = static_cast<std::uint32_t>(parse_u64("flows", take(kv, section, "flows")));
      s.frame_bytes = static_cast<std::uint32_t>(parse_u64("bytes", take(kv, section, "bytes")));
      s.saturate = parse_u64("saturate", take(kv, section, "saturate")) != 0;
      s.rate_gbps = parse_f64(kWho, "gbps", take(kv, section, "gbps"));
    } else if (section == "run") {
      seen[4] = true;
      s.threads = static_cast<std::uint32_t>(parse_u64("threads", take(kv, section, "threads")));
      s.settle = parse_i64(kWho, "settle", take(kv, section, "settle"));
      s.horizon = parse_i64(kWho, "horizon", take(kv, section, "horizon"));
      // Optional for files written before the bridged engine existed.
      if (auto it = kv.find("engine"); it != kv.end()) {
        if (it->second == "bridged") {
          s.bridged = true;
        } else if (it->second != "exact") {
          throw std::invalid_argument("stress: engine must be exact or bridged, got '" +
                                      it->second + "'");
        }
        kv.erase(it);
      }
    } else if (section == "sentinel") {
      seen[5] = true;
      s.offset_bound_ticks = parse_f64(kWho, "bound", take(kv, section, "bound"));
      s.sample_period = parse_i64(kWho, "sample", take(kv, section, "sample"));
    } else if (section == "hier") {
      // Optional — absent in pre-hierarchy repro files.
      s.hier = parse_u64("enabled", take(kv, section, "enabled")) != 0;
      s.hier_holdover_ceiling = parse_i64(kWho, "ceiling", take(kv, section, "ceiling"));
    } else if (section == "gray") {
      // Optional — absent in pre-watchdog repro files.
      s.gray = parse_u64("enabled", take(kv, section, "enabled")) != 0;
    } else if (section == "watchdog") {
      s.wd_check_period = parse_i64(kWho, "check", take(kv, section, "check"));
      s.wd_backoff = parse_i64(kWho, "backoff", take(kv, section, "backoff"));
    } else if (section == "preset") {
      s.preset = preset_from_name(take(kv, section, "name"));
    } else {
      throw std::invalid_argument("stress: unknown section '" + section + "'");
    }
    expect_empty(kv, section);
  }
  if (!terminated) throw std::invalid_argument("stress: repro text missing 'end' footer");
  const bool preset = s.preset != Preset::kNone;
  for (int i = 0; i < 6; ++i)
    if (!seen[i] && !(preset && i >= 1 && i <= 3))
      throw std::invalid_argument("stress: repro text is missing a required section");
  if (preset && (seen[1] || seen[2] || seen[3]))
    throw std::invalid_argument(std::string("stress: preset '") + preset_name(s.preset) +
                                "' owns the topo_args, net and load sections");
  if (s.threads == 0 || s.threads > 16)
    throw std::invalid_argument("stress: threads must be in [1, 16]");
  if (s.horizon <= s.settle) throw std::invalid_argument("stress: horizon must exceed settle");
  if (s.hier_holdover_ceiling < 0)
    throw std::invalid_argument("stress: hier ceiling must be non-negative");
  if (s.hier && spec_host_count(s) < 3)
    throw std::invalid_argument(
        "stress: hier needs at least three hosts (two sources + a client)");
  if (s.wd_check_period < 0 || s.wd_backoff < 0)
    throw std::invalid_argument("stress: watchdog durations must be non-negative");
  if ((s.wd_check_period != 0 || s.wd_backoff != 0) && !s.gray)
    throw std::invalid_argument("stress: the watchdog section needs gray enabled=1");
  check_preset(s);
  return s;
}

void check_preset(const StressSpec& s) {
  if (s.preset == Preset::kNone) return;
  if (s.topo != TopoKind::kPaperTree || s.hier != (s.preset == Preset::kSource) ||
      s.gray != (s.preset == Preset::kGray))
    throw std::invalid_argument(std::string("stress: preset '") + preset_name(s.preset) +
                                "' runs the Fig. 5 tree, with hier set only by 'source' "
                                "and gray only by 'gray'");
}

StressSpec named_spec(const std::string& name, std::uint64_t seed) {
  using chaos::FaultKind;
  // The single-fault plans: the canonical fault of one class, alone at the
  // settle time, and how long each runs past it.
  const std::map<std::string, std::pair<FaultKind, fs_t>> single = {
      {"flap", {FaultKind::kLinkFlap, from_ms(2)}},
      {"storm", {FaultKind::kFlapStorm, from_ms(3)}},
      {"crash", {FaultKind::kNodeCrash, from_ms(2)}},
      {"ber", {FaultKind::kBerBurst, from_ms(3)}},
      {"rogue", {FaultKind::kRogueOscillator, from_ms(12)}},
  };
  // The campaign plans name devices through pointers: describe them on a
  // throwaway Fig. 5 tree.
  sim::Simulator sim(seed);
  net::Network net(sim);
  const net::PaperTreeTopology tree = net::build_paper_tree(net);

  StressSpec s;
  s.sim_seed = seed;
  chaos::FaultPlan plan;
  if (name == "gray") {
    s.preset = Preset::kGray;
    s.settle = chaos::GrayCampaign::settle_time();
    plan = chaos::GrayCampaign::plan(tree, s.settle);
    s.horizon = chaos::GrayCampaign::end_time(s.settle);
  } else if (name == "source") {
    s.preset = Preset::kSource;
    s.settle = chaos::SourceCampaign::settle_time();
    plan = chaos::SourceCampaign::plan(tree, s.settle);
    s.horizon = chaos::SourceCampaign::end_time(s.settle);
  } else if (name == "canonical" || single.count(name) > 0) {
    s.preset = Preset::kCanonical;
    s.settle = chaos::CanonicalCampaign::settle_time();
    plan = chaos::CanonicalCampaign::plan(tree, s.settle);
    s.horizon = chaos::CanonicalCampaign::end_time(s.settle);
    if (const auto it = single.find(name); it != single.end()) {
      std::erase_if(plan.faults, [&](const chaos::FaultSpec& f) {
        return f.kind != it->second.first;
      });
      plan.faults.at(0).at = s.settle;
      s.horizon = s.settle + it->second.second;
    }
  } else {
    throw std::invalid_argument("stress: unknown named campaign '" + name +
                                "' (want canonical|gray|source|flap|storm|crash|ber|rogue)");
  }
  for (const chaos::FaultSpec& f : plan.faults) s.faults.push_back(chaos::describe(f));
  s.hier = s.preset == Preset::kSource;
  s.gray = s.preset == Preset::kGray;
  s.bridged = true;
  return s;
}

namespace {

using LinkList = std::vector<std::pair<std::string, std::string>>;

/// The cable list each builder will create, by name — kept in lockstep with
/// net::build_* so the generator can aim faults at real links without
/// constructing a Network.
LinkList links_of(const StressSpec& s) {
  LinkList links;
  auto sw = [](std::size_t i) { return "sw" + std::to_string(i); };
  switch (s.topo) {
    case TopoKind::kChain: {
      std::string prev = "left";
      for (std::uint32_t i = 0; i < s.chain_switches; ++i) {
        links.emplace_back(prev, sw(i));
        prev = sw(i);
      }
      links.emplace_back(prev, "right");
      break;
    }
    case TopoKind::kPaperTree: {
      for (int i = 1; i <= 3; ++i) links.emplace_back("S0", "S" + std::to_string(i));
      const int agg_of[8] = {1, 1, 1, 2, 2, 3, 3, 3};
      for (int i = 0; i < 8; ++i)
        links.emplace_back("S" + std::to_string(agg_of[i]), "S" + std::to_string(i + 4));
      break;
    }
    case TopoKind::kRandomTree: {
      // Mirrors build_random_tree's use of Rng(shape_seed) exactly.
      Rng shape(s.shape_seed);
      for (std::size_t i = 1; i < s.tree_switches; ++i)
        links.emplace_back(sw(shape.uniform(i)), sw(i));
      for (std::size_t i = 0; i < s.tree_hosts; ++i)
        links.emplace_back(sw(shape.uniform(s.tree_switches)), "h" + std::to_string(i));
      break;
    }
    case TopoKind::kFatTree: {
      const int k = static_cast<int>(s.fat_k), half = k / 2;
      auto pod = [](int p, const char* role, int i) {
        return "pod" + std::to_string(p) + "-" + role + std::to_string(i);
      };
      for (int p = 0; p < k; ++p) {
        for (int a = 0; a < half; ++a)
          for (int c = 0; c < half; ++c)
            links.emplace_back(pod(p, "agg", a), "core" + std::to_string(a * half + c));
        for (int e = 0; e < half; ++e) {
          for (int a = 0; a < half; ++a) links.emplace_back(pod(p, "edge", e), pod(p, "agg", a));
          for (int h = 0; h < static_cast<int>(s.fat_hosts_per_edge); ++h)
            links.emplace_back(pod(p, "edge", e),
                               pod(p, "e", e) + "-h" + std::to_string(h));
        }
      }
      break;
    }
  }
  return links;
}

std::vector<std::string> device_names_of(const StressSpec& s) {
  std::vector<std::string> names;
  LinkList links = links_of(s);
  for (const auto& [a, b] : links) {
    names.push_back(a);
    names.push_back(b);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

}  // namespace

fs_t recovery_margin(chaos::FaultKind kind) {
  switch (kind) {
    case chaos::FaultKind::kNodeCrash:
    case chaos::FaultKind::kPortFail:
      return from_us(1500);  // INIT restart + join propagation
    case chaos::FaultKind::kAsymmetricDelay:
    case chaos::FaultKind::kLimpingPort:
    case chaos::FaultKind::kSilentCorruption:
    case chaos::FaultKind::kFrozenCounter:
      // The watchdog ladder runs past the heal: a pending exponential
      // backoff (a few doublings of the 200us base), the re-INIT exchange,
      // and a full clean probation before the port counts as recovered.
      return from_ms(3);
    default:
      return from_ms(1);
  }
}

fs_t fault_end(const chaos::FaultDescriptor& f) {
  if (f.kind == chaos::FaultKind::kFlapStorm && f.count > 1)
    return f.at + static_cast<fs_t>(f.count - 1) * f.period + f.duration;
  if (f.kind == chaos::FaultKind::kStratumFlap)
    return f.at + static_cast<fs_t>(f.count) * f.period;  // restore toggle
  return f.at + f.duration;
}

StressSpec generate(std::uint64_t seed, std::uint32_t index, const StressLimits& limits) {
  Rng r = Rng(seed).fork(0x57E55ULL * 0x1000000 + index);

  StressSpec s;
  s.sim_seed = r();

  switch (r.uniform(4)) {
    case 0:
      s.topo = TopoKind::kChain;
      s.chain_switches = 1 + static_cast<std::uint32_t>(r.uniform(4));
      break;
    case 1:
      s.topo = TopoKind::kPaperTree;
      break;
    case 2:
      s.topo = TopoKind::kRandomTree;
      s.tree_switches =
          3 + static_cast<std::uint32_t>(r.uniform(limits.max_tree_switches - 2));
      s.tree_hosts = 2 + static_cast<std::uint32_t>(r.uniform(4));
      s.shape_seed = r();
      break;
    default:
      s.topo = TopoKind::kFatTree;
      s.fat_k = 4;
      s.fat_hosts_per_edge = 1 + static_cast<std::uint32_t>(r.uniform(2));
      break;
  }

  const std::uint32_t beacons[3] = {200, 400, 800};
  s.beacon_interval_ticks = beacons[r.uniform(3)];
  s.ppm_spread = r.uniform_real(10.0, 100.0);
  s.enable_drift = r.bernoulli(0.5);
  s.propagation_delay = from_ns(static_cast<std::int64_t>(200 + r.uniform(1801)));

  s.n_flows = static_cast<std::uint32_t>(r.uniform(limits.max_flows + 1));
  const std::uint32_t sizes[3] = {64, 512, 1522};
  s.frame_bytes = sizes[r.uniform(3)];
  s.saturate = r.bernoulli(0.25);
  s.rate_gbps = r.uniform_real(0.5, 3.0);

  const std::uint32_t thread_choices[4] = {1, 1, 2, 4};
  s.threads = limits.allow_parallel ? thread_choices[r.uniform(4)] : 1;
  if (s.threads > 1 && s.propagation_delay < from_us(1)) s.propagation_delay = from_us(1);

  s.settle = from_ms(3);

  const LinkList links = links_of(s);
  const std::vector<std::string> names = device_names_of(s);
  const std::uint32_t n_faults = static_cast<std::uint32_t>(r.uniform(limits.max_faults + 1));
  fs_t last_recovery = s.settle;
  for (std::uint32_t i = 0; i < n_faults; ++i) {
    chaos::FaultDescriptor f;
    const fs_t at = s.settle + from_us(200) + from_ns(static_cast<std::int64_t>(r.uniform(600'000)));
    switch (r.uniform(6)) {
      case 0: {
        const auto& [a, b] = links[r.uniform(links.size())];
        f.kind = chaos::FaultKind::kLinkFlap;
        f.a = a;
        f.b = b;
        f.at = at;
        f.duration = from_us(static_cast<std::int64_t>(20 + r.uniform(180)));
        break;
      }
      case 1: {
        const auto& [a, b] = links[r.uniform(links.size())];
        f.kind = chaos::FaultKind::kFlapStorm;
        f.a = a;
        f.b = b;
        f.at = at;
        f.count = 2 + static_cast<int>(r.uniform(3));
        f.duration = from_us(static_cast<std::int64_t>(10 + r.uniform(40)));
        f.period = f.duration + from_us(static_cast<std::int64_t>(30 + r.uniform(70)));
        break;
      }
      case 2: {
        const auto& [a, b] = links[r.uniform(links.size())];
        f.kind = chaos::FaultKind::kPortFail;
        f.a = a;
        f.b = b;
        f.at = at;
        f.duration = from_us(static_cast<std::int64_t>(200 + r.uniform(200)));
        break;
      }
      case 3: {
        const auto& [a, b] = links[r.uniform(links.size())];
        f.kind = chaos::FaultKind::kBerBurst;
        f.a = a;
        f.b = b;
        f.at = at;
        f.duration = from_us(static_cast<std::int64_t>(50 + r.uniform(100)));
        f.magnitude = r.uniform_real(1e-6, 3e-5);
        break;
      }
      case 4: {
        const auto& [a, b] = links[r.uniform(links.size())];
        f.kind = chaos::FaultKind::kBeaconLoss;
        f.a = a;
        f.b = b;
        f.at = at;
        f.duration = from_us(static_cast<std::int64_t>(50 + r.uniform(150)));
        f.magnitude = r.uniform_real(0.1, 0.5);
        break;
      }
      default: {
        f.kind = chaos::FaultKind::kNodeCrash;
        f.a = names[r.uniform(names.size())];
        f.at = at;
        f.duration = from_us(static_cast<std::int64_t>(100 + r.uniform(200)));
        break;
      }
    }
    last_recovery = std::max(last_recovery, fault_end(f) + recovery_margin(f.kind));
    s.faults.push_back(std::move(f));
  }

  // Drawn after everything above so existing (seed, index) pairs keep every
  // earlier field bit-identical to what they sampled before the bridged
  // engine existed. The hierarchy slice below follows the same rule: each
  // newer feature appends its draws strictly after the older ones.
  s.bridged = limits.allow_bridged && r.bernoulli(0.25);

  // Multi-source hierarchy slice: two competing sources plus clients, and
  // (half the time) one source-level fault aimed at the stratum-1 server.
  if (limits.allow_hier && spec_host_count(s) >= 3 && r.bernoulli(0.25)) {
    s.hier = true;
    if (s.faults.size() < limits.max_faults && r.bernoulli(0.5)) {
      chaos::FaultDescriptor f;
      f.a = hier_server_hosts(s).first;
      f.at = s.settle + from_us(300) +
             from_ns(static_cast<std::int64_t>(r.uniform(400'000)));
      if (r.bernoulli(0.5)) {
        f.kind = chaos::FaultKind::kGpsLoss;
        f.duration = from_us(static_cast<std::int64_t>(200 + r.uniform(300)));
      } else {
        f.kind = chaos::FaultKind::kStratumFlap;
        f.count = 2 + static_cast<int>(r.uniform(3));
        f.period = from_us(static_cast<std::int64_t>(80 + r.uniform(120)));
        f.magnitude = 5;  // alternate (worse) advertised stratum
      }
      last_recovery = std::max(last_recovery, fault_end(f) + recovery_margin(f.kind));
      s.faults.push_back(std::move(f));
    }
  }

  // Gray-failure slice: drawn strictly after the hierarchy slice so existing
  // (seed, index) pairs keep every earlier field bit-identical. Turning it on
  // arms the per-port watchdog; half the time one gray fault rides along on a
  // random link. Magnitudes track the canonical gray campaign's: big enough
  // that the staleness clears the default plausibility gate, small enough
  // that the range filter still bounds every lie.
  if (limits.allow_gray && r.bernoulli(0.25)) {
    s.gray = true;
    if (s.faults.size() < limits.max_faults && r.bernoulli(0.5)) {
      chaos::FaultDescriptor f;
      const auto& [a, b] = links[r.uniform(links.size())];
      f.a = a;
      f.b = b;
      f.at = s.settle + from_us(200) +
             from_ns(static_cast<std::int64_t>(r.uniform(600'000)));
      f.duration = from_us(static_cast<std::int64_t>(200 + r.uniform(601)));
      switch (r.uniform(4)) {
        case 0:
          f.kind = chaos::FaultKind::kAsymmetricDelay;
          f.period = from_ns(static_cast<std::int64_t>(45 + r.uniform(76)));
          break;
        case 1:
          f.kind = chaos::FaultKind::kLimpingPort;
          f.magnitude = r.uniform_real(0.2, 0.5);
          f.period = from_ns(static_cast<std::int64_t>(60 + r.uniform(91)));
          break;
        case 2:
          f.kind = chaos::FaultKind::kSilentCorruption;
          f.magnitude = r.uniform_real(0.5, 0.9);
          break;
        default:
          f.kind = chaos::FaultKind::kFrozenCounter;
          break;
      }
      last_recovery = std::max(last_recovery, fault_end(f) + recovery_margin(f.kind));
      s.faults.push_back(std::move(f));
    }
  }

  // Horizon: convergence demonstrated before faults, recovery demonstrated
  // after the last one (the offset monitor needs its settle streak back).
  const fs_t sample = s.sample_period > 0 ? s.sample_period : from_us(5);
  s.horizon = std::max(s.settle + from_us(500), last_recovery) + 24 * sample + from_us(100);
  return s;
}

}  // namespace dtpsim::stress
