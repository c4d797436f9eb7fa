#include "chaos/serialize.hpp"

#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "common/time_units.hpp"
#include "net/device.hpp"
#include "net/topology.hpp"

namespace dtpsim::chaos {

namespace {

/// Error prefix for the shared number parsers (common/time_units.hpp).
constexpr const char* kWho = "chaos::serialize";

FaultKind kind_from_name(const std::string& name) {
  static const FaultKind all[] = {
      FaultKind::kLinkFlap,  FaultKind::kFlapStorm,       FaultKind::kPortFail,
      FaultKind::kBerBurst,  FaultKind::kBeaconLoss,      FaultKind::kNodeCrash,
      FaultKind::kRogueOscillator, FaultKind::kPcieStorm,
      FaultKind::kGpsLoss,   FaultKind::kRogueGrandmaster,
      FaultKind::kIslandPartition, FaultKind::kStratumFlap,
      FaultKind::kAsymmetricDelay, FaultKind::kLimpingPort,
      FaultKind::kSilentCorruption, FaultKind::kFrozenCounter,
  };
  for (FaultKind k : all)
    if (name == fault_class_name(k)) return k;
  throw std::invalid_argument("chaos::serialize: unknown fault kind '" + name + "'");
}

bool is_link_fault(FaultKind k) {
  switch (k) {
    case FaultKind::kLinkFlap:
    case FaultKind::kFlapStorm:
    case FaultKind::kPortFail:
    case FaultKind::kBerBurst:
    case FaultKind::kBeaconLoss:
    case FaultKind::kIslandPartition:
    case FaultKind::kAsymmetricDelay:
    case FaultKind::kLimpingPort:
    case FaultKind::kSilentCorruption:
    case FaultKind::kFrozenCounter:
      return true;
    default:
      return false;
  }
}

}  // namespace

FaultDescriptor describe(const FaultSpec& spec) {
  if (spec.kind == FaultKind::kPcieStorm)
    throw std::invalid_argument(
        "chaos::serialize: pcie_storm targets a daemon, not a named device; "
        "it cannot be serialized");
  FaultDescriptor d;
  d.kind = spec.kind;
  if (is_link_fault(spec.kind)) {
    if (spec.link_a == nullptr || spec.link_b == nullptr)
      throw std::invalid_argument("chaos::serialize: link fault without endpoints");
    d.a = spec.link_a->name();
    d.b = spec.link_b->name();
  } else {
    if (spec.device == nullptr)
      throw std::invalid_argument("chaos::serialize: node fault without a device");
    d.a = spec.device->name();
  }
  d.at = spec.at;
  d.duration = spec.duration;
  d.count = spec.count;
  d.period = spec.period;
  d.magnitude = spec.magnitude;
  d.probe_threshold_ticks = spec.probe_threshold_ticks;
  d.probe_sample_period = spec.probe_sample_period;
  d.probe_timeout = spec.probe_timeout;
  d.label = spec.label;
  return d;
}

FaultSpec realize(const FaultDescriptor& d, net::Network& net) {
  FaultSpec spec;
  spec.kind = d.kind;
  auto resolve = [&net](const std::string& name) {
    net::Device* dev = net.find_device(name);
    if (dev == nullptr)
      throw std::invalid_argument("chaos::serialize: no device named '" + name +
                                  "' in this topology");
    return dev;
  };
  if (is_link_fault(d.kind)) {
    spec.link_a = resolve(d.a);
    spec.link_b = resolve(d.b);
  } else {
    spec.device = resolve(d.a);
  }
  spec.at = d.at;
  spec.duration = d.duration;
  spec.count = d.count;
  spec.period = d.period;
  spec.magnitude = d.magnitude;
  spec.probe_threshold_ticks = d.probe_threshold_ticks;
  spec.probe_sample_period = d.probe_sample_period;
  spec.probe_timeout = d.probe_timeout;
  spec.label = d.label;
  return spec;
}

std::string fault_to_line(const FaultDescriptor& d) {
  std::ostringstream out;
  out << "fault kind=" << fault_class_name(d.kind) << " a=" << d.a;
  if (is_link_fault(d.kind)) out << " b=" << d.b;
  out << " at=" << d.at << " dur=" << d.duration << " count=" << d.count
      << " period=" << d.period << " mag=" << fmt_f64(d.magnitude);
  if (d.probe_threshold_ticks != 0)
    out << " probe_threshold=" << fmt_f64(d.probe_threshold_ticks);
  if (d.probe_sample_period != 0) out << " probe_period=" << d.probe_sample_period;
  if (d.probe_timeout != 0) out << " probe_timeout=" << d.probe_timeout;
  if (!d.label.empty()) out << " label=" << d.label;
  return out.str();
}

FaultDescriptor fault_from_line(const std::string& line) {
  std::istringstream in(line);
  std::string word;
  if (!(in >> word) || word != "fault")
    throw std::invalid_argument("chaos::serialize: fault line must start with 'fault'");

  std::unordered_map<std::string, std::string> kv;
  std::string label;
  bool have_label = false;
  while (in >> word) {
    const auto eq = word.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("chaos::serialize: expected key=value, got '" + word + "'");
    const std::string key = word.substr(0, eq);
    std::string value = word.substr(eq + 1);
    if (key == "label") {
      // label runs to end of line (may contain spaces).
      std::string rest;
      std::getline(in, rest);
      label = value + rest;
      have_label = true;
      break;
    }
    if (!kv.emplace(key, value).second)
      throw std::invalid_argument("chaos::serialize: duplicate key '" + key + "'");
  }

  auto take = [&kv](const std::string& key) {
    auto it = kv.find(key);
    if (it == kv.end())
      throw std::invalid_argument("chaos::serialize: missing key '" + key + "'");
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  auto take_opt = [&kv](const std::string& key, const std::string& fallback) {
    auto it = kv.find(key);
    if (it == kv.end()) return fallback;
    std::string v = it->second;
    kv.erase(it);
    return v;
  };

  FaultDescriptor d;
  d.kind = kind_from_name(take("kind"));
  d.a = take("a");
  if (is_link_fault(d.kind)) d.b = take("b");
  d.at = parse_i64(kWho, "at", take("at"));
  d.duration = parse_i64(kWho, "dur", take("dur"));
  d.count = static_cast<int>(parse_i64(kWho, "count", take("count")));
  d.period = parse_i64(kWho, "period", take("period"));
  d.magnitude = parse_f64(kWho, "mag", take("mag"));
  d.probe_threshold_ticks =
      parse_f64(kWho, "probe_threshold", take_opt("probe_threshold", "0"));
  d.probe_sample_period = parse_i64(kWho, "probe_period", take_opt("probe_period", "0"));
  d.probe_timeout = parse_i64(kWho, "probe_timeout", take_opt("probe_timeout", "0"));
  if (have_label) d.label = label;

  if (!kv.empty())
    throw std::invalid_argument("chaos::serialize: unknown key '" + kv.begin()->first + "'");
  return d;
}

std::string plan_to_text(const FaultPlan& plan) {
  std::string out = "dtp-chaos-plan v1\n";
  for (const FaultSpec& spec : plan.faults) out += fault_to_line(describe(spec)) + "\n";
  out += "end\n";
  return out;
}

FaultPlan plan_from_text(const std::string& text, net::Network& net) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "dtp-chaos-plan v1")
    throw std::invalid_argument("chaos::serialize: missing 'dtp-chaos-plan v1' header");
  FaultPlan plan;
  bool terminated = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line == "end") {
      terminated = true;
      break;
    }
    plan.add(realize(fault_from_line(line), net));
  }
  if (!terminated)
    throw std::invalid_argument("chaos::serialize: plan text missing 'end' footer");
  return plan;
}

}  // namespace dtpsim::chaos
