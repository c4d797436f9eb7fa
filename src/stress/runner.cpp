#include "stress/runner.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "chaos/campaign.hpp"
#include "chaos/serialize.hpp"
#include "net/frame.hpp"

namespace dtpsim::stress {

namespace {

/// Build the spec's topology into `net` and return the hosts that can
/// source/sink traffic (switch-only shapes return empty). The Fig. 5 tree
/// is also kept whole in `tree`.
std::vector<net::Host*> build_topology(net::Network& net, const StressSpec& s,
                                       net::PaperTreeTopology& tree) {
  switch (s.topo) {
    case TopoKind::kChain: {
      auto topo = net::build_chain(net, s.chain_switches);
      return {topo.left, topo.right};
    }
    case TopoKind::kPaperTree:
      tree = net::build_paper_tree(net);
      return tree.leaves;
    case TopoKind::kRandomTree:
      return net::build_random_tree(net, s.shape_seed, s.tree_switches, s.tree_hosts).hosts;
    case TopoKind::kFatTree:
      return net::build_fat_tree(net, static_cast<int>(s.fat_k),
                                 static_cast<int>(s.fat_hosts_per_edge))
          .hosts;
  }
  throw std::invalid_argument("stress: unknown topology kind");
}

void start_traffic(net::Network& net, const std::vector<net::Host*>& hosts,
                   const StressSpec& s) {
  if (s.n_flows == 0 || hosts.size() < 2) return;
  net::TrafficParams tp;
  tp.saturate = s.saturate;
  tp.rate_bps = s.rate_gbps * 1e9;
  tp.frame_bytes = s.frame_bytes;
  const std::size_t h = hosts.size();
  const std::size_t stride = std::max<std::size_t>(1, h / 2);
  for (std::uint32_t i = 0; i < s.n_flows; ++i) {
    const std::size_t src = i % h;
    std::size_t dst = (src + stride + i / h) % h;
    if (dst == src) dst = (dst + 1) % h;
    net.add_traffic(*hosts[src], hosts[dst]->addr(), tp).start();
  }
}

}  // namespace

std::vector<std::pair<fs_t, fs_t>> blackout_windows(const StressSpec& spec) {
  std::vector<std::pair<fs_t, fs_t>> windows;
  if (spec.preset == Preset::kGray || spec.preset == Preset::kSource) {
    const auto campaign = spec.preset == Preset::kGray
                              ? chaos::GrayCampaign::blackouts(spec.settle)
                              : std::vector{chaos::SourceCampaign::island_blackout(spec.settle)};
    for (const auto& w : campaign)
      if (std::any_of(spec.faults.begin(), spec.faults.end(),
                      [&w](const auto& f) { return f.at >= w.first && f.at < w.second; }))
        windows.push_back(w);
    return windows;
  }
  const fs_t sample =
      spec.sample_period > 0 ? spec.sample_period : check::SentinelParams{}.sample_period;
  for (const auto& f : spec.faults)
    windows.emplace_back(f.at - 2 * sample, fault_end(f) + recovery_margin(f.kind));
  return windows;
}

Campaign::Campaign(const StressSpec& spec, const obs::SessionConfig* obs)
    : spec_(spec), sim_(spec.sim_seed) {
  check_preset(spec);
  if (spec.bridged) sim_.set_engine(sim::Simulator::EngineMode::kBridged);
  net::NetworkParams np;
  chaos::ChaosParams cp;
  switch (spec.preset) {
    case Preset::kNone:
      np.ppm_spread = spec.ppm_spread;
      np.enable_drift = spec.enable_drift;
      if (spec.enable_drift) {
        np.drift.step_ppm = 0.01;
        np.drift.update_interval = from_ms(10);
      }
      np.cable.propagation_delay = spec.propagation_delay;
      // INIT's delay measurement must not queue behind an in-flight data
      // frame right after a replug (see MacParams::data_holdoff).
      np.mac.data_holdoff = from_us(20);
      cp.dtp.beacon_interval_ticks = spec.beacon_interval_ticks;
      break;
    case Preset::kCanonical:
      np = chaos::CanonicalCampaign::net_params();
      cp = chaos::CanonicalCampaign::chaos_params();
      break;
    case Preset::kGray:
      np = chaos::GrayCampaign::net_params();
      cp = chaos::GrayCampaign::chaos_params();
      break;
    case Preset::kSource:
      np = chaos::SourceCampaign::net_params();
      cp = chaos::SourceCampaign::chaos_params();
      break;
  }
  net_ = std::make_unique<net::Network>(sim_, np);
  const std::vector<net::Host*> hosts = build_topology(*net_, spec, tree_);
  dtp_ = dtp::enable_dtp(*net_, cp.dtp);

  if (spec.preset == Preset::kNone)
    start_traffic(*net_, hosts, spec);
  else if (spec.preset != Preset::kSource)
    chaos::CanonicalCampaign::start_heavy_load(*net_, tree_, net::kMtuFrameBytes);

  // Multi-source hierarchy, built before the engine/sentinel that point into
  // it. Generic specs put a stratum-1 GPS source on the first host, a
  // stratum-2 island source on the last, clients everywhere in between
  // (mirrored by hier_server_hosts for the generator's fault targeting).
  if (spec.preset == Preset::kSource) {
    chaos::SourceCampaign::build_hierarchy(hierarchy_, *net_, dtp_, tree_);
    if (spec.hier_holdover_ceiling > 0)
      for (const auto& c : hierarchy_.clients())
        c->set_holdover_ceiling(spec.hier_holdover_ceiling);
    hierarchy_.start();
  } else if (spec.hier) {
    if (hosts.size() < 3)
      throw std::invalid_argument(
          "stress: hier needs at least three hosts (two sources + a client)");
    const fs_t source_period = from_us(100);
    hierarchy_.add_server(sim_, *hosts.front(), *dtp_.agent_of(hosts.front()),
                          dtp::TimeSourceParams::gps(1, source_period));
    hierarchy_.add_server(
        sim_, *hosts.back(), *dtp_.agent_of(hosts.back()),
        dtp::TimeSourceParams::upstream_island(2, 2, 150.0, source_period));
    dtp::HierarchyParams hp;
    if (spec.hier_holdover_ceiling > 0) hp.holdover_ceiling = spec.hier_holdover_ceiling;
    for (std::size_t i = 1; i + 1 < hosts.size(); ++i)
      hierarchy_.add_client(*hosts[i], *dtp_.agent_of(hosts[i]), hp);
    hierarchy_.start();
  }

  // Observability attaches before the chaos plan is scheduled so the
  // chaos.faults_injected counter sees every fault.
  if (obs != nullptr && (!obs->trace_path.empty() || !obs->metrics_path.empty()))
    session_ = std::make_unique<obs::Session>(*net_, &dtp_, *obs);
  obs::Hub* hub = session_ ? &session_->hub() : nullptr;

  engine_ = std::make_unique<chaos::ChaosEngine>(*net_, dtp_, cp);
  engine_->set_obs(hub);
  if (spec.hier) engine_->set_hierarchy(&hierarchy_);
  chaos::FaultPlan plan;
  for (const auto& f : spec.faults) plan.add(chaos::realize(f, *net_));
  if (!plan.faults.empty()) engine_->schedule(plan);

  // Gray-failure watchdog (DESIGN.md §15): seeded from the sim seed so the
  // backoff-jitter stream replays bit-identically from the repro file.
  if (spec.gray) {
    dtp::WatchdogParams wp = spec.preset == Preset::kGray
                                 ? chaos::GrayCampaign::watchdog_params()
                                 : dtp::WatchdogParams{};
    if (spec.wd_check_period > 0) wp.check_period = spec.wd_check_period;
    if (spec.wd_backoff > 0) wp.reinit_backoff = spec.wd_backoff;
    watchdog_ = std::make_unique<dtp::HealthWatchdog>(*net_, dtp_, wp, spec.sim_seed);
    watchdog_->set_obs(hub);
  }

  check::SentinelParams sp;
  if (spec.sample_period > 0) sp.sample_period = spec.sample_period;
  if (spec.offset_bound_ticks > 0) sp.offset_bound_ticks = spec.offset_bound_ticks;
  sentinel_ = std::make_unique<check::Sentinel>(*net_, dtp_, sp);
  sentinel_->set_obs(hub);
  if (spec.hier) sentinel_->set_hierarchy(&hierarchy_);
  if (watchdog_) sentinel_->set_watchdog(watchdog_.get());
  for (const auto& [from, until] : blackout_windows(spec)) sentinel_->add_blackout(from, until);
}

CampaignResult Campaign::run() {
  if (session_) session_->start(spec_.horizon);
  if (spec_.threads > 1) sim_.set_threads(spec_.threads);

  sim_.run_until(spec_.horizon);

  if (session_) {
    std::string err;
    if (!session_->finish(&err))
      throw std::runtime_error("stress: observability write failed: " + err);
  }

  CampaignResult r;
  r.spec = spec_;
  r.violations = sentinel_->violations();
  r.digest = sentinel_->digest();
  r.sentinel_stats = sentinel_->stats();
  r.offset_bound_ticks = sentinel_->offset_bound_ticks();
  r.diameter_hops = sentinel_->diameter_hops();
  r.events_executed = sim_.stats().executed;
  r.shards = sim_.shard_count();
  return r;
}

CampaignResult run_campaign(const StressSpec& spec, const obs::SessionConfig* obs) {
  return Campaign(spec, obs).run();
}

CampaignResult run_differential(const StressSpec& spec) {
  // The baseline is always the serial cycle-exact engine: both the parallel
  // conservative engine and the tick-bridging engine promise bit-identical
  // RunDigests against it, separately and combined.
  if (spec.threads <= 1 && !spec.bridged) return run_campaign(spec);
  StressSpec base_spec = spec;
  base_spec.threads = 1;
  base_spec.bridged = false;
  const CampaignResult base = run_campaign(base_spec);
  CampaignResult var = run_campaign(spec);
  if (!(base.digest == var.digest)) {
    const std::string mode = std::to_string(spec.threads) + "-thread " +
                             (spec.bridged ? "bridged" : "exact");
    check::Violation v;
    v.kind = check::InvariantKind::kDigestMismatch;
    v.at = spec.horizon;
    v.device = "network";
    v.observed = static_cast<double>(var.shards);
    v.bound = 1.0;
    v.detail = "serial-exact digest " + base.digest.hex() + " != " + mode +
               " digest " + var.digest.hex();
    var.violations.push_back(std::move(v));
  }
  return var;
}

BatchOutcome run_batch(std::uint64_t seed, std::uint32_t count,
                       const StressLimits& limits, bool differential) {
  BatchOutcome out;
  for (std::uint32_t i = 0; i < count; ++i) {
    const StressSpec spec = generate(seed, i, limits);
    CampaignResult r = differential && (spec.threads > 1 || spec.bridged)
                           ? run_differential(spec)
                           : run_campaign(spec);
    ++out.campaigns;
    out.events_executed += r.events_executed;
    if (!r.clean()) out.failures.push_back(std::move(r));
  }
  return out;
}

void write_repro(const StressSpec& spec, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("stress: cannot open '" + path + "' for writing");
  out << to_text(spec);
  if (!out.flush()) throw std::runtime_error("stress: short write to '" + path + "'");
}

StressSpec load_repro(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("stress: cannot read repro file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return spec_from_text(buf.str());
}

CampaignResult replay(const std::string& path) { return run_campaign(load_repro(path)); }

}  // namespace dtpsim::stress
