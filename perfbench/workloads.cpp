#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include <time.h>

#include "apps/harness.hpp"
#include "chaos/campaign.hpp"
#include "chaos/engine.hpp"
#include "chaos/serialize.hpp"
#include "dtp/daemon.hpp"
#include "dtp/hierarchy.hpp"
#include "dtp/network.hpp"
#include "dtp/watchdog.hpp"
#include "net/frame.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "stress/spec.hpp"

namespace perfbench {

using namespace dtpsim;

namespace {

using Clock = std::chrono::steady_clock;

/// Keeps timed reads from being optimized away.
volatile double g_sink = 0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-up stopwatch: each lap is charged to one `setup.*` metric and to the
/// rep's total set-up time.
class SetupTimer {
 public:
  explicit SetupTimer(Rep& rep) : rep_(rep), t0_(Clock::now()) {}
  void lap(const char* part) {
    const Clock::time_point t = Clock::now();
    const double s = std::chrono::duration<double>(t - t0_).count();
    rep_.setup_s += s;
    rep_.layers.add(std::string("setup.") + part + "_s", s);
    t0_ = t;
  }

 private:
  Rep& rep_;
  Clock::time_point t0_;
};

void verdict(Rep& rep, bool ok, const std::string& what) {
  ++rep.attempted;
  if (!ok) {
    ++rep.failed;
    rep.failures.push_back(what);
  }
}

void wrap_hooks(net::Network& net) {
  for (net::Host* h : net.hosts()) {
    for (std::size_t i = 0; i < h->port_count(); ++i)
      wrap_hook(kHostRx, h->mac(i).on_receive);
  }
  for (net::Switch* s : net.switches()) {
    for (std::size_t i = 0; i < s->port_count(); ++i)
      wrap_hook(kSwitchRx, s->mac(i).on_receive);
  }
  for (net::Device* d : net.devices()) {
    for (std::size_t i = 0; i < d->port_count(); ++i) {
      phy::PhyPort& p = d->port(i);
      wrap_hook(kDtpRx, p.on_control);
      wrap_hook(kProbeTx, p.probe_control_tx);
      wrap_hook(kProbeRx, p.probe_control_rx);
      wrap_hook(kMacRx, p.on_frame);
    }
  }
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void run_to(Rep& rep, sim::Simulator& sim, fs_t until) {
  const double c0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  sim.run_until(until);
  rep.run_s += seconds_since(t0);
  rep.run_cpu_s += process_cpu_s() - c0;
}

/// Run to `until`, sampling the worst pairwise offset every `every` from
/// `from` on. Sampling between run_until slices adds no simulator events.
void run_sampled(Rep& rep, sim::Simulator& sim, const dtp::DtpNetwork& dtp,
                 fs_t from, fs_t until, fs_t every) {
  if (sim.now() < from) run_to(rep, sim, from);
  while (true) {
    const Clock::time_point t0 = Clock::now();
    const double worst = dtp.max_pairwise_offset_ticks(sim.now());
    rep.layers.add("dtp.offset_probe_ns_total",
                   std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
    rep.layers.add("dtp.offset_probes", 1);
    rep.worst_offset_ticks = std::max(rep.worst_offset_ticks, worst);
    if (sim.now() >= until) break;
    run_to(rep, sim, std::min(until, sim.now() + every));
  }
}

std::uint64_t sentinel_checks(const check::SentinelStats& s) {
  return s.samples + s.monotonic_checks + s.offset_checks + s.overhead_checks +
         s.wrap_checks + s.rate_checks + s.tx_probe_checks + s.fifo_probe_checks +
         s.utc_checks + s.watchdog_checks + s.timebase_checks;
}

/// Fold one finished scenario's public counters, sentinel tally and digest
/// into the rep.
void collect(Rep& rep, const sim::Simulator& sim, net::Network& net,
             const dtp::DtpNetwork& dtp, const check::Sentinel& sentinel) {
  Layers& L = rep.layers;
  const sim::SimStats st = sim.stats();
  rep.events += st.executed;
  L.add("sim.events", static_cast<double>(st.executed));
  for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c)
    L.add(std::string("sim.events.") + sim::category_name(static_cast<sim::EventCategory>(c)),
          static_cast<double>(st.executed_by_category[c]));
  L.add("sim.scheduled", static_cast<double>(st.scheduled));
  L.add("sim.cancelled", static_cast<double>(st.cancelled));
  L.add("sim.callback_spills", static_cast<double>(st.callback_spills));
  L.hi("sim.peak_pending", static_cast<double>(st.peak_pending));

  const sim::ParallelStats ps = sim.parallel_stats();
  rep.workers = std::max(rep.workers, static_cast<int>(ps.shards));
  L.hi("sim.par.shards", ps.shards);
  L.add("sim.par.epochs", static_cast<double>(ps.epochs));
  L.add("sim.par.cross_messages", static_cast<double>(ps.cross_messages));
  L.hi("sim.par.lookahead_ns", to_ns_f(ps.lookahead));
  L.hi("sim.par.cp_speedup", ps.critical_path_speedup());

  for (net::Device* d : net.devices()) {
    for (std::size_t i = 0; i < d->port_count(); ++i) {
      const phy::PhyPort& p = d->port(i);
      L.add("phy.control_blocks", static_cast<double>(p.control_blocks_sent()));
      L.add("phy.frames", static_cast<double>(p.frames_sent()));
      L.add("phy.fifo_crossings", static_cast<double>(p.fifo_crossings()));
      L.add("phy.fifo_extra_cycles", static_cast<double>(p.fifo_extra_cycles()));
      const net::MacStats& m = d->mac(i).stats();
      L.add("net.tx_frames", static_cast<double>(m.tx_frames));
      L.add("net.rx_frames", static_cast<double>(m.rx_frames));
      L.add("net.tx_drops", static_cast<double>(m.tx_drops));
      L.hi("net.max_queue_bytes", static_cast<double>(m.max_queue_bytes));
    }
  }
  for (net::Host* h : net.hosts()) {
    for (std::size_t i = 0; i < h->port_count(); ++i) {
      L.add("net.host_tx_frames", static_cast<double>(h->mac(i).stats().tx_frames));
      L.add("net.host_rx_frames", static_cast<double>(h->mac(i).stats().rx_frames));
    }
  }
  for (net::Switch* s : net.switches()) {
    L.add("net.switch_forwarded", static_cast<double>(s->stats().forwarded));
    L.add("net.switch_flooded", static_cast<double>(s->stats().flooded));
  }

  for (std::size_t a = 0; a < dtp.size(); ++a) {
    const dtp::Agent& agent = dtp.agent(a);
    for (std::size_t i = 0; i < agent.port_count(); ++i) {
      const dtp::PortStats& s = agent.port_logic(i).stats();
      L.add("dtp.beacons_sent", static_cast<double>(s.beacons_sent));
      L.add("dtp.beacons_received", static_cast<double>(s.beacons_received));
      L.add("dtp.beacons_filtered", static_cast<double>(s.filtered_range));
      L.add("dtp.adjustments", static_cast<double>(s.adjustments));
      L.add("dtp.inits", static_cast<double>(s.inits_sent));
      L.add("dtp.joins", static_cast<double>(s.joins_sent));
    }
  }

  const check::SentinelStats ss = sentinel.stats();
  L.add("check.samples", static_cast<double>(ss.samples));
  L.add("check.checks", static_cast<double>(sentinel_checks(ss)));
  L.add("check.violations", static_cast<double>(sentinel.violation_count()));
  L.add("chaos.utc_checks", static_cast<double>(ss.utc_checks));
  rep.attempted += sentinel_checks(ss);
  rep.failed += sentinel.violation_count();
  for (const check::Violation& v : sentinel.violations()) rep.failures.push_back(v.to_string());
  rep.digest.mix(sentinel.digest().hash);
}

// --- Serial Fig. 5 trees ----------------------------------------------------

/// The paper's Fig. 5 tree with default DTP, idle or under saturating MTU
/// traffic between all hosts (the `dtpsim --load=heavy` pattern). Load
/// starts once the tree has settled, so INIT measures delays on quiet links.
Rep paper_tree(std::uint64_t seed, const RunOptions& opt, bool loaded) {
  Rep rep;
  SetupTimer timer(rep);
  sim::Simulator sim(seed);
  if (opt.bridged) sim.set_engine(sim::Simulator::EngineMode::kBridged);
  net::NetworkParams np;
  net::Network net(sim, np);
  const net::PaperTreeTopology tree = net::build_paper_tree(net);
  timer.lap("net");
  dtp::DtpParams dp;
  dp.counter_delta = phy::rate_spec(np.rate).counter_delta;
  dtp::DtpNetwork dtp = dtp::enable_dtp(net, dp);
  timer.lap("dtp");
  check::Sentinel sentinel(net, dtp);
  timer.lap("check");
  if (opt.traced) wrap_hooks(net);  // set-up ends here

  const fs_t settle = from_ms(2);
  const fs_t until = loaded ? from_ms(8) : from_ms(16);
  run_to(rep, sim, settle);
  if (loaded) {
    net::TrafficParams tp;
    tp.saturate = true;
    const std::vector<net::Host*>& hosts = tree.leaves;
    for (std::size_t i = 0; i < hosts.size(); ++i)
      net.add_traffic(*hosts[i], hosts[(i + 1) % hosts.size()]->addr(), tp).start();
  }
  run_sampled(rep, sim, dtp, settle, until, from_us(100));
  collect(rep, sim, net, dtp, sentinel);
  verdict(rep, dtp.all_synced(), "paper tree: not every port synced");
  return rep;
}

// --- Parallel k=16 fat-tree ---------------------------------------------------

Rep fattree_k16(std::uint64_t seed, const RunOptions& opt) {
  Rep rep;
  SetupTimer timer(rep);
  sim::Simulator sim(seed);
  net::NetworkParams np;
  net::Network net(sim, np);
  net::FatTreeParams fp;
  fp.k = 16;
  fp.hosts_per_edge = 4;  // 512 hosts, 832 devices
  const net::FatTreeTopology ft = net::build_fat_tree(net, fp);
  timer.lap("net");
  dtp::DtpParams dp;
  dp.counter_delta = phy::rate_spec(np.rate).counter_delta;
  dtp::DtpNetwork dtp = dtp::enable_dtp(net, dp);
  timer.lap("dtp");
  check::SentinelParams sp;
  sp.diameter_hops = static_cast<std::size_t>(ft.diameter_hops);
  check::Sentinel sentinel(net, dtp, sp);
  timer.lap("check");
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  sim.set_threads(std::min(4u, nproc));
  timer.lap("partition");
  if (opt.traced) wrap_hooks(net);  // set-up ends here

  run_sampled(rep, sim, dtp, from_us(100), from_us(160), from_us(10));
  collect(rep, sim, net, dtp, sentinel);
  verdict(rep, dtp.all_synced(), "fattree_k16: not every port synced");
  return rep;
}

// --- Named campaigns ------------------------------------------------------------

void add_chaos(Rep& rep, const chaos::ChaosEngine& engine, std::size_t faults,
               const std::string& name) {
  Layers& L = rep.layers;
  const chaos::CampaignReport& report = engine.report();
  L.add("chaos.faults", static_cast<double>(faults));
  L.add("chaos.probes_done", static_cast<double>(report.size()));
  for (const chaos::ProbeResult& r : report.results())
    if (r.converged) rep.recover_us.push_back(to_ns_f(r.reconverged_at - r.recovery_start) / 1e3);
  verdict(rep, engine.all_probes_done(), name + ": a probe never reported");
}

/// Pre-fault window of a campaign: the settled tree before the first fault.
void run_campaign_window(Rep& rep, sim::Simulator& sim, const dtp::DtpNetwork& dtp,
                         fs_t t0, fs_t until) {
  // Faults at exactly t0 fire inside run_until(t0), so stop one step short.
  run_sampled(rep, sim, dtp, t0 - from_ms(1), t0 - from_us(100), from_us(100));
  run_to(rep, sim, until);
}

/// `dtpsim --chaos=canonical`, plus a sentinel with one blackout window per
/// fault (the window `stress::run_campaign` grants).
void canonical(Rep& rep, std::uint64_t seed, const RunOptions& opt) {
  using chaos::CanonicalCampaign;
  SetupTimer timer(rep);
  sim::Simulator sim(seed);
  net::Network net(sim, CanonicalCampaign::net_params());
  const net::PaperTreeTopology tree = net::build_paper_tree(net);
  timer.lap("net");
  dtp::DtpNetwork dtp = dtp::enable_dtp(net, CanonicalCampaign::dtp_params());
  timer.lap("dtp");
  CanonicalCampaign::start_heavy_load(net, tree, net::kMtuFrameBytes);
  timer.lap("apps");
  chaos::ChaosEngine engine(net, dtp, CanonicalCampaign::chaos_params());
  const fs_t t0 = CanonicalCampaign::settle_time();
  const chaos::FaultPlan plan = CanonicalCampaign::plan(tree, t0);
  timer.lap("chaos");
  check::Sentinel sentinel(net, dtp);
  for (const chaos::FaultSpec& f : plan.faults)
    sentinel.add_blackout(f.at - 2 * sentinel.params().sample_period,
                          stress::fault_end(chaos::describe(f)) +
                              stress::recovery_margin(f.kind));
  timer.lap("check");
  engine.schedule(plan);
  timer.lap("chaos");
  if (opt.traced) wrap_hooks(net);  // set-up ends here

  run_campaign_window(rep, sim, dtp, t0, CanonicalCampaign::end_time(t0));
  collect(rep, sim, net, dtp, sentinel);
  add_chaos(rep, engine, plan.size(), "canonical");
  for (const auto& [cls, s] : engine.report().by_class()) {
    const bool ok = cls == "rogue_oscillator" ? s.isolated && s.converged == s.n
                                              : s.converged == s.n && s.stall_ok;
    verdict(rep, ok, "canonical: " + cls + " missed its recovery contract");
  }
}

/// `dtpsim --chaos=gray`: four gray faults against the health watchdog.
void gray(Rep& rep, std::uint64_t seed, const RunOptions& opt) {
  using chaos::GrayCampaign;
  SetupTimer timer(rep);
  sim::Simulator sim(seed);
  net::Network net(sim, GrayCampaign::net_params());
  const net::PaperTreeTopology tree = net::build_paper_tree(net);
  timer.lap("net");
  dtp::DtpNetwork dtp = dtp::enable_dtp(net, GrayCampaign::dtp_params());
  timer.lap("dtp");
  chaos::CanonicalCampaign::start_heavy_load(net, tree, net::kMtuFrameBytes);
  timer.lap("apps");
  dtp::HealthWatchdog watchdog(net, dtp, GrayCampaign::watchdog_params(), seed);
  timer.lap("chaos");
  check::Sentinel sentinel(net, dtp);
  sentinel.set_watchdog(&watchdog);
  timer.lap("check");
  chaos::ChaosEngine engine(net, dtp, GrayCampaign::chaos_params());
  const fs_t t0 = GrayCampaign::settle_time();
  for (const auto& [from, until] : GrayCampaign::blackouts(t0)) sentinel.add_blackout(from, until);
  const chaos::FaultPlan plan = GrayCampaign::plan(tree, t0);
  engine.schedule(plan);
  timer.lap("chaos");
  if (opt.traced) wrap_hooks(net);  // set-up ends here

  run_campaign_window(rep, sim, dtp, t0, GrayCampaign::end_time(t0));
  collect(rep, sim, net, dtp, sentinel);
  add_chaos(rep, engine, plan.size(), "gray");
  rep.layers.add("chaos.wd_reinits", static_cast<double>(watchdog.total_reinits()));
  std::size_t remediated = 0;
  for (std::size_t i = 0; i < watchdog.watch_count(); ++i)
    if (watchdog.watch_stats(i).quarantines > 0) ++remediated;
  verdict(rep, remediated >= 4 && watchdog.total_disables() == 0,
          "gray: watchdog did not remediate every fault without a disable");
  verdict(rep, sentinel.stats().watchdog_checks > 0, "gray: no watchdog checks ran");
  for (const auto& [cls, s] : engine.report().by_class())
    verdict(rep, s.converged == s.n, "gray: " + cls + " did not reconverge");
}

/// `dtpsim --chaos=source`: the multi-source UTC hierarchy campaign.
void source(Rep& rep, std::uint64_t seed, const RunOptions& opt) {
  using chaos::SourceCampaign;
  SetupTimer timer(rep);
  sim::Simulator sim(seed);
  net::Network net(sim, SourceCampaign::net_params());
  const net::PaperTreeTopology tree = net::build_paper_tree(net);
  timer.lap("net");
  dtp::DtpNetwork dtp = dtp::enable_dtp(net, SourceCampaign::dtp_params());
  timer.lap("dtp");
  dtp::TimeHierarchy hierarchy;
  SourceCampaign::build_hierarchy(hierarchy, net, dtp, tree);
  hierarchy.start();
  timer.lap("apps");
  check::Sentinel sentinel(net, dtp);
  sentinel.set_hierarchy(&hierarchy);
  timer.lap("check");
  chaos::ChaosEngine engine(net, dtp, SourceCampaign::chaos_params());
  engine.set_hierarchy(&hierarchy);
  const fs_t t0 = SourceCampaign::settle_time();
  const auto [bo_from, bo_until] = SourceCampaign::island_blackout(t0);
  sentinel.add_blackout(bo_from, bo_until);
  const chaos::FaultPlan plan = SourceCampaign::plan(tree, t0);
  engine.schedule(plan);
  timer.lap("chaos");
  if (opt.traced) wrap_hooks(net);  // set-up ends here

  run_campaign_window(rep, sim, dtp, t0, SourceCampaign::end_time(t0));
  collect(rep, sim, net, dtp, sentinel);
  add_chaos(rep, engine, plan.size(), "source");
  verdict(rep, sentinel.stats().utc_checks > 0, "source: no UTC checks ran");
  for (const auto& [cls, s] : engine.report().by_class()) {
    const bool ok = s.converged == s.n && (cls != "rogue_grandmaster" || s.isolated);
    verdict(rep, ok, "source: " + cls + " missed its recovery contract");
  }
}

/// `dtpsim --app=owd`: a daemon and timebase page per host, four lock-free
/// readers per host, and one-way-delay pairs across the tree's diameter.
void app_owd(Rep& rep, std::uint64_t seed, const RunOptions& opt) {
  SetupTimer timer(rep);
  sim::Simulator sim(seed);
  net::NetworkParams np = chaos::CanonicalCampaign::net_params();
  np.mac.priority_queues = 8;  // app frames ride priority 7 past bulk load
  net::Network net(sim, np);
  const net::PaperTreeTopology tree = net::build_paper_tree(net);
  timer.lap("net");
  dtp::DtpNetwork dtp = dtp::enable_dtp(net, chaos::CanonicalCampaign::dtp_params());
  timer.lap("dtp");
  apps::AppHarnessParams hp;
  hp.daemon.poll_period = from_ms(1);
  hp.daemon.sample_period = 0;
  hp.daemon.max_anchor_age = from_us(2500);
  hp.readers_per_host = 4;
  hp.reader_period = from_us(50);
  const std::size_t n = tree.leaves.size();
  for (std::size_t i = 0; i < n / 2; ++i) hp.owd_pairs.emplace_back(i, i + n / 2);
  apps::AppHarness harness(sim, dtp, tree.leaves, hp);
  timer.lap("apps");
  check::Sentinel sentinel(net, dtp);
  for (std::size_t i = 0; i < harness.size(); ++i) sentinel.watch_timebase(&harness.daemon(i));
  const fs_t settle = from_ms(4);
  sentinel.add_blackout(0, settle);  // cold start, as dtpsim --app does
  timer.lap("check");
  harness.start_daemons();
  harness.start_apps(from_ms(3));
  timer.lap("apps");
  if (opt.traced) wrap_hooks(net);  // set-up ends here

  run_to(rep, sim, settle);
  run_sampled(rep, sim, dtp, settle, settle + from_ms(4), from_us(100));
  collect(rep, sim, net, dtp, sentinel);

  Layers& L = rep.layers;
  for (const chaos::AppVerdict& v : harness.verdicts()) {
    L.add("apps.ops", static_cast<double>(v.ops));
    L.add("apps.failures", static_cast<double>(v.failures));
    rep.attempted += v.ops;
    rep.failed += v.failures;
    if (v.failures > 0)
      rep.failures.push_back("app " + v.app + ": " + std::to_string(v.failures) +
                             " operation(s) outside the claimed uncertainty");
    verdict(rep, v.ops > 0, "app " + v.app + ": no operations");
  }
  apps::ReaderFleet* fleet = harness.readers();
  L.add("apps.reader_reads", static_cast<double>(fleet->total_reads()));
  L.add("apps.reader_stale", static_cast<double>(fleet->total_stale_reads()));
  verdict(rep, fleet->total_reads() > 0, "app readers: no reads");
  verdict(rep, sentinel.stats().timebase_checks > 0, "app: no timebase checks ran");
  rep.digest.mix(fleet->digest().hash);

  // TimebasePage::read from outside, at the end-of-run page state.
  constexpr int kReads = 20000;
  double sink = 0;
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r < kReads; ++r) {
    const dtp::Daemon& d = harness.daemon(static_cast<std::size_t>(r) % harness.size());
    sink += d.timebase().read(d.tsc_now(sim.now() + r)).uncertainty_units;
  }
  L.add("apps.page_read_ns_total",
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
  L.add("apps.page_reads", kReads);
  g_sink = sink;
}

Rep named_campaigns(std::uint64_t seed, const RunOptions& opt) {
  Rep rep;
  canonical(rep, seed, opt);
  gray(rep, seed, opt);
  source(rep, seed, opt);
  app_owd(rep, seed, opt);
  return rep;
}

}  // namespace

Rep run_workload(const std::string& name, std::uint64_t seed, const RunOptions& opt) {
  reset_hook_times();
  Rep rep;
  if (name == "quiet_tree")
    rep = paper_tree(seed, opt, false);
  else if (name == "loaded_tree")
    rep = paper_tree(seed, opt, true);
  else if (name == "fattree_k16")
    rep = fattree_k16(seed, opt);
  else if (name == "named_campaigns")
    rep = named_campaigns(seed, opt);
  else
    throw std::invalid_argument("unknown workload '" + name + "'");
  rep.hooks = collect_hook_times();
  return rep;
}

double noop_event_ns(std::size_t depth, std::uint64_t seed) {
  // Hold model: `depth` pending events; each firing schedules one more at
  // a uniform offset, so the queue stays `depth` deep.
  struct Hold {
    sim::Simulator* sim;
    std::vector<fs_t> inc;
    std::size_t next = 0;
    void fire() {
      sim->schedule_in(inc[next++ & (inc.size() - 1)], [this] { fire(); });
    }
  };
  sim::Simulator sim(seed);
  constexpr fs_t kMeanGap = 1'000'000;
  Hold hold{&sim, std::vector<fs_t>(4096)};
  Rng rng(seed);
  for (fs_t& g : hold.inc) g = 1 + static_cast<fs_t>(rng.uniform(2 * kMeanGap));
  depth = std::max<std::size_t>(depth, 1);
  for (std::size_t i = 0; i < depth; ++i)
    sim.schedule_at(hold.inc[i & 4095], [h = &hold] { h->fire(); });
  constexpr std::uint64_t kEvents = 300'000;
  const fs_t horizon = static_cast<fs_t>(kEvents / depth + 1) * kMeanGap;
  const std::uint64_t before = sim.events_executed();
  const Clock::time_point t0 = Clock::now();
  sim.run_until(horizon);
  const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  return ns / static_cast<double>(sim.events_executed() - before);
}

}  // namespace perfbench
