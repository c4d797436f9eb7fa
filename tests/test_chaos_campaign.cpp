#include <gtest/gtest.h>

#include <iostream>
#include <string>

#include "stress/runner.hpp"

/// The named chaos campaigns (chaos/campaign.hpp) on the paper's Fig. 5 tree,
/// each built by stress::Campaign from stress::named_spec. The canonical one
/// runs under MTU-saturated load and is the acceptance gate for the recovery
/// story: every fault class except the rogue oscillator reconverges within
/// two beacon intervals; the rogue is quarantined by its direct neighbor and
/// the healthy remainder reconverges after collateral remediation.

namespace dtpsim {
namespace {

using namespace dtpsim::literals;

std::string violations_of(const check::Sentinel& sentinel) {
  std::string out;
  for (const auto& v : sentinel.violations()) out += v.to_string() + "\n";
  return out;
}

TEST(ChaosCampaign, CanonicalCampaignRecoversWithinTwoBeacons) {
  stress::Campaign run(stress::named_spec("canonical", 77));
  run.run();
  const chaos::ChaosEngine& engine = run.engine();
  const net::PaperTreeTopology& tree = run.paper_tree();
  dtp::DtpNetwork& dtpnet = run.dtp();
  ASSERT_TRUE(engine.all_probes_done()) << "a probe never reported";

  const chaos::CampaignReport& report = engine.report();
  for (const char* cls : {"link_flap", "flap_storm", "port_fail", "ber_burst",
                          "beacon_loss", "node_crash"}) {
    const chaos::ClassSummary c = report.summary(cls);
    EXPECT_EQ(c.n, 1) << cls;
    EXPECT_EQ(c.converged, c.n) << cls << " did not reconverge";
    EXPECT_LE(c.p99_bi, 2.0) << cls << " recovery exceeded two beacon intervals";
    EXPECT_TRUE(c.stall_ok) << cls << " violated the stall ceiling";
  }

  // The rogue must be quarantined — its neighbor's port facing it ends up
  // kFaulty — and must NOT itself reconverge; the rest of the network must.
  const chaos::ClassSummary rogue = report.summary("rogue_oscillator");
  EXPECT_EQ(rogue.n, 1);
  EXPECT_TRUE(rogue.isolated) << "the +500 ppm oscillator was never quarantined";
  EXPECT_EQ(rogue.converged, 1) << "the healthy remainder did not reconverge";

  dtp::Agent* s3 = dtpnet.agent_of(tree.aggs[2]);
  ASSERT_NE(s3, nullptr);
  const phy::PhyPort* rogue_port = &tree.leaves[7]->nic_port();
  bool found = false;
  for (std::size_t p = 0; p < s3->port_count(); ++p) {
    dtp::PortLogic& pl = s3->port_logic(p);
    if (pl.phy_port().peer() != rogue_port) continue;
    found = true;
    EXPECT_EQ(pl.state(), dtp::PortState::kFaulty)
        << "the port facing the rogue must stay quarantined";
  }
  EXPECT_TRUE(found);

  // After remediation, the rogue is the only divergence left: the healthy
  // eleven devices sit within the tree's 4TD envelope of each other.
  double healthy_worst = 0;
  for (std::size_t i = 0; i < dtpnet.size(); ++i) {
    dtp::Agent& a = dtpnet.agent(i);
    if (&a.device() == tree.leaves[7]) continue;
    for (std::size_t j = 0; j < dtpnet.size(); ++j) {
      dtp::Agent& b = dtpnet.agent(j);
      if (&b.device() == tree.leaves[7]) continue;
      healthy_worst = std::max(
          healthy_worst, std::abs(dtp::true_offset_fractional(a, b, run.sim().now())));
    }
  }
  EXPECT_LE(healthy_worst, 16.0) << "healthy devices diverged post-remediation";

  // Outside each fault's blackout window the sentinel's offset, runaway and
  // monotonicity monitors held throughout.
  EXPECT_TRUE(run.sentinel().clean()) << violations_of(run.sentinel());

  if (HasFailure()) {  // dump the campaign state for the postmortem
    engine.report().print(std::cerr);
    for (std::size_t i = 0; i < dtpnet.size(); ++i) {
      dtp::Agent& a = dtpnet.agent(i);
      std::cerr << a.device().name() << ":";
      for (std::size_t p = 0; p < a.port_count(); ++p) {
        const dtp::PortLogic& pl = a.port_logic(p);
        std::cerr << "  [" << p << "] " << dtp::to_string(pl.state())
                  << " rx=" << pl.stats().beacons_received
                  << " filt=" << pl.stats().filtered_range
                  << " joins=" << pl.stats().joins_received << "/"
                  << pl.stats().joins_sent;
      }
      std::cerr << "\n";
    }
  }
}

TEST(ChaosCampaign, CampaignIsDeterministic) {
  // Same seed, same plan — byte-identical recovery numbers. Chaos results
  // are only debuggable if a failing campaign can be replayed exactly.
  auto reconverge_times = [](std::uint64_t seed) {
    // A two-fault sub-plan keeps the runtime modest: the flap plan's
    // 50 us leaf0--S1 bounce at t0, then the crash plan's 400 us leaf4
    // power-off 1 ms later.
    stress::StressSpec spec = stress::named_spec("flap", seed);
    chaos::FaultDescriptor crash = stress::named_spec("crash", seed).faults.at(0);
    crash.at += 1_ms;
    spec.faults.push_back(crash);
    spec.horizon = spec.settle + 3_ms;
    stress::Campaign run(spec);
    run.run();
    std::vector<double> out;
    for (const auto& r : run.engine().report().results()) out.push_back(r.reconverge_beacons);
    return out;
  };
  EXPECT_EQ(reconverge_times(99), reconverge_times(99));
}

/// The canonical *source-level* campaign (chaos::SourceCampaign): GPS loss,
/// rogue grandmaster, island partition (holdover), stratum flap — all on the
/// Fig. 5 tree, with the sentinel's UTC invariants armed throughout (no
/// blackout: a backward served step or an understated uncertainty is never
/// legal, fault or not).
TEST(ChaosCampaign, SourceCampaignGates) {
  // The partition disturbs the *network* layer too; the offset/runaway
  // monitors take the usual fault blackout over it. The UTC checks never do.
  stress::Campaign run(stress::named_spec("source", 77));
  run.run();
  const chaos::ChaosEngine& engine = run.engine();
  const check::Sentinel& sentinel = run.sentinel();
  const dtp::TimeHierarchy& hierarchy = run.hierarchy();
  ASSERT_TRUE(engine.all_probes_done()) << "a source-fault probe never reported";

  const chaos::CampaignReport& report = engine.report();

  // GPS loss: every client off the dead source and locked elsewhere within
  // two broadcast intervals (staleness_factor 1.5 + one detection sample).
  const chaos::ClassSummary gps = report.summary("gps_loss");
  EXPECT_EQ(gps.n, 1);
  EXPECT_EQ(gps.converged, 1) << "clients never failed over from the dead GPS";
  EXPECT_LE(gps.p99_bi, 2.0) << "failover exceeded two broadcast intervals";

  // Rogue grandmaster: quarantined (isolated) while the truthful stratum-2
  // source keeps serving, then reconverges once the lie is cleared.
  const chaos::ClassSummary rogue = report.summary("rogue_grandmaster");
  EXPECT_EQ(rogue.n, 1);
  EXPECT_TRUE(rogue.isolated) << "the lying grandmaster was never deselected";
  EXPECT_EQ(rogue.converged, 1) << "hierarchy did not settle after the lie cleared";

  // The lie was *rejected*, not averaged in: every client struck the rogue.
  for (const auto& c : hierarchy.clients()) {
    const dtp::SourceTrack* t = c->track(1);
    ASSERT_NE(t, nullptr);
    EXPECT_GT(t->rejected, 0u) << c->host().name() << " never rejected the lie";
  }

  // Island partition: S3's clients rode holdover and everyone reconverged
  // after the heal. Stratum flap: selection tracked and settled.
  EXPECT_EQ(report.summary("island_partition").converged, 1);
  EXPECT_EQ(report.summary("stratum_flap").converged, 1);

  // Every client ended locked, and the faults actually exercised selection.
  for (const auto& c : hierarchy.clients()) {
    EXPECT_TRUE(c->ever_served()) << c->host().name();
    EXPECT_EQ(c->status(), dtp::HierarchyStatus::kLocked) << c->host().name();
    EXPECT_GT(c->selection_changes(), 1u) << c->host().name();
  }

  // The sentinel's always-on UTC invariants: no backward served step, no
  // understated uncertainty — through every fault, including holdover.
  const auto stats = sentinel.stats();
  EXPECT_GT(stats.utc_checks, 0u) << "UTC monitor never ran";
  EXPECT_TRUE(sentinel.clean()) << violations_of(sentinel);

  if (HasFailure()) engine.report().print(std::cerr);
}

TEST(ChaosCampaign, SourceCampaignDeterministicAcrossThreads) {
  // The full source campaign — selection churn, quarantine, holdover and
  // reconvergence — must be bit-identical serial vs 2 vs 4 worker threads:
  // same sentinel digest (which folds every served sample), same recovery
  // numbers, same per-client counters.
  struct Fingerprint {
    std::string digest;
    std::vector<double> reconverge;
    std::vector<std::uint64_t> counters;
    bool operator==(const Fingerprint&) const = default;
  };
  auto fingerprint = [](unsigned threads) {
    stress::StressSpec spec = stress::named_spec("source", 321);
    spec.threads = threads;
    stress::Campaign run(spec);
    Fingerprint fp;
    fp.digest = run.run().digest.hex();
    for (const auto& r : run.engine().report().results())
      fp.reconverge.push_back(r.reconverge_beacons);
    for (const auto& c : run.hierarchy().clients()) {
      fp.counters.push_back(c->syncs_received());
      fp.counters.push_back(c->samples_rejected());
      fp.counters.push_back(c->selection_changes());
    }
    return fp;
  };
  const Fingerprint serial = fingerprint(1);
  EXPECT_EQ(serial, fingerprint(2)) << "2-thread run diverged from serial";
  EXPECT_EQ(serial, fingerprint(4)) << "4-thread run diverged from serial";
}

/// The canonical *gray-failure* campaign (chaos::GrayCampaign): asymmetric
/// delay, limping port, silent corruption, frozen counter — partial faults
/// the loud detectors cannot see, detected and remediated by the per-port
/// HealthWatchdog's escalation ladder (DESIGN.md §15).
TEST(ChaosCampaign, GrayCampaignDetectsAndRemediatesAllClasses) {
  const stress::StressSpec spec = stress::named_spec("gray", 77);
  stress::Campaign run(spec);
  run.run();
  const chaos::ChaosEngine& engine = run.engine();
  const check::Sentinel& sentinel = run.sentinel();
  const dtp::HealthWatchdog& watchdog = *run.watchdog();
  ASSERT_TRUE(engine.all_probes_done()) << "a gray-fault probe never reported";

  const chaos::CampaignReport& report = engine.report();
  for (const char* cls : {"asymmetric_delay", "limping_port",
                          "silent_corruption", "frozen_counter"}) {
    const chaos::ClassSummary c = report.summary(cls);
    EXPECT_EQ(c.n, 1) << cls;
    EXPECT_EQ(c.converged, c.n) << cls << " did not reconverge after remediation";
  }

  // Detection: every fault window produced a suspicion, and every suspicion
  // lies inside some fault window (+ remediation margin) — a suspicion on
  // clean hardware is a false positive. Remediation: each suspected port
  // walked the ladder (quarantined at least once), finished HEALTHY with the
  // episode closed, and nothing escalated to a disable.
  std::size_t remediated = 0;
  std::vector<int> window_hits(spec.faults.size(), 0);
  for (std::size_t i = 0; i < watchdog.watch_count(); ++i) {
    const dtp::WatchdogPortStats& ws = watchdog.watch_stats(i);
    if (ws.suspects == 0) continue;
    bool in_window = false;
    for (std::size_t f = 0; f < spec.faults.size(); ++f) {
      const chaos::FaultDescriptor& fault = spec.faults[f];
      if (ws.first_suspected_at >= fault.at &&
          ws.first_suspected_at < fault.at + fault.duration + 3_ms) {
        in_window = true;
        ++window_hits[f];
      }
    }
    EXPECT_TRUE(in_window) << watchdog.watch_label(i)
                           << " suspected outside every fault window";
    if (ws.quarantines > 0) ++remediated;
    EXPECT_EQ(watchdog.watch_health(i), dtp::PortHealth::kHealthy)
        << watchdog.watch_label(i) << " never recovered";
    EXPECT_EQ(ws.attempts, 0) << watchdog.watch_label(i)
                              << " episode still open at the end";
  }
  for (std::size_t f = 0; f < spec.faults.size(); ++f)
    EXPECT_GT(window_hits[f], 0)
        << chaos::fault_class_name(spec.faults[f].kind) << " was never detected";
  EXPECT_GE(remediated, 4u) << "fewer victim ports than faults were remediated";
  EXPECT_EQ(watchdog.total_disables(), 0u)
      << "a transient gray fault must not burn a port";

  // The sentinel's watchdog invariants (attempt ceiling, monotone backoff,
  // disable finality) are never blacked out and must be clean throughout.
  EXPECT_GT(sentinel.stats().watchdog_checks, 0u) << "watchdog monitor never ran";
  EXPECT_TRUE(sentinel.clean()) << violations_of(sentinel);

  if (HasFailure()) engine.report().print(std::cerr);
}

TEST(ChaosCampaign, GrayCampaignDeterministicAcrossThreads) {
  // Detection, quarantine, backoff jitter, re-INIT and probation must be
  // bit-identical serial vs 2 vs 4 worker threads: the sentinel digest folds
  // the per-port ladder counters, and the per-watch stats are compared raw.
  struct Fingerprint {
    std::string digest;
    std::vector<double> reconverge;
    std::vector<std::uint64_t> counters;
    bool operator==(const Fingerprint&) const = default;
  };
  auto fingerprint = [](unsigned threads) {
    stress::StressSpec spec = stress::named_spec("gray", 321);
    spec.threads = threads;
    stress::Campaign run(spec);
    Fingerprint fp;
    fp.digest = run.run().digest.hex();
    for (const auto& r : run.engine().report().results())
      fp.reconverge.push_back(r.reconverge_beacons);
    const dtp::HealthWatchdog& watchdog = *run.watchdog();
    for (std::size_t i = 0; i < watchdog.watch_count(); ++i) {
      const dtp::WatchdogPortStats& ws = watchdog.watch_stats(i);
      fp.counters.push_back(ws.strikes);
      fp.counters.push_back(ws.quarantines);
      fp.counters.push_back(ws.reinits);
      fp.counters.push_back(static_cast<std::uint64_t>(ws.last_backoff));
    }
    return fp;
  };
  const Fingerprint serial = fingerprint(1);
  EXPECT_EQ(serial, fingerprint(2)) << "2-thread gray run diverged from serial";
  EXPECT_EQ(serial, fingerprint(4)) << "4-thread gray run diverged from serial";
}

TEST(ChaosCampaign, ProbeExcludesWatchdogQuarantinedPorts) {
  // Regression pin: a watchdog-quarantined port must not count as a neighbor
  // relation in the recovery probe's measurement. A frozen counter gets both
  // sides of the leaf6-S3 link quarantined; with the re-INIT backoff pushed
  // far past the horizon they stay kFaulty for the whole probe window. The
  // probe must still converge — S3's healthy ports are the measurable
  // remainder — exactly like rogue isolation, where the quarantined
  // divergence is the *correct* outcome, not a recovery failure.
  stress::StressSpec spec = stress::named_spec("gray", 77);
  spec.wd_backoff = 50_ms;
  // The gray plan's frozen counter (leaf6's port facing S3, 2 ms, 5 ms probe
  // timeout), alone and moved to t0.
  chaos::FaultDescriptor frozen = spec.faults.back();
  ASSERT_EQ(frozen.kind, chaos::FaultKind::kFrozenCounter);
  frozen.at = spec.settle;
  spec.faults = {frozen};
  spec.horizon = spec.settle + 8_ms;
  stress::Campaign run(spec);
  run.run();
  ASSERT_TRUE(run.engine().all_probes_done());

  // Both victim ports were quarantined and are still parked there.
  const dtp::HealthWatchdog& watchdog = *run.watchdog();
  EXPECT_GE(watchdog.total_quarantines(), 2u);
  dtp::Agent* leaf = run.dtp().agent_of(run.paper_tree().leaves[6]);
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->port_logic(0).state(), dtp::PortState::kFaulty)
      << "the frozen leaf's port should still be quarantined";
  EXPECT_EQ(watchdog.total_reinits(), 0u) << "backoff should outlast the run";

  // The probe converged on the healthy remainder despite the live quarantine.
  const chaos::ClassSummary c = run.engine().report().summary("frozen_counter");
  EXPECT_EQ(c.n, 1);
  EXPECT_EQ(c.converged, 1)
      << "quarantined ports leaked into the probe's neighbor measurement";
}

}  // namespace
}  // namespace dtpsim
