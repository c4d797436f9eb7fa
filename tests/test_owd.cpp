#include "apps/owd.hpp"

#include "common/stats.hpp"

#include <gtest/gtest.h>

#include "apps/harness.hpp"
#include "chaos/campaign.hpp"
#include "dtp/daemon.hpp"
#include "dtp/network.hpp"
#include "dtp_test_util.hpp"
#include "net/topology.hpp"
#include "ptp/client.hpp"
#include "ptp/grandmaster.hpp"

namespace dtpsim::apps {
namespace {

using namespace dtpsim::literals;

dtp::DaemonParams fast_daemon() {
  dtp::DaemonParams dp;
  dp.poll_period = from_ms(20);
  dp.sample_period = 0;
  return dp;
}

TEST(OwdMeter, TrueOwdMatchesWireTime) {
  dtp::testutil::TwoNodes n(111, 50.0, -50.0);
  dtp::Daemon da(n.sim, *n.agent_a, fast_daemon(), 10.0);
  dtp::Daemon db(n.sim, *n.agent_b, fast_daemon(), -10.0);
  da.start();
  db.start();
  n.sim.run_until(200_ms);

  OwdMeter meter(
      n.sim, *n.a, *n.b, [&](fs_t t) { return da.get_time_ns(t); },
      [&](fs_t t) { return db.get_time_ns(t); }, 5_ms);
  meter.start();
  n.sim.run_until(1_sec);
  ASSERT_GT(meter.probes_received(), 100u);
  // True OWD = serialization (~64B) + 50 ns propagation; well under 1 us.
  EXPECT_GT(meter.true_series().stats().mean(), 50.0);
  EXPECT_LT(meter.true_series().stats().mean(), 1'000.0);
}

TEST(OwdMeter, DtpClocksMeasureOwdToTensOfNs) {
  // The paper's motivating application: with DTP-synchronized clocks,
  // one-way delay is measurable to tens of ns.
  dtp::testutil::TwoNodes n(112, 100.0, -100.0);
  dtp::Daemon da(n.sim, *n.agent_a, fast_daemon(), 20.0);
  dtp::Daemon db(n.sim, *n.agent_b, fast_daemon(), -15.0);
  da.start();
  db.start();
  n.sim.run_until(200_ms);

  OwdMeter meter(
      n.sim, *n.a, *n.b, [&](fs_t t) { return da.get_time_ns(t); },
      [&](fs_t t) { return db.get_time_ns(t); }, 5_ms);
  meter.start();
  n.sim.run_until(2_sec);
  ASSERT_GT(meter.probes_received(), 200u);
  // Measurement error is exactly the clock disagreement: 4TD + software
  // access — usually double-digit ns, with rare PCIe-spike outliers, never
  // the hundreds of us an unsynchronized pair would show.
  SampleSeries errs;
  for (const auto& p : meter.error_series().points()) errs.add(p.value);
  EXPECT_LT(errs.percentile(90), 120.0);
  EXPECT_GT(errs.percentile(10), -120.0);
  EXPECT_LT(errs.max_abs(), 3'000.0);
  EXPECT_LT(std::abs(errs.mean()), 100.0);
}

TEST(OwdMeter, UnsynchronizedClocksAreUseless) {
  // Without synchronization, +-100 ppm free-running clocks make OWD
  // nonsense within a second (200 ppm * 1 s = 200 us of divergence).
  dtp::testutil::TwoNodes n(113, 100.0, -100.0);
  // No daemons, no agents in the clock path: read free-running oscillators.
  auto clock_a = [&](fs_t t) {
    return static_cast<double>(n.a->oscillator().tick_at(t)) * 6.4;
  };
  auto clock_b = [&](fs_t t) {
    return static_cast<double>(n.b->oscillator().tick_at(t)) * 6.4;
  };
  OwdMeter meter(n.sim, *n.a, *n.b, clock_a, clock_b, 50_ms);
  meter.start();
  n.sim.run_until(2_sec);
  ASSERT_GT(meter.probes_received(), 20u);
  EXPECT_GT(meter.error_series().stats().max_abs(), 100'000.0)
      << "free-running clocks diverge by hundreds of us over seconds";
}

TEST(OwdMeter, PtpClocksGiveSubMicrosecondOwdWhenIdle) {
  sim::Simulator sim(114);
  net::NetworkParams np;
  np.enable_drift = true;
  np.drift.step_ppm = 0.01;
  np.drift.update_interval = from_ms(10);
  net::Network net(sim, np);
  auto star = net::build_star(net, 3);
  ptp::GrandmasterParams gp;
  gp.sync_interval = from_ms(250);
  ptp::Grandmaster gm(sim, *star.hosts[0], gp);
  ptp::PtpClientParams cp;
  cp.delay_req_interval = from_ms(187);
  ptp::PtpClient c1(sim, *star.hosts[1], gm.phc(), cp);
  ptp::PtpClient c2(sim, *star.hosts[2], gm.phc(), cp);
  gm.start();
  c1.start();
  c2.start();
  sim.run_until(15_sec);

  OwdMeter meter(
      sim, *star.hosts[1], *star.hosts[2],
      [&](fs_t t) { return c1.phc().time_ns_at(t); },
      [&](fs_t t) { return c2.phc().time_ns_at(t); }, 50_ms);
  meter.start();
  sim.run_until(20_sec);
  ASSERT_GT(meter.probes_received(), 50u);
  EXPECT_LT(meter.error_series().stats().max_abs(), 5'000.0);
  // Floor: one 6.4ns tick. With unbiased period quantization the PTP pair
  // lands at single-digit ns when idle, but can never be tick-perfect.
  EXPECT_GT(meter.error_series().stats().max_abs(), 6.4)
      << "but PTP cannot be implausibly perfect";
}

// The `dtpsim --app=owd` wiring on the Fig. 5 tree: every app frame crosses
// both hosts' software stacks as a delay event, and no event closure on the
// path may outgrow the Callback inline buffer (a spill is one heap
// allocation per frame per stack traversal).
TEST(OwdApp, AppFramesNeverSpillCallbacks) {
  sim::Simulator sim(1);
  net::NetworkParams np = chaos::CanonicalCampaign::net_params();
  np.mac.priority_queues = 8;
  net::Network net(sim, np);
  const net::PaperTreeTopology tree = net::build_paper_tree(net);
  dtp::DtpNetwork dtp = dtp::enable_dtp(net, chaos::CanonicalCampaign::dtp_params());
  AppHarnessParams hp;
  hp.daemon.poll_period = from_ms(1);
  hp.daemon.sample_period = 0;
  hp.daemon.max_anchor_age = from_us(2500);
  hp.readers_per_host = 4;
  hp.reader_period = from_us(50);
  const std::size_t n = tree.leaves.size();
  for (std::size_t i = 0; i < n / 2; ++i) hp.owd_pairs.emplace_back(i, i + n / 2);
  AppHarness harness(sim, dtp, tree.leaves, hp);
  harness.start_daemons();
  harness.start_apps(from_ms(3));
  sim.run_until(from_ms(6));
  EXPECT_GT(harness.owd()->total().probes, 50u);
  EXPECT_EQ(sim.stats().callback_spills, 0u);
}

}  // namespace
}  // namespace dtpsim::apps
