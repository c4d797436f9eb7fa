/// Section 5.2, second variant: DTP + PTP-style hardware-stamped sync gives
/// tighter external synchronization than daemon-level UTC broadcasts. The
/// hardware-stamped path is the single-source time hierarchy: one GPS-class
/// `UtcSourceServer` feeding `HierarchyClient`s (DESIGN.md §13).

#include <gtest/gtest.h>

#include "dtp/daemon.hpp"
#include "dtp/external.hpp"
#include "dtp/hierarchy.hpp"
#include "dtp/network.hpp"
#include "net/topology.hpp"

namespace dtpsim::dtp {
namespace {

using namespace dtpsim::literals;

struct StarFixture {
  sim::Simulator sim;
  net::Network net;
  net::StarTopology star;
  DtpNetwork dtp;
  TimeHierarchy hierarchy;

  explicit StarFixture(std::uint64_t seed)
      : sim(seed), net(sim), star(net::build_star(net, 4)) {
    dtp = enable_dtp(net);
    sim.run_until(2_ms);
  }

  Agent& agent(std::size_t i) { return *dtp.agent_of(star.hosts[i]); }
  UtcSourceServer& gps_server(std::size_t i, double utc_error_ns = 0.0) {
    TimeSourceParams p = TimeSourceParams::gps(1);
    p.utc_error_ns = utc_error_ns;
    return hierarchy.add_server(sim, *star.hosts[i], agent(i), p);
  }
  HierarchyClient& client(std::size_t i) {
    return hierarchy.add_client(*star.hosts[i], agent(i));
  }
};

/// Served-UTC error (ns) of every available sample, taken every `step` until
/// `until`. Asserts the hierarchy's honesty contract on each one:
/// |served − true| ≤ uncertainty.
StreamingStats sample_errors(StarFixture& f, HierarchyClient& c, fs_t until,
                             fs_t step = from_us(10)) {
  StreamingStats errors;
  for (fs_t t = f.sim.now() + step; t <= until; t += step) {
    f.sim.run_until(t);
    const ServedTime s = c.serve(t);
    if (!s.available) continue;
    const double err = s.utc - static_cast<double>(t);
    EXPECT_LE(std::abs(err), s.uncertainty) << "understated uncertainty at " << t;
    errors.add(err / static_cast<double>(kFsPerNs));
  }
  return errors;
}

TEST(HardwareStampedUtc, ClientAcquiresFixFromOneSync) {
  StarFixture f(421);
  f.gps_server(0);
  HierarchyClient& client = f.client(1);
  f.hierarchy.start();
  const ServedTime before = client.serve(f.sim.now());
  EXPECT_EQ(before.status, HierarchyStatus::kAcquiring);
  EXPECT_FALSE(before.available);
  f.sim.run_until(f.sim.now() + from_us(500));
  EXPECT_GE(client.syncs_received(), 2u);
  const ServedTime after = client.serve(f.sim.now());
  EXPECT_EQ(after.status, HierarchyStatus::kLocked);
  EXPECT_TRUE(after.available);
  EXPECT_EQ(after.source_id, 1);
}

TEST(HardwareStampedUtc, UtcWithinTensOfNanoseconds) {
  StarFixture f(422);
  f.gps_server(0);
  std::vector<HierarchyClient*> clients;
  for (std::size_t i = 1; i < f.star.hosts.size(); ++i) clients.push_back(&f.client(i));
  f.hierarchy.start();
  f.sim.run_until(f.sim.now() + 1_ms);
  for (HierarchyClient* c : clients) {
    const StreamingStats errors = sample_errors(f, *c, f.sim.now() + 5_ms);
    ASSERT_GT(errors.count(), 0u);
    // Hardware DTP stamping: error = counter disagreement (4TD) + tick
    // phase, with no daemon/PCIe in the loop.
    EXPECT_LT(errors.max_abs(), 60.0);
    EXPECT_EQ(c->status(), HierarchyStatus::kLocked);
  }
}

TEST(HardwareStampedUtc, BeatsDaemonLevelBroadcast) {
  // The same network, both §5.2 schemes side by side.
  StarFixture f(423);
  Agent& server_agent = f.agent(0);
  DaemonParams dp;
  dp.poll_period = from_ms(20);
  dp.sample_period = 0;
  Daemon server_daemon(f.sim, server_agent, dp, 11.0);
  Daemon client_daemon(f.sim, f.agent(1), dp, -8.0);
  server_daemon.start();
  client_daemon.start();
  f.sim.run_until(f.sim.now() + 300_ms);

  UtcBroadcaster soft_server(f.sim, *f.star.hosts[0], server_daemon, from_ms(100));
  UtcClient soft_client(*f.star.hosts[1], client_daemon);
  f.gps_server(2);
  HierarchyClient& hw_client = f.client(3);
  soft_server.start();
  f.hierarchy.start();
  const fs_t tail_from = f.sim.now() + 1500_ms;
  f.sim.run_until(tail_from);
  const StreamingStats hw_errors =
      sample_errors(f, hw_client, tail_from + 1500_ms, from_us(500));

  ASSERT_TRUE(soft_client.ready());
  ASSERT_GT(hw_errors.count(), 0u);
  const auto& pts = soft_client.error_series().points();
  double soft = 0;
  for (std::size_t i = pts.size() / 2; i < pts.size(); ++i)
    soft = std::max(soft, std::abs(pts[i].value));
  const double hard = hw_errors.max_abs();
  EXPECT_LT(hard, soft) << "hardware stamping must beat the daemon path";
  EXPECT_LT(hard, 60.0);
}

TEST(HardwareStampedUtc, ServerUtcErrorIsTheFloor) {
  StarFixture f(424);
  f.gps_server(0, /*utc_error_ns=*/100.0);
  HierarchyClient& client = f.client(1);
  f.hierarchy.start();
  f.sim.run_until(f.sim.now() + 25_ms);
  const StreamingStats tail = sample_errors(f, client, f.sim.now() + 25_ms);
  ASSERT_GT(tail.count(), 0u);
  EXPECT_GT(tail.stddev(), 10.0) << "the GPS-grade server noise dominates";
  EXPECT_LT(tail.max_abs(), 600.0);
}

TEST(HardwareStampedUtc, DeadServerGoesToHoldoverThenUnavailable) {
  // A dead server must surface as holdover (growing uncertainty) and then a
  // refusal to serve, never as a locked estimate that silently keeps looking
  // authoritative.
  StarFixture f(427);
  UtcSourceServer& server = f.gps_server(0);
  HierarchyClient& client = f.client(1);
  f.hierarchy.start();
  f.sim.run_until(f.sim.now() + 2_ms);
  ASSERT_EQ(client.serve(f.sim.now()).status, HierarchyStatus::kLocked);

  server.stop();
  const fs_t died_at = f.sim.now();
  const fs_t period = server.params().period;
  fs_t holdover_at = 0;
  fs_t unavailable_at = 0;
  for (fs_t t = died_at + from_us(10); t <= died_at + 12_ms; t += from_us(10)) {
    f.sim.run_until(t);
    const ServedTime s = client.serve(t);
    if (s.available) {
      EXPECT_LE(std::abs(s.utc - static_cast<double>(t)), s.uncertainty);
    }
    if (s.status == HierarchyStatus::kHoldover && holdover_at == 0) holdover_at = t;
    if (s.status == HierarchyStatus::kUnavailable && unavailable_at == 0)
      unavailable_at = t;
    // Locked only while the last fix is younger than the staleness limit.
    if (t > died_at + 2 * period) {
      EXPECT_NE(s.status, HierarchyStatus::kLocked) << "dead server served as locked";
    }
    if (unavailable_at > 0) {
      EXPECT_FALSE(s.available) << "served again after refusing";
    }
  }
  ASSERT_GT(holdover_at, 0);
  EXPECT_LE(holdover_at, died_at + 2 * period);
  ASSERT_GT(unavailable_at, holdover_at);
  EXPECT_LE(unavailable_at, died_at + 11_ms);
  const SourceTrack* track = client.track(1);
  ASSERT_NE(track, nullptr);
  EXPECT_LE(track->last_accept, died_at + period) << "only a sync already in flight";
}

TEST(HardwareStampedUtc, HoldoverCeilingRefusesReadsTooUncertainForTheConsumer) {
  StarFixture f(428);
  UtcSourceServer& server = f.gps_server(0);
  HierarchyClient& client = f.client(1);
  f.hierarchy.start();
  f.sim.run_until(f.sim.now() + 2_ms);
  const SourceTrack* track = client.track(1);
  ASSERT_NE(track, nullptr);
  // A read just after a sync and one just before the next: the drift term
  // grows the uncertainty across the broadcast interval.
  const fs_t fresh = track->last_accept + from_us(5);
  const fs_t late = track->last_accept + server.params().period - from_us(5);
  f.sim.run_until(fresh);
  const ServedTime at_fresh = client.serve(fresh);
  ASSERT_EQ(at_fresh.status, HierarchyStatus::kLocked);

  // An application ceiling between the two: every read taken just before
  // the next broadcast is already too uncertain for this consumer.
  const fs_t ceiling = static_cast<fs_t>(at_fresh.uncertainty) + from_ns(30);
  client.set_holdover_ceiling(ceiling);
  f.sim.run_until(late);
  ASSERT_EQ(track->last_accept + from_us(5), fresh) << "a sync landed in between";
  const ServedTime refused = client.serve(late);
  EXPECT_EQ(refused.status, HierarchyStatus::kUnavailable);
  EXPECT_FALSE(refused.available);
  client.set_holdover_ceiling(0);  // never refuse
  const ServedTime served = client.serve(late);
  EXPECT_EQ(served.status, HierarchyStatus::kLocked);
  EXPECT_GT(served.uncertainty, static_cast<double>(ceiling));
}

TEST(DaemonLevelUtc, ClientGoesStaleWhenBroadcasterStops) {
  // The degraded-read contract on the daemon-path UtcClient.
  StarFixture f(429);
  DaemonParams dp;
  dp.poll_period = from_us(200);
  Daemon server_daemon(f.sim, f.agent(0), dp, 25.0);
  Daemon client_daemon(f.sim, f.agent(1), dp, 25.0);
  server_daemon.start();
  client_daemon.start();
  f.sim.run_until(f.sim.now() + 200_ms);
  UtcBroadcaster broadcaster(f.sim, *f.star.hosts[0], server_daemon, from_ms(100));
  UtcClient client(*f.star.hosts[1], client_daemon);
  broadcaster.start();
  f.sim.run_until(f.sim.now() + 1_sec);
  ASSERT_TRUE(client.ready());
  EXPECT_FALSE(client.stale(f.sim.now()));
  broadcaster.stop();
  f.sim.run_until(f.sim.now() + 2_sec);
  EXPECT_TRUE(client.stale(f.sim.now()));
}

}  // namespace
}  // namespace dtpsim::dtp
