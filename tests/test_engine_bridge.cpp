/// Bit-exact equivalence of the fused production engine (DESIGN.md §12):
/// running with EngineMode::kBridged, the Simulator default — beacon timers,
/// control-block arrivals and CDC visibility events replaced by analytic
/// bridge steps, quiet spans fused without touching the heap — must
/// reproduce the cycle-exact reference (EngineMode::kExact, always asked for
/// explicitly) event-for-event: offset traces, event counts per category,
/// per-port frame/control counts, agent adjustment counters, chaos verdicts
/// and the sentinel's RunDigest.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "chaos/engine.hpp"
#include "chaos/plan.hpp"
#include "check/sentinel.hpp"
#include "dtp/network.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "stress/runner.hpp"
#include "stress/spec.hpp"

namespace dtpsim::sim {
namespace {

using namespace dtpsim::literals;

/// Everything a run observably produces. Two runs are "the same simulation"
/// iff these compare equal; `fused` is engine-private bookkeeping and is
/// deliberately excluded (it is how the modes are *allowed* to differ).
struct RunResult {
  // offsets[sample][agent] = true counter offset vs agent 0, in units.
  std::vector<std::vector<long long>> offsets;
  std::uint64_t scheduled = 0;
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  std::vector<std::uint64_t> by_category;
  std::vector<std::uint64_t> frames_sent;
  std::vector<std::uint64_t> control_sent;
  std::vector<std::uint64_t> fifo_crossings;
  std::vector<std::uint64_t> fifo_extra;
  std::vector<std::uint64_t> adjustments;
  std::vector<std::uint64_t> resets;
  // (class, converged, reconverged_at) per chaos probe, in report order.
  std::vector<std::tuple<std::string, bool, fs_t>> verdicts;
  check::RunDigest digest;

  bool operator==(const RunResult&) const = default;
};

struct RunConfig {
  /// nullopt = never call set_engine: the Simulator's default engine.
  std::optional<Simulator::EngineMode> mode = Simulator::EngineMode::kExact;
  unsigned threads = 1;
  bool traffic = true;  ///< MTU saturation pairs (forces exact fallbacks)
  bool chaos = true;    ///< link flap + BER burst mid-run
};

RunResult run_fig5(const RunConfig& cfg, SimStats* stats_out = nullptr) {
  Simulator sim(42);
  if (cfg.mode) sim.set_engine(*cfg.mode);
  net::NetworkParams np;
  np.cable.propagation_delay = from_us(1);
  net::Network net(sim, np);
  net::PaperTreeTopology topo = net::build_paper_tree(net);
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);

  if (cfg.traffic) {
    // Frames keep the line busy: every beacon that lands on a busy or queued
    // slot must take the exact fallback path, and arrivals interleave with
    // bridged steps at shared instants.
    net::TrafficParams tp;
    tp.saturate = true;
    tp.frame_bytes = 1518;
    net.add_traffic(*topo.leaves[0], topo.leaves[5]->addr(), tp).start();
    net.add_traffic(*topo.leaves[3], topo.leaves[7]->addr(), tp).start();
  }

  chaos::ChaosEngine chaos_eng(net, dtp, {});
  if (cfg.chaos) {
    // Faults land inside bridged quiet spans: the flap cancels pending
    // bridge steps (owner purge + handle cancel paths), the BER burst
    // corrupts control blocks that travel as bridge arrivals.
    chaos::FaultPlan plan;
    plan.add(chaos::FaultSpec::link_flap(*topo.aggs[0], *topo.leaves[0],
                                         from_us(900), from_us(150)));
    plan.add(chaos::FaultSpec::ber_burst(*topo.root, *topo.aggs[1],
                                         from_us(1200), from_us(200), 1e-5));
    chaos_eng.schedule(plan);
  }

  check::Sentinel sentinel(net, dtp);
  if (cfg.threads > 1) sim.set_threads(cfg.threads);

  RunResult r;
  const fs_t t_end = cfg.traffic ? from_ms(3) : from_ms(6);
  while (sim.now() < t_end) {
    sim.run_until(sim.now() + from_us(100));
    std::vector<long long> row;
    for (std::size_t i = 1; i < dtp.size(); ++i)
      row.push_back(static_cast<long long>(
          dtp::true_offset_units(dtp.agent(0), dtp.agent(i), sim.now())));
    r.offsets.push_back(std::move(row));
  }

  const SimStats st = sim.stats();
  r.scheduled = st.scheduled;
  r.executed = st.executed;
  r.cancelled = st.cancelled;
  r.by_category.assign(st.executed_by_category,
                       st.executed_by_category + kEventCategoryCount);
  for (net::Device* d : net.devices()) {
    for (std::size_t p = 0; p < d->port_count(); ++p) {
      r.frames_sent.push_back(d->port(p).frames_sent());
      r.control_sent.push_back(d->port(p).control_blocks_sent());
      r.fifo_crossings.push_back(d->port(p).fifo_crossings());
      r.fifo_extra.push_back(d->port(p).fifo_extra_cycles());
    }
  }
  for (std::size_t i = 0; i < dtp.size(); ++i) {
    r.adjustments.push_back(dtp.agent(i).global_adjustments());
    r.resets.push_back(dtp.agent(i).counter_resets());
  }
  for (const chaos::ProbeResult& pr : chaos_eng.report().results())
    r.verdicts.emplace_back(pr.fault_class, pr.converged, pr.reconverged_at);
  r.digest = sentinel.digest();
  if (stats_out != nullptr) *stats_out = st;
  return r;
}

class EngineBridge : public ::testing::Test {
 protected:
  static const RunResult& exact_serial() {
    static const RunResult r = run_fig5({});
    return r;
  }
};

TEST_F(EngineBridge, ExactBaselineIsSaneAndNeverFuses) {
  SimStats st;
  const RunResult s = run_fig5({}, &st);
  ASSERT_FALSE(s.offsets.empty());
  EXPECT_GT(s.executed, 100000u);
  EXPECT_EQ(s.verdicts.size(), 2u);
  EXPECT_EQ(st.fused, 0u) << "exact mode must never take the fused path";
  EXPECT_EQ(s, exact_serial());
}

// Every exact event on the DTP control path (beacon timer, control service,
// cable arrival, CDC visibility) and on the MTU frame path must fit the
// Callback inline buffer: a spill is one heap allocation per event.
TEST_F(EngineBridge, ExactFig5EventsNeverSpillCallbacks) {
  for (const bool traffic : {false, true}) {
    RunConfig cfg;
    cfg.traffic = traffic;
    cfg.chaos = false;
    SimStats st;
    const RunResult r = run_fig5(cfg, &st);
    EXPECT_GT(r.executed, 100000u);
    EXPECT_EQ(st.callback_spills, 0u) << (traffic ? "MTU-loaded" : "idle") << " tree";
  }
}

TEST_F(EngineBridge, BridgedSerialMatchesExact) {
  RunConfig cfg;
  cfg.mode = Simulator::EngineMode::kBridged;
  SimStats st;
  const RunResult b = run_fig5(cfg, &st);
  EXPECT_EQ(b, exact_serial());
  EXPECT_GT(st.fused, 0u) << "bridge never engaged; test is vacuous";
}

TEST_F(EngineBridge, BridgedTwoThreadsMatchesExactSerial) {
  RunConfig cfg;
  cfg.mode = Simulator::EngineMode::kBridged;
  cfg.threads = 2;
  EXPECT_EQ(run_fig5(cfg), exact_serial());
}

TEST_F(EngineBridge, BridgedFourThreadsMatchesExactSerial) {
  RunConfig cfg;
  cfg.mode = Simulator::EngineMode::kBridged;
  cfg.threads = 4;
  EXPECT_EQ(run_fig5(cfg), exact_serial());
}

TEST_F(EngineBridge, QuietRunFusesMostControlTraffic) {
  // No frame traffic: after INIT the run is beacons + CDC crossings, the
  // workload the bridge exists for. Digest equality still required, and the
  // majority of executed events must have skipped the heap.
  RunConfig exact;
  exact.traffic = false;
  RunConfig bridged = exact;
  bridged.mode = Simulator::EngineMode::kBridged;
  SimStats st;
  const RunResult b = run_fig5(bridged, &st);
  const RunResult e = run_fig5(exact);
  EXPECT_EQ(b, e);
  EXPECT_GT(st.fused, b.executed / 4)
      << "quiet workload should fuse a large fraction of events";
}

// The production default: a Simulator nobody configured fuses the quiet
// chain, and still reproduces the explicit reference at every thread count.
TEST_F(EngineBridge, DefaultEngineFusesAndMatchesExactReference) {
  RunConfig exact;
  exact.traffic = false;
  exact.chaos = false;
  SimStats ref_st;
  const RunResult ref = run_fig5(exact, &ref_st);
  EXPECT_EQ(ref_st.fused, 0u) << "the explicit reference must never fuse";
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    RunConfig dflt = exact;
    dflt.mode = std::nullopt;
    dflt.threads = threads;
    SimStats st;
    const RunResult r = run_fig5(dflt, &st);
    EXPECT_GT(st.fused, 0u) << "the default engine does not fuse";
    EXPECT_EQ(r, ref);
  }
}

// A named chaos spec runs the production engine; the same spec with
// engine=exact is the reference, never fuses, and yields the same digest at
// 1, 2 and 4 threads.
TEST_F(EngineBridge, NamedSpecRunsFusedAndMatchesExactReference) {
  const stress::StressSpec named = stress::named_spec("flap", 1);
  ASSERT_TRUE(named.bridged);
  EXPECT_NE(stress::to_text(named).find("engine=bridged"), std::string::npos);
  stress::StressSpec exact = named;
  exact.bridged = false;
  EXPECT_NE(stress::to_text(exact).find("engine=exact"), std::string::npos);
  stress::Campaign ref(exact);
  const stress::CampaignResult ref_r = ref.run();
  EXPECT_EQ(ref.sim().stats().fused, 0u) << "engine=exact must never fuse";
  EXPECT_TRUE(ref_r.clean());
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    stress::StressSpec s = named;
    s.threads = threads;
    stress::Campaign fused(s);
    const stress::CampaignResult r = fused.run();
    EXPECT_GT(fused.sim().stats().fused, 0u) << "engine=bridged did not fuse";
    EXPECT_EQ(r.digest, ref_r.digest);
    EXPECT_EQ(r.events_executed, ref_r.events_executed);
  }
}

// Bridged steps are ordinary slab events: a handle outlives its step and
// must not cancel a newer step that reuses the slot, and every cancel, purge
// and fire keeps the bridge count and the node registry exact.
TEST(BridgeHandle, StaleHandleDoesNotCancelReusedSlot) {
  using Kind = EventQueue::BridgeKind;
  EventQueue q;
  int fired = 0;
  const auto step = [&q, &fired](fs_t t) {
    return q.bridge_schedule(t, [&fired] { ++fired; }, EventCategory::kGeneric, 0,
                             Kind::kApply, nullptr);
  };

  const EventQueue::Handle cancelled = step(10);
  EXPECT_FALSE(q.bridge_apply_fusible(0, 10)) << "the registry lists a pending step";
  EXPECT_TRUE(q.cancel(cancelled));
  EXPECT_FALSE(q.cancel(cancelled)) << "double cancel";
  EXPECT_TRUE(q.bridge_apply_fusible(0, 10)) << "a cancelled step stayed in the registry";
  const EventQueue::Handle reused = step(20);
  EXPECT_EQ(reused.slot, cancelled.slot) << "test premise: the freed slot is reused";
  EXPECT_FALSE(q.cancel(cancelled)) << "stale handle cancelled a newer step";
  EXPECT_TRUE(q.is_pending(reused));
  EXPECT_EQ(q.bridge_pending(), 1u);

  // A fired step's handle goes stale the same way.
  EXPECT_EQ(q.run(EventQueue::kNoEventTime, false), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.bridge_apply_fusible(0, 30)) << "a fired step stayed in the registry";
  const EventQueue::Handle next = step(30);
  EXPECT_EQ(next.slot, reused.slot);
  EXPECT_FALSE(q.cancel(reused));
  EXPECT_EQ(q.bridge_pending(), 1u);
  EXPECT_FALSE(q.cancel(EventQueue::Handle{})) << "a default handle is invalid";
  EXPECT_TRUE(q.cancel(next));
  EXPECT_EQ(q.bridge_pending(), 0u);
  EXPECT_EQ(q.size(), 0u);

  // An owner purge removes arrival steps from the heap and the registry.
  const int cable = 0;
  q.bridge_schedule_link(40, [&fired] { ++fired; }, EventCategory::kFrame, 0, &cable, 1);
  q.bridge_schedule_link(50, [&fired] { ++fired; }, EventCategory::kFrame, 0, &cable, 2);
  EXPECT_FALSE(q.bridge_apply_fusible(0, 60)) << "arrivals pending before the apply";
  EXPECT_EQ(q.purge_owner(&cable), 2u);
  EXPECT_EQ(q.bridge_pending(), 0u);
  EXPECT_TRUE(q.bridge_apply_fusible(0, 60)) << "a purged step stayed in the registry";
  EXPECT_EQ(q.next_time(), EventQueue::kNoEventTime);
  EXPECT_EQ(q.cancelled_count(), 4u);
  EXPECT_EQ(fired, 1);
}

TEST_F(EngineBridge, SetThreadsWithPendingBridgedStepsThrows) {
  // Sharding moves ordinary events between queues, not bridged steps and
  // their node registry, so re-sharding mid-flight is refused rather than
  // silently misrouted.
  Simulator sim(7);
  net::NetworkParams np;
  np.cable.propagation_delay = from_us(1);
  net::Network net(sim, np);
  net::PaperTreeTopology topo = net::build_paper_tree(net);
  dtp::DtpNetwork dtp = dtp::enable_dtp(net);
  sim.run_until(from_ms(1));  // ports sync; beacon bridge steps now pending
  ASSERT_TRUE(dtp.all_synced());
  EXPECT_THROW(sim.set_threads(2), std::logic_error);
}

}  // namespace
}  // namespace dtpsim::sim
