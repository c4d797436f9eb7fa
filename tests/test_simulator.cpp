#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <compare>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace dtpsim::sim {
namespace {

using namespace dtpsim::literals;

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30_ns, [&] { order.push_back(3); });
  sim.schedule_at(10_ns, [&] { order.push_back(1); });
  sim.schedule_at(20_ns, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30_ns);
}

TEST(Simulator, TiesAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.schedule_at(5_ns, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  fs_t seen = -1;
  sim.schedule_at(10_ns, [&] {
    sim.schedule_in(5_ns, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 15_ns);
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator sim;
  sim.schedule_at(10_ns, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5_ns, [] {}), std::logic_error);
  EXPECT_THROW(sim.schedule_in(-1, [] {}), std::logic_error);
}

TEST(Simulator, EmptyCallbackRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1_ns, nullptr), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  auto h = sim.schedule_at(10_ns, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(h));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelInvalidHandleIsNoop) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

// Regression: the seed recorded any id < next_id_ as cancelled, so
// cancelling a handle whose event already fired leaked a tombstone forever
// and made events_pending() underflow its unsigned subtraction.
TEST(Simulator, CancelAfterFireReturnsFalseAndRecordsNothing) {
  Simulator sim;
  auto h = sim.schedule_at(10_ns, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.stats().cancelled, 0u);
  // A later event must be unaffected by the stale cancels above.
  bool fired = false;
  sim.schedule_in(1_ns, [&] { fired = true; });
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelTwiceSecondIsNoop) {
  Simulator sim;
  auto h = sim.schedule_at(10_ns, [] {});
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.stats().cancelled, 1u);
}

// A handle must not be able to cancel an unrelated event that reuses its
// slot: the generation counter detects the reuse.
TEST(Simulator, StaleHandleCannotCancelReusedSlot) {
  Simulator sim;
  auto stale = sim.schedule_at(10_ns, [] {});
  EXPECT_TRUE(sim.cancel(stale));
  bool fired = false;
  sim.schedule_at(10_ns, [&] { fired = true; });  // reuses the freed slot
  EXPECT_FALSE(sim.cancel(stale));
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelOwnHandleInsideCallbackIsNoop) {
  Simulator sim;
  EventHandle self;
  bool cancel_result = true;
  self = sim.schedule_at(10_ns, [&] { cancel_result = sim.cancel(self); });
  sim.run();
  EXPECT_FALSE(cancel_result);
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(Simulator, EventsPendingIsExactUnderChurn) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i)
    handles.push_back(sim.schedule_at((i + 1) * 1_ns, [] {}));
  EXPECT_EQ(sim.events_pending(), 100u);
  for (int i = 0; i < 100; i += 2) EXPECT_TRUE(sim.cancel(handles[i]));
  EXPECT_EQ(sim.events_pending(), 50u);
  sim.run();
  EXPECT_EQ(sim.events_pending(), 0u);
  // The seed bug made this underflow to ~SIZE_MAX after stale cancels.
  for (auto& h : handles) sim.cancel(h);
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 50u);
}

TEST(Simulator, CancelledEventNeverRunsEvenWhenInterleaved) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10_ns, [&] { order.push_back(1); });
  auto h = sim.schedule_at(10_ns, [&] { order.push_back(2); });
  sim.schedule_at(10_ns, [&] { order.push_back(3); });
  EXPECT_TRUE(sim.cancel(h));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, StatsCountersAndCategories) {
  Simulator sim;
  sim.schedule_at(1_ns, [] {}, EventCategory::kBeacon);
  sim.schedule_at(2_ns, [] {}, EventCategory::kFrame);
  sim.schedule_at(3_ns, [] {}, EventCategory::kFrame);
  auto h = sim.schedule_at(4_ns, [] {}, EventCategory::kProbe);
  sim.cancel(h);
  sim.run();
  const SimStats st = sim.stats();
  EXPECT_EQ(st.scheduled, 4u);
  EXPECT_EQ(st.executed, 3u);
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.pending, 0u);
  EXPECT_EQ(st.peak_pending, 4u);
  EXPECT_EQ(st.executed_by_category[static_cast<int>(EventCategory::kBeacon)], 1u);
  EXPECT_EQ(st.executed_by_category[static_cast<int>(EventCategory::kFrame)], 2u);
  EXPECT_EQ(st.executed_by_category[static_cast<int>(EventCategory::kProbe)], 0u);
}

TEST(Simulator, LargeCallbackFallsBackToHeapAndStillRuns) {
  Simulator sim;
  // 128 bytes of capture: exceeds the inline buffer, exercises the heap path.
  std::array<std::uint64_t, 16> big{};
  big.fill(7);
  std::uint64_t sum = 0;
  sim.schedule_at(1_ns, [big, &sum] {
    for (auto v : big) sum += v;
  });
  sim.run();
  EXPECT_EQ(sum, 112u);
}

TEST(Callback, InlineForSmallCaptures) {
  int x = 0;
  Callback small([&x] { ++x; });
  EXPECT_TRUE(small.is_inline());
  small();
  EXPECT_EQ(x, 1);
  Callback moved(std::move(small));
  EXPECT_FALSE(static_cast<bool>(small));
  moved();
  EXPECT_EQ(x, 2);
}

TEST(Simulator, RunUntilStopsOnTimeAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10_ns, [&] { ++fired; });
  sim.schedule_at(30_ns, [&] { ++fired; });
  sim.run_until(20_ns);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20_ns);
  sim.run_until(40_ns);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 40_ns);
}

TEST(Simulator, RunUntilExecutesEventAtBoundary) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(10_ns, [&] { fired = true; });
  sim.run_until(10_ns);
  EXPECT_TRUE(fired);
}

TEST(Simulator, StepOneAtATime) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1_ns, [&] { ++fired; });
  sim.schedule_at(2_ns, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_in(1_ns, recurse);
  };
  sim.schedule_in(1_ns, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.events_executed(), 100u);
}

TEST(Simulator, ForkRngDeterministicAcrossRuns) {
  Simulator a(77), b(77);
  Rng ra = a.fork_rng(1), rb = b.fork_rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ra(), rb());
}

TEST(PeriodicProcess, FiresAtPeriod) {
  Simulator sim;
  std::vector<fs_t> times;
  PeriodicProcess p(sim, 10_ns, [&] { times.push_back(sim.now()); });
  p.start();
  sim.run_until(35_ns);
  EXPECT_EQ(times, (std::vector<fs_t>{10_ns, 20_ns, 30_ns}));
}

TEST(PeriodicProcess, StartWithPhase) {
  Simulator sim;
  std::vector<fs_t> times;
  PeriodicProcess p(sim, 10_ns, [&] { times.push_back(sim.now()); });
  p.start_with_phase(3_ns);
  sim.run_until(25_ns);
  EXPECT_EQ(times, (std::vector<fs_t>{3_ns, 13_ns, 23_ns}));
}

TEST(PeriodicProcess, StopFromInsideCallback) {
  Simulator sim;
  int count = 0;
  PeriodicProcess p(sim, 1_ns, [&] {
    if (++count == 3) p.stop();
  });
  p.start();
  sim.run_until(100_ns);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(p.running());
}

// Regression: stop() inside the callback used to cancel the id of the
// *currently firing* event, corrupting the engine's pending accounting.
// The in-flight handle is now cleared before the callback runs.
TEST(PeriodicProcess, StopFromCallbackLeavesExactPendingCount) {
  Simulator sim;
  int count = 0;
  PeriodicProcess p(sim, 1_ns, [&] {
    ++count;
    p.stop();
  });
  p.start();
  sim.run_until(100_ns);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.stats().cancelled, 0u);  // the no-op stop recorded nothing
}

TEST(PeriodicProcess, StopThenRestartInsideCallbackDoesNotDoubleArm) {
  Simulator sim;
  std::vector<fs_t> times;
  PeriodicProcess p(sim, 10_ns, [&] {
    times.push_back(sim.now());
    if (times.size() == 1) {
      p.stop();
      p.start_with_phase(5_ns);  // re-arm with a new phase from inside fn
    }
  });
  p.start();
  sim.run_until(40_ns);
  EXPECT_EQ(times, (std::vector<fs_t>{10_ns, 15_ns, 25_ns, 35_ns}));
}

TEST(PeriodicProcess, SetPeriodTakesEffectNextCycle) {
  Simulator sim;
  std::vector<fs_t> times;
  PeriodicProcess p(sim, 10_ns, [&] {
    times.push_back(sim.now());
    p.set_period(20_ns);
  });
  p.start();
  sim.run_until(60_ns);
  EXPECT_EQ(times, (std::vector<fs_t>{10_ns, 30_ns, 50_ns}));
}

TEST(PeriodicProcess, InvalidArgsThrow) {
  Simulator sim;
  EXPECT_THROW(PeriodicProcess(sim, 0, [] {}), std::invalid_argument);
  EXPECT_THROW(PeriodicProcess(sim, 1_ns, nullptr), std::invalid_argument);
}

TEST(PeriodicProcess, StopThenRestart) {
  Simulator sim;
  int count = 0;
  PeriodicProcess p(sim, 10_ns, [&] { ++count; });
  p.start();
  sim.run_until(25_ns);
  EXPECT_EQ(count, 2);
  p.stop();
  sim.run_until(50_ns);
  EXPECT_EQ(count, 2);
  p.start();
  sim.run_until(65_ns);
  EXPECT_EQ(count, 3);
}

/// Differential oracle for the event engine. Random schedule / deliver /
/// cancel / purge / step / run_until sequences run against a std::set of
/// (time, class, subkey) keys — the firing order event_queue.hpp promises:
/// global events, then node events, each in scheduling order, then link
/// deliveries by link key. Node events and link deliveries are sometimes
/// armed as bridged steps, which wait in the second heap but take the same
/// keys, handles and purges. In serial mode every fire must pop the
/// reference's front; cancel(), pending(), events_pending() and the stats
/// counters must agree with the reference after every operation.
class EngineOracle {
 public:
  static constexpr int kNodes = 4;

  explicit EngineOracle(std::uint64_t seed) : rng_(seed) {}

  Simulator& sim() { return sim_; }
  std::size_t reference_size() const { return ref_.size(); }

  /// Schedule under `node`'s affinity (-1 = global). Actions run when the
  /// event fires (serial mode only): 1 cancels the event's own handle, 2
  /// schedules a follow-up at the same instant, 3 cancels a random event.
  int schedule(fs_t t, int node, int action) {
    const int id = static_cast<int>(evs_.size());
    evs_.push_back(Ev{Key{t, node >= 0 ? 1 : 0, next_seq_++, id}, node, action,
                      nullptr, EventHandle()});
    ScopedAffinity aff(node);
    const EventHandle h = sim_.schedule_at(t, [this, id] { on_fire(id); });
    evs_[static_cast<std::size_t>(id)].h = h;
    added(id);
    return id;
  }

  /// A bridged step on `node` (>= 0): the same node-class key as schedule.
  int bridge(fs_t t, int node, int action) {
    const int id = static_cast<int>(evs_.size());
    evs_.push_back(Ev{Key{t, 1, next_seq_++, id}, node, action, nullptr, EventHandle()});
    const EventHandle h =
        sim_.bridge_schedule(node, t, [this, id] { on_fire(id); }, EventCategory::kGeneric,
                             EventQueue::BridgeKind::kApply, nullptr);
    evs_[static_cast<std::size_t>(id)].h = h;
    added(id);
    return id;
  }

  /// A link delivery to `dst`, tagged with `owner` for purge_deliveries;
  /// armed as a bridged arrival step when `bridged`.
  int deliver(fs_t t, int dst, const void* owner, bool bridged) {
    const int id = static_cast<int>(evs_.size());
    const std::uint64_t sub = next_link_++;
    evs_.push_back(Ev{Key{t, 2, sub, id}, dst, 0, owner, EventHandle()});
    const auto fire = [this, id] { on_fire(id); };
    const EventHandle h =
        bridged ? sim_.bridge_deliver_link(dst, t, fire, EventCategory::kFrame, owner, sub)
                : sim_.deliver_link(dst, dst, t, fire, EventCategory::kFrame, owner, sub);
    EXPECT_TRUE(h.valid()) << "coordinator deliveries are inserted directly";
    evs_[static_cast<std::size_t>(id)].h = h;
    added(id);
    return id;
  }

  /// Whether random_op may arm bridged steps; off while a queue that is
  /// about to be sharded must hold none (set_threads refuses them).
  void allow_bridge(bool on) { allow_bridge_ = on; }

  void cancel(int id) {
    const Ev& e = evs_[static_cast<std::size_t>(id)];
    const bool expected = ref_.count(e.key) != 0;
    EXPECT_EQ(sim_.cancel(e.h), expected) << "event " << id;
    if (expected) {
      ref_.erase(e.key);
      ++cancelled_;
    }
  }

  void check_pending(int id) {
    const Ev& e = evs_[static_cast<std::size_t>(id)];
    EXPECT_EQ(sim_.pending(e.h), ref_.count(e.key) != 0) << "event " << id;
  }

  void purge(const void* owner) {
    std::size_t expected = 0;
    for (auto it = ref_.begin(); it != ref_.end();) {
      if (evs_[static_cast<std::size_t>(it->id)].owner == owner) {
        it = ref_.erase(it);
        ++expected;
      } else {
        ++it;
      }
    }
    EXPECT_EQ(sim_.purge_deliveries(owner), expected);
    cancelled_ += expected;
  }

  void run_until(fs_t t) {
    if (!sim_.parallel()) {
      sim_.run_until(t);
    } else {
      // Workers record per node; the reference is popped afterwards. Each
      // node's events run on one shard, in that shard's key order.
      while (!ref_.empty() && ref_.begin()->t <= t) {
        const Ev& e = evs_[static_cast<std::size_t>(ref_.begin()->id)];
        expected_by_node_[static_cast<std::size_t>(e.node + 1)].push_back(e.key.id);
        ref_.erase(ref_.begin());
      }
      sim_.run_until(t);
      for (int n = 0; n <= kNodes; ++n)
        EXPECT_EQ(fired_by_node_[static_cast<std::size_t>(n)],
                  expected_by_node_[static_cast<std::size_t>(n)])
            << "node " << n - 1;
    }
    EXPECT_EQ(sim_.now(), t);
    EXPECT_TRUE(ref_.empty() || ref_.begin()->t > t);
  }

  void step() { EXPECT_EQ(sim_.step(), !ref_.empty()); }

  void check_counts() {
    EXPECT_EQ(sim_.events_pending(), ref_.size());
    const SimStats st = sim_.stats();
    EXPECT_EQ(st.pending, ref_.size());
    EXPECT_EQ(st.scheduled, evs_.size());
    EXPECT_EQ(st.cancelled, cancelled_);
    if (!sim_.parallel()) {
      EXPECT_EQ(st.peak_pending, peak_);
    }
  }

  /// One random operation; `spread` bounds how far ahead events land.
  void random_op(fs_t spread) {
    const fs_t now = sim_.now();
    const auto pick = [this] {
      return static_cast<int>(rng_.uniform(evs_.size()));
    };
    const std::uint64_t op = rng_.uniform(100);
    const bool serial = !sim_.parallel();
    if (op < 35) {
      // Zero offsets exercise same-instant scheduling.
      const fs_t dt = rng_.bernoulli(0.2) ? 0 : rng_.uniform_range(1, spread);
      const int node = static_cast<int>(rng_.uniform(kNodes + 1)) - 1;
      const int action = serial ? static_cast<int>(rng_.uniform(4)) : 0;
      if (allow_bridge_ && node >= 0 && rng_.bernoulli(0.4)) {
        bridge(now + dt, node, action);
      } else {
        schedule(now + dt, node, action);
      }
    } else if (op < 45) {
      deliver(now + rng_.uniform_range(0, spread), static_cast<int>(rng_.uniform(kNodes)),
              &owners_[rng_.uniform(2)], allow_bridge_ && rng_.bernoulli(0.4));
    } else if (op < 65) {
      if (!evs_.empty()) cancel(pick());
    } else if (op < 68) {
      purge(&owners_[rng_.uniform(2)]);
    } else if (op < 78) {
      if (!evs_.empty()) check_pending(pick());
    } else if (op < 93 || !serial) {
      run_until(now + rng_.uniform_range(0, spread / 2));
    } else {
      step();
    }
    check_counts();
  }

  void set_up_graph() {
    for (int n = 0; n < kNodes; ++n) sim_.register_node();
    // Two tight pairs joined by one long cable: a 2-way split cuts only it.
    sim_.register_edge(0, 1, from_ns(10));
    sim_.register_edge(2, 3, from_ns(10));
    sim_.register_edge(1, 2, from_us(1));
  }

 private:
  struct Key {
    fs_t t;
    int cls;
    std::uint64_t sub;
    int id;
    auto operator<=>(const Key&) const = default;
  };
  struct Ev {
    Key key;
    int node;
    int action;
    const void* owner;
    EventHandle h;
  };

  void added(int id) {
    ref_.insert(evs_[static_cast<std::size_t>(id)].key);
    peak_ = std::max(peak_, ref_.size());
  }

  void on_fire(int id) {
    const Ev& e = evs_[static_cast<std::size_t>(id)];
    if (sim_.parallel()) {
      fired_by_node_[static_cast<std::size_t>(e.node + 1)].push_back(id);
      return;
    }
    EXPECT_EQ(sim_.now(), e.key.t);
    if (ref_.empty() || ref_.begin()->id != id) {
      ADD_FAILURE() << "event " << id << " fired out of order";
      ref_.erase(e.key);
    } else {
      ref_.erase(ref_.begin());
    }
    EXPECT_FALSE(sim_.pending(e.h)) << "a firing event is no longer pending";
    switch (e.action) {
      case 1:
        EXPECT_FALSE(sim_.cancel(e.h)) << "cancelling the firing event is a no-op";
        break;
      case 2:
        schedule(sim_.now(), e.node, 0);
        break;
      case 3:
        cancel(static_cast<int>(rng_.uniform(evs_.size())));
        break;
      default:
        break;
    }
  }

  Simulator sim_{7};
  Rng rng_;
  std::vector<Ev> evs_;
  std::set<Key> ref_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_link_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t peak_ = 0;
  std::array<char, 2> owners_{};
  bool allow_bridge_ = true;
  std::array<std::vector<int>, kNodes + 1> fired_by_node_{};
  std::array<std::vector<int>, kNodes + 1> expected_by_node_{};
};

TEST(EngineOracle, RandomSerialSequencesMatchReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    EngineOracle o(seed);
    for (int i = 0; i < 4000 && !::testing::Test::HasFailure(); ++i)
      o.random_op(from_ns(200));
    o.sim().run();
    EXPECT_EQ(o.reference_size(), 0u) << "seed " << seed;
    o.check_counts();
  }
}

TEST(EngineOracle, MassCancelCompactsWithoutChangingOrder) {
  // Far-future events cancelled in bulk go stale faster than they surface,
  // so the heap is rebuilt from its live entries; order must not change.
  EngineOracle o(11);
  Rng pick(5);
  for (int round = 0; round < 3; ++round) {
    const fs_t base = o.sim().now() + from_us(5);
    std::vector<int> ids;
    for (int i = 0; i < 400; ++i)
      ids.push_back(o.schedule(base + static_cast<fs_t>(pick.uniform(1000)) * from_ns(1),
                               static_cast<int>(pick.uniform(5)) - 1,
                               static_cast<int>(pick.uniform(4))));
    for (int i = 0; i < 400; ++i)
      if (pick.bernoulli(0.85)) o.cancel(ids[static_cast<std::size_t>(i)]);
    o.check_counts();
    for (int i = 0; i < 300; ++i) o.random_op(from_us(2));
  }
  o.sim().run();
  EXPECT_EQ(o.reference_size(), 0u);
  o.check_counts();
}

TEST(EngineOracle, ShardedRunFollowsReferencePerNode) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    EngineOracle o(seed);
    o.set_up_graph();
    // Setup-time events (same-instant ones included), some cancelled, some
    // left stale by a cancel, before the queue is sharded. Bridged steps
    // join once the shards exist.
    o.allow_bridge(false);
    for (int i = 0; i < 500; ++i) o.random_op(from_ns(400));
    // Node events at the current instant are pending when the queue is
    // sharded; one of them cancelled, so a stale entry is there too.
    const fs_t now = o.sim().now();
    std::vector<int> same_instant;
    for (int i = 0; i < 8; ++i)
      same_instant.push_back(o.schedule(now, i % EngineOracle::kNodes, 0));
    o.cancel(same_instant[3]);
    o.sim().set_threads(2);
    ASSERT_EQ(o.sim().shard_count(), 2);
    o.check_counts();
    o.allow_bridge(true);
    for (int i = 0; i < 1500 && !::testing::Test::HasFailure(); ++i)
      o.random_op(from_ns(400));
    o.run_until(o.sim().now() + from_us(10));
    EXPECT_EQ(o.reference_size(), 0u) << "seed " << seed;
    o.check_counts();
  }
}

}  // namespace
}  // namespace dtpsim::sim
