// Tier-1 coverage for the stress fuzzer: spec round-trips, a small
// fixed-seed campaign batch that must run violation-free, campaign
// determinism, and the full bug-to-repro pipeline exercised end to end
// against a surrogate bug (a deliberately impossible offset bound).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "chaos/campaign.hpp"
#include "stress/runner.hpp"
#include "stress/shrink.hpp"
#include "stress/spec.hpp"

using namespace dtpsim;

namespace {

constexpr std::uint64_t kBatchSeed = 20260806;

constexpr const char* kNamedCampaigns[] = {"canonical", "gray", "source", "flap",
                                           "storm",     "crash", "ber",   "rogue"};

/// Small, known-converging campaign used by the targeted tests.
stress::StressSpec base_spec() {
  stress::StressSpec s;
  s.sim_seed = 4242;
  s.topo = stress::TopoKind::kPaperTree;
  s.beacon_interval_ticks = 200;
  s.ppm_spread = 50.0;
  s.enable_drift = false;
  s.propagation_delay = from_us(1);
  s.n_flows = 2;
  s.frame_bytes = 1522;
  s.saturate = false;
  s.rate_gbps = 2.0;
  s.threads = 1;
  s.settle = from_ms(3);
  s.horizon = from_ms(4);
  return s;
}

std::string violations_to_string(const stress::CampaignResult& r) {
  std::string out = "spec:\n" + stress::to_text(r.spec) + "violations:\n";
  for (const auto& v : r.violations) out += "  " + v.to_string() + "\n";
  return out;
}

}  // namespace

TEST(StressSpec, GeneratedSpecsRoundTripThroughText) {
  for (std::uint32_t i = 0; i < 12; ++i) {
    const stress::StressSpec s = stress::generate(kBatchSeed, i);
    SCOPED_TRACE("campaign " + std::to_string(i));
    EXPECT_EQ(s, stress::spec_from_text(stress::to_text(s)));
  }
}

TEST(StressSpec, GenerationIsDeterministicAndDiverse) {
  bool saw_faults = false, saw_parallel = false;
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(stress::generate(kBatchSeed, i), stress::generate(kBatchSeed, i));
    const stress::StressSpec s = stress::generate(kBatchSeed, i);
    saw_faults |= !s.faults.empty();
    saw_parallel |= s.threads > 1;
    EXPECT_GT(s.horizon, s.settle);
  }
  EXPECT_TRUE(saw_faults);
  EXPECT_TRUE(saw_parallel);
}

TEST(StressSpec, HierarchySectionRoundTripsAndValidates) {
  stress::StressSpec s = base_spec();
  s.hier = true;
  s.hier_holdover_ceiling = from_us(3);
  EXPECT_EQ(s, stress::spec_from_text(stress::to_text(s)));
  // Hierarchy-free specs keep the pre-hierarchy byte format.
  EXPECT_EQ(stress::to_text(base_spec()).find("hier "), std::string::npos);
  // A chain has only two hosts — no room for a client between the sources.
  stress::StressSpec chain = base_spec();
  chain.topo = stress::TopoKind::kChain;
  chain.hier = true;
  EXPECT_THROW(stress::spec_from_text(stress::to_text(chain)),
               std::invalid_argument);
}

TEST(StressSpec, GraySectionRoundTripsAndStaysOptional) {
  stress::StressSpec s = base_spec();
  s.gray = true;
  EXPECT_EQ(s, stress::spec_from_text(stress::to_text(s)));
  EXPECT_NE(stress::to_text(s).find("gray "), std::string::npos);
  // Gray-free specs keep the pre-gray byte format: old repro files replay
  // byte-identically through a round trip.
  EXPECT_EQ(stress::to_text(base_spec()).find("gray "), std::string::npos);
}

TEST(StressSpec, NamedSpecsRoundTripThroughText) {
  for (const char* name : kNamedCampaigns) {
    SCOPED_TRACE(name);
    const stress::StressSpec s = stress::named_spec(name, 5);
    EXPECT_NE(s.preset, stress::Preset::kNone);
    EXPECT_FALSE(s.faults.empty());
    EXPECT_EQ(s, stress::spec_from_text(stress::to_text(s)));
  }
  // The watchdog knobs ride in their own optional section.
  stress::StressSpec gray = stress::named_spec("gray", 5);
  gray.wd_check_period = from_us(40);
  gray.wd_backoff = from_us(300);
  EXPECT_NE(stress::to_text(gray).find("watchdog "), std::string::npos);
  EXPECT_EQ(gray, stress::spec_from_text(stress::to_text(gray)));
  EXPECT_THROW(stress::named_spec("bogus", 5), std::invalid_argument);
}

TEST(StressSpec, SingleFaultPlansAreTheCanonicalFaultAtSettle) {
  const stress::StressSpec canonical = stress::named_spec("canonical", 1);
  const std::pair<const char*, chaos::FaultKind> plans[] = {
      {"flap", chaos::FaultKind::kLinkFlap},     {"storm", chaos::FaultKind::kFlapStorm},
      {"crash", chaos::FaultKind::kNodeCrash},   {"ber", chaos::FaultKind::kBerBurst},
      {"rogue", chaos::FaultKind::kRogueOscillator},
  };
  for (const auto& [name, kind] : plans) {
    SCOPED_TRACE(name);
    const stress::StressSpec s = stress::named_spec(name, 1);
    ASSERT_EQ(s.faults.size(), 1u);
    chaos::FaultDescriptor expected;
    for (const auto& f : canonical.faults)
      if (f.kind == kind) expected = f;
    expected.at = s.settle;
    EXPECT_EQ(s.faults[0], expected);
    EXPECT_EQ(s.preset, stress::Preset::kCanonical);
  }
}

TEST(StressSpec, PreExistingReproTextIsByteStable) {
  // Written before presets and watchdog knobs existed (generate(kBatchSeed,
  // 28): hier + gray + bridged).
  const std::string text =
      "dtpsim-stress-repro v1\n"
      "campaign seed=4369031522016202524 topo=paper_tree\n"
      "topo_args chain=2 tree_sw=4 tree_hosts=4 shape=0 fat_k=4 fat_hpe=1\n"
      "net beacon=800 ppm=22.31215784081575 drift=1 prop=1045000000\n"
      "load flows=2 bytes=512 saturate=0 gbps=2.1764238421053546\n"
      "run threads=1 settle=3000000000000 horizon=4982559000000 engine=bridged\n"
      "sentinel bound=0 sample=0\n"
      "hier enabled=1 ceiling=0\n"
      "gray enabled=1\n"
      "fault kind=ber_burst a=S0 b=S2 at=3213982000000 dur=78000000000 count=1 "
      "period=0 mag=2.9893478812303998e-05\n"
      "fault kind=ber_burst a=S0 b=S3 at=3669559000000 dur=93000000000 count=1 "
      "period=0 mag=2.2928368428733849e-05\n"
      "end\n";
  const stress::StressSpec s = stress::spec_from_text(text);
  EXPECT_EQ(s.preset, stress::Preset::kNone);
  EXPECT_EQ(s, stress::generate(kBatchSeed, 28));
  EXPECT_EQ(stress::to_text(s), text);
}

TEST(StressSpec, PresetOwnedFieldsAreRejected) {
  const std::string good = stress::to_text(stress::named_spec("canonical", 1));
  // The preset owns the topology, net and load: none of them is written.
  for (const char* owned : {"topo_args ", "net ", "load "})
    EXPECT_EQ(good.find(std::string("\n") + owned), std::string::npos) << owned;
  auto with = [&good](const std::string& from, const std::string& to) {
    std::string text = good;
    const auto at = text.rfind(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  };
  EXPECT_NO_THROW(stress::spec_from_text(good));
  EXPECT_THROW(stress::spec_from_text(
                   with("run ", "load flows=2 bytes=1522 saturate=0 gbps=2\nrun ")),
               std::invalid_argument);
  EXPECT_THROW(stress::spec_from_text(with("topo=paper_tree", "topo=chain")),
               std::invalid_argument);
  EXPECT_THROW(stress::spec_from_text(with("end\n", "gray enabled=1\nend\n")),
               std::invalid_argument);
  // The engine, like the seed, threads and horizon, stays free.
  EXPECT_NO_THROW(stress::spec_from_text(with("engine=exact", "engine=bridged")));
  // The rig enforces the same rule on specs that never went through text.
  stress::StressSpec s = stress::named_spec("source", 1);
  s.hier = false;
  EXPECT_THROW(stress::Campaign{s}, std::invalid_argument);
  // Watchdog knobs need the watchdog.
  stress::StressSpec plain = base_spec();
  plain.wd_backoff = from_us(100);
  EXPECT_THROW(stress::spec_from_text(stress::to_text(plain)), std::invalid_argument);
}

TEST(StressSpec, BlackoutWindowsFollowThePreset) {
  const stress::StressSpec gray = stress::named_spec("gray", 1);
  EXPECT_EQ(stress::blackout_windows(gray), chaos::GrayCampaign::blackouts(gray.settle));

  // One window, over the island partition; none for the source-level faults.
  const stress::StressSpec source = stress::named_spec("source", 1);
  const std::vector<std::pair<fs_t, fs_t>> island = {
      chaos::SourceCampaign::island_blackout(source.settle)};
  EXPECT_EQ(stress::blackout_windows(source), island);

  // Without faults a preset grants no window (the gray bench's control run).
  stress::StressSpec quiet = gray;
  quiet.faults.clear();
  EXPECT_TRUE(stress::blackout_windows(quiet).empty());

  // Canonical and generic specs: [at - 2 samples, fault end + recovery margin).
  stress::StressSpec generic = base_spec();
  generic.faults = stress::named_spec("storm", 1).faults;
  for (const stress::StressSpec& s : {stress::named_spec("canonical", 1), generic}) {
    const auto windows = stress::blackout_windows(s);
    ASSERT_EQ(windows.size(), s.faults.size());
    const fs_t sample = check::SentinelParams{}.sample_period;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const chaos::FaultDescriptor& f = s.faults[i];
      EXPECT_EQ(windows[i].first, f.at - 2 * sample);
      EXPECT_EQ(windows[i].second, stress::fault_end(f) + stress::recovery_margin(f.kind));
    }
  }
}

TEST(StressSpec, MalformedReproTextRejected) {
  const stress::StressSpec s = base_spec();
  const std::string good = stress::to_text(s);

  EXPECT_THROW(stress::spec_from_text("dtpsim-stress-repro v2\nend\n"),
               std::invalid_argument);
  // Missing the 'end' footer.
  EXPECT_THROW(stress::spec_from_text(good.substr(0, good.size() - 4)),
               std::invalid_argument);
  // Unknown section.
  EXPECT_THROW(stress::spec_from_text("dtpsim-stress-repro v1\nwibble a=1\nend\n"),
               std::invalid_argument);
  // A required section missing entirely.
  std::string no_run;
  for (std::size_t at = 0, nl; at < good.size(); at = nl + 1) {
    nl = good.find('\n', at);
    const std::string line = good.substr(at, nl - at);
    if (line.rfind("run ", 0) != 0) no_run += line + "\n";
  }
  EXPECT_THROW(stress::spec_from_text(no_run), std::invalid_argument);
}

TEST(StressRunner, FixedSeedBatchRunsClean) {
  stress::StressLimits limits;
  limits.max_faults = 2;
  const stress::BatchOutcome out = stress::run_batch(kBatchSeed, 4, limits);
  EXPECT_EQ(out.campaigns, 4u);
  EXPECT_GT(out.events_executed, 0u);
  for (const auto& f : out.failures) ADD_FAILURE() << violations_to_string(f);
}

// Pins the rig's construction order: a reordered build (traffic before DTP,
// sentinel before the chaos engine, ...) shifts event sequence numbers and
// with them the digests below. Together the specs cover every topology
// kind, the hierarchy, the watchdog, the bridged engine and 2/4 threads.
TEST(StressRunner, GeneratedSpecDigestsArePinned) {
  const std::pair<std::uint32_t, const char*> pinned[] = {
      {1, "c25d40642078c75d"},   // paper tree, 3 faults
      {3, "a79db96a01264b41"},   // random tree, 2 threads
      {5, "4e14ac7074976ba0"},   // paper tree, hier, 4 threads
      {8, "c2a7d19e68168a6d"},   // fat-tree, bridged
      {11, "0c0bdc0c6eb56e1d"},  // chain, 2 threads, bridged
      {13, "583986f99674793f"},  // random tree, gray, 4 threads
      {28, "58fbb4763204c5e3"},  // paper tree, hier + gray, bridged
      {37, "254ff7da55f29a81"},  // paper tree, hier, 2 threads
  };
  for (const auto& [index, digest] : pinned) {
    const stress::CampaignResult r = stress::run_campaign(stress::generate(kBatchSeed, index));
    EXPECT_TRUE(r.clean()) << violations_to_string(r);
    EXPECT_EQ(r.digest.hex(), digest) << "campaign " << index;
  }
}

TEST(StressRunner, CampaignIsDeterministic) {
  const stress::StressSpec s = base_spec();
  const stress::CampaignResult a = stress::run_campaign(s);
  const stress::CampaignResult b = stress::run_campaign(s);
  EXPECT_TRUE(a.clean()) << violations_to_string(a);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(StressRunner, SentinelMonitorsAreAllAlive) {
  const stress::CampaignResult r = stress::run_campaign(base_spec());
  EXPECT_TRUE(r.clean()) << violations_to_string(r);
  // Every monitor must have actually run — a silent no-op sentinel would
  // make the whole fuzzer vacuous.
  EXPECT_GT(r.sentinel_stats.samples, 0u);
  EXPECT_GT(r.sentinel_stats.monotonic_checks, 0u);
  EXPECT_GT(r.sentinel_stats.offset_checks, 0u);
  EXPECT_GT(r.sentinel_stats.overhead_checks, 0u);
  EXPECT_GT(r.sentinel_stats.wrap_checks, 0u);
  EXPECT_GT(r.sentinel_stats.tx_probe_checks, 0u);
  EXPECT_GT(r.sentinel_stats.fifo_probe_checks, 0u);
  // Paper tree: diameter 4 hops, default bound 4*D + 1.
  EXPECT_EQ(r.diameter_hops, 4u);
  EXPECT_DOUBLE_EQ(r.offset_bound_ticks, 17.0);
}

// The acceptance-path test: plant a surrogate bug (an offset bound no real
// network can hold), catch it, write a repro, replay it bit-exactly through
// the same code path `dtpsim --repro` uses, then shrink it and verify the
// minimized campaign still fails and is strictly smaller.
TEST(StressRepro, CaptureReplayShrinkEndToEnd) {
  stress::StressSpec s = base_spec();
  s.offset_bound_ticks = 1e-3;  // surrogate bug: impossible bound

  const stress::CampaignResult caught = stress::run_campaign(s);
  ASSERT_FALSE(caught.clean());
  ASSERT_EQ(caught.violations.front().kind, check::InvariantKind::kOffsetBound);

  const std::string path = testing::TempDir() + "dtpsim-repro-e2e.txt";
  stress::write_repro(caught.spec, path);
  EXPECT_EQ(stress::load_repro(path), s);

  // Replay goes through the identical load+run path as `dtpsim --repro`.
  const stress::CampaignResult replayed = stress::replay(path);
  ASSERT_EQ(replayed.violations.size(), caught.violations.size());
  for (std::size_t i = 0; i < caught.violations.size(); ++i) {
    EXPECT_EQ(replayed.violations[i].kind, caught.violations[i].kind);
    EXPECT_EQ(replayed.violations[i].at, caught.violations[i].at);
    EXPECT_EQ(replayed.violations[i].device, caught.violations[i].device);
    EXPECT_EQ(replayed.violations[i].observed, caught.violations[i].observed);
  }
  EXPECT_EQ(replayed.digest, caught.digest);

  const stress::ShrinkResult shrunk = stress::shrink(s, caught, /*max_runs=*/12);
  EXPECT_GE(shrunk.reductions, 1);
  EXPECT_LT(shrunk.minimal_size, shrunk.original_size);
  EXPECT_FALSE(shrunk.last_failure.clean());
  EXPECT_EQ(shrunk.last_failure.violations.front().kind,
            check::InvariantKind::kOffsetBound);
  // The minimal spec still round-trips, so the shrunken repro is writable.
  EXPECT_EQ(shrunk.minimal, stress::spec_from_text(stress::to_text(shrunk.minimal)));

  std::remove(path.c_str());
}

TEST(StressRepro, NamedSpecReplaysToTheDirectDigest) {
  const stress::StressSpec s = stress::named_spec("flap", 3);
  const stress::CampaignResult direct = stress::run_campaign(s);
  EXPECT_TRUE(direct.clean()) << violations_to_string(direct);

  const std::string path = testing::TempDir() + "dtpsim-repro-named.txt";
  stress::write_repro(s, path);
  const stress::CampaignResult replayed = stress::replay(path);
  EXPECT_EQ(replayed.spec, s);
  EXPECT_EQ(replayed.digest, direct.digest);
  EXPECT_EQ(replayed.events_executed, direct.events_executed);
  std::remove(path.c_str());
}

TEST(StressRepro, FaultScheduleSurvivesTheRoundTrip) {
  stress::StressLimits limits;
  limits.max_faults = 3;
  for (std::uint32_t i = 0; i < 24; ++i) {
    const stress::StressSpec s = stress::generate(kBatchSeed + 1, i, limits);
    if (s.faults.empty()) continue;
    const stress::StressSpec back = stress::spec_from_text(stress::to_text(s));
    ASSERT_EQ(back.faults.size(), s.faults.size());
    for (std::size_t f = 0; f < s.faults.size(); ++f) EXPECT_EQ(back.faults[f], s.faults[f]);
    return;  // one spec with faults is enough
  }
  FAIL() << "no generated spec had faults in 24 draws";
}
