#pragma once

/// \file runner.hpp
/// Campaign execution: StressSpec -> live simulation -> sentinel verdict.
///
/// `stress::Campaign` is the single rig behind the fuzzer, the shrinker,
/// `dtpsim --repro` and `--chaos`, and the chaos-campaign benches and tests,
/// so a violation found anywhere replays identically everywhere.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/engine.hpp"
#include "check/sentinel.hpp"
#include "dtp/hierarchy.hpp"
#include "dtp/watchdog.hpp"
#include "obs/session.hpp"
#include "stress/spec.hpp"

namespace dtpsim::stress {

/// Everything a campaign produced. `spec` is echoed back so batch drivers
/// can write a repro without tracking indices.
struct CampaignResult {
  StressSpec spec;
  std::vector<check::Violation> violations;
  check::RunDigest digest;
  check::SentinelStats sentinel_stats;
  double offset_bound_ticks = 0;
  std::size_t diameter_hops = 0;
  std::uint64_t events_executed = 0;
  std::int32_t shards = 1;

  bool clean() const { return violations.empty(); }
};

/// The sentinel blackout windows the rig grants `spec`: per fault, from two
/// samples before injection to `recovery_margin` past its end; under the
/// gray and source presets, the campaign's own windows
/// (GrayCampaign::blackouts, SourceCampaign::island_blackout) in which a
/// fault is injected.
std::vector<std::pair<fs_t, fs_t>> blackout_windows(const StressSpec& spec);

/// One campaign rig, built from a spec in a fixed order: simulator ->
/// network -> DTP -> load -> hierarchy -> observability -> chaos engine (plan
/// scheduled) -> watchdog -> sentinel. Callers may add what they measure
/// (a daemon, a probe, an extra fault) between construction and `run()`.
class Campaign {
 public:
  /// Throws std::invalid_argument if the spec is internally inconsistent
  /// (e.g. a fault names a device the topology does not build) — the
  /// shrinker treats that as "candidate invalid", not as a failure. An
  /// obs::Session is attached when `obs` names a trace or metrics path.
  explicit Campaign(const StressSpec& spec, const obs::SessionConfig* obs = nullptr);

  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  const StressSpec& spec() const { return spec_; }
  sim::Simulator& sim() { return sim_; }
  net::Network& net() { return *net_; }
  dtp::DtpNetwork& dtp() { return dtp_; }
  /// The Fig. 5 tree; empty for other topologies.
  const net::PaperTreeTopology& paper_tree() const { return tree_; }
  dtp::TimeHierarchy& hierarchy() { return hierarchy_; }
  dtp::HealthWatchdog* watchdog() { return watchdog_.get(); }  ///< null unless gray
  chaos::ChaosEngine& engine() { return *engine_; }
  check::Sentinel& sentinel() { return *sentinel_; }

  /// Engage `spec.threads` workers, run to the horizon, write any
  /// observability files, and summarize. Call once. Deterministic: same
  /// spec -> same result, at any thread count. Throws std::runtime_error if
  /// an observability file cannot be written.
  CampaignResult run();

 private:
  StressSpec spec_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> net_;
  net::PaperTreeTopology tree_;
  dtp::DtpNetwork dtp_;
  dtp::TimeHierarchy hierarchy_;
  std::unique_ptr<obs::Session> session_;
  std::unique_ptr<chaos::ChaosEngine> engine_;
  std::unique_ptr<dtp::HealthWatchdog> watchdog_;
  std::unique_ptr<check::Sentinel> sentinel_;
};

/// `Campaign(spec, obs).run()`.
CampaignResult run_campaign(const StressSpec& spec, const obs::SessionConfig* obs = nullptr);

/// Run the spec serially and with `spec.threads` workers and compare
/// sentinel digests. On mismatch the returned (parallel) result gains a
/// kDigestMismatch violation. Specs with threads <= 1 are run once.
CampaignResult run_differential(const StressSpec& spec);

/// Fixed-seed batch: generate + run campaigns [0, count). Clean results are
/// summarized, failing ones returned whole (so the driver can write repros).
struct BatchOutcome {
  std::uint32_t campaigns = 0;
  std::uint64_t events_executed = 0;
  std::vector<CampaignResult> failures;

  bool clean() const { return failures.empty(); }
};

/// `differential` additionally replays every multi-threaded spec serially
/// and digest-compares the two runs.
BatchOutcome run_batch(std::uint64_t seed, std::uint32_t count,
                       const StressLimits& limits = {}, bool differential = false);

// --- Repro files -----------------------------------------------------------

/// Write `to_text(spec)` to `path` (throws std::runtime_error on I/O error).
void write_repro(const StressSpec& spec, const std::string& path);

/// Read + strictly parse a repro file (throws on I/O or parse errors).
StressSpec load_repro(const std::string& path);

/// load_repro + run_campaign — the exact `dtpsim --repro=<file>` semantics.
CampaignResult replay(const std::string& path);

}  // namespace dtpsim::stress
