#pragma once

/// \file spec.hpp
/// Randomized stress-campaign specifications (DESIGN.md §10).
///
/// A `StressSpec` is a fully self-contained description of one campaign:
/// simulator seed, topology shape, oscillator population, traffic mix,
/// thread count, fault schedule (name-based `chaos::FaultDescriptor`s), and
/// sentinel overrides. `generate(seed, index)` samples one from a master
/// seed; `to_text`/`spec_from_text` round-trip it through the repro-file
/// format that `dtpsim --repro=<file>` replays; and the shrinker mutates it
/// toward a minimal failing case. Everything the run does is a pure
/// function of the spec — that is the determinism the fuzzer sells.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chaos/serialize.hpp"
#include "common/time_units.hpp"

namespace dtpsim::stress {

enum class TopoKind : std::uint8_t { kChain, kPaperTree, kRandomTree, kFatTree };

const char* topo_name(TopoKind kind);
TopoKind topo_from_name(const std::string& name);

/// A named chaos campaign (chaos/campaign.hpp) a spec runs; see
/// StressSpec::preset.
enum class Preset : std::uint8_t { kNone, kCanonical, kGray, kSource };

struct StressSpec {
  std::uint64_t sim_seed = 1;

  // --- Topology --------------------------------------------------------------
  TopoKind topo = TopoKind::kPaperTree;
  std::uint32_t chain_switches = 2;    ///< kChain
  std::uint32_t tree_switches = 4;     ///< kRandomTree
  std::uint32_t tree_hosts = 4;        ///< kRandomTree
  std::uint64_t shape_seed = 0;        ///< kRandomTree
  std::uint32_t fat_k = 4;             ///< kFatTree
  std::uint32_t fat_hosts_per_edge = 1;

  // --- Oscillators / links / protocol ---------------------------------------
  std::uint32_t beacon_interval_ticks = 200;
  double ppm_spread = 100.0;
  bool enable_drift = false;
  fs_t propagation_delay = from_us(1);

  // --- Traffic ---------------------------------------------------------------
  std::uint32_t n_flows = 2;
  std::uint32_t frame_bytes = 1522;
  bool saturate = false;       ///< false => rate_gbps poisson flows
  double rate_gbps = 2.0;

  // --- Execution -------------------------------------------------------------
  std::uint32_t threads = 1;   ///< 1 = serial; 2/4 = parallel conservative
  /// Engine: true = the fused production engine (EngineMode::kBridged),
  /// false = the cycle-exact reference (kExact). Text: engine=bridged|exact.
  bool bridged = false;
  fs_t settle = from_ms(3);    ///< convergence time before faults may land
  fs_t horizon = from_ms(5);   ///< absolute end of the run

  // --- Multi-source time hierarchy (DESIGN.md §13) ---------------------------
  /// When set, the campaign runs a TimeHierarchy on top of DTP: a stratum-1
  /// GPS source on the first host, a stratum-2 upstream-island source on the
  /// last, and a HierarchyClient on every host in between. Requires a
  /// topology with at least three hosts; `run_campaign` rejects the spec
  /// otherwise. Source-level faults (gps_loss, stratum_flap, ...) in the
  /// schedule below are only valid when this is on.
  bool hier = false;
  fs_t hier_holdover_ceiling = 0;  ///< 0 = HierarchyParams default

  // --- Gray-failure tier (DESIGN.md §15) -------------------------------------
  /// When set, the campaign arms a per-port `HealthWatchdog` with default
  /// parameters on top of DTP and folds its ladder counters into the run
  /// digest, so the serial-vs-parallel differential covers detection and
  /// remediation too. Gray fault classes (asymmetric_delay, limping_port,
  /// silent_corruption, frozen_counter) are only generated when this is on;
  /// without the watchdog they would degrade a port with nobody assigned to
  /// notice.
  bool gray = false;
  fs_t wd_check_period = 0;  ///< 0 = WatchdogParams default
  fs_t wd_backoff = 0;       ///< re-INIT backoff base; 0 = default

  // --- Named campaign --------------------------------------------------------
  /// Under a preset the rig runs the campaign's Fig. 5 tree, network, DTP and
  /// chaos parameters, load and hierarchy placement: the topology arguments,
  /// net and load fields are ignored and not serialized, and `hier`/`gray`
  /// must be set exactly for 'source'/'gray'.
  Preset preset = Preset::kNone;

  // --- Fault schedule --------------------------------------------------------
  std::vector<chaos::FaultDescriptor> faults;

  // --- Sentinel overrides (0 = defaults) ------------------------------------
  /// Deliberately tightened in the bug-surrogate tests to prove the
  /// capture -> replay -> shrink pipeline end to end.
  double offset_bound_ticks = 0;
  fs_t sample_period = 0;

  bool operator==(const StressSpec&) const = default;
};

/// Rough campaign cost metric the shrinker minimizes: faults dominate, then
/// device count, then horizon/threads/flows.
double spec_size(const StressSpec& spec);

/// Device count implied by the topology fields.
std::size_t spec_device_count(const StressSpec& spec);

/// Serialize to the versioned repro-file text ("dtpsim-stress-repro v1").
std::string to_text(const StressSpec& spec);

/// Strict parse; throws std::invalid_argument on any malformed input.
StressSpec spec_from_text(const std::string& text);

/// Sampling envelope for `generate`. The defaults keep tier-1 batches small
/// and exclude fault classes that need special protocol configuration
/// (rogue oscillators want the jump detector; PCIe storms want daemons).
struct StressLimits {
  std::uint32_t max_faults = 3;
  std::uint32_t max_flows = 4;
  std::uint32_t max_tree_switches = 8;
  bool allow_parallel = true;
  bool allow_bridged = true;
  bool allow_hier = true;
  bool allow_gray = true;
};

/// Host (traffic endpoint) count implied by the topology fields — the
/// number of entries `run_campaign`'s topology builder will return.
std::size_t spec_host_count(const StressSpec& spec);

/// The hosts the rig puts the two time sources on when a generic spec sets
/// `hier`: {first host, last host} of the builder's host list, by name.
std::pair<std::string, std::string> hier_server_hosts(const StressSpec& spec);

/// Deterministically sample campaign `index` of master seed `seed`.
StressSpec generate(std::uint64_t seed, std::uint32_t index,
                    const StressLimits& limits = {});

/// The `dtpsim --chaos=<name>` plans as specs: the "canonical", "gray" and
/// "source" campaigns, and "flap", "storm", "crash", "ber" and "rogue", the
/// canonical campaign's fault of that class alone at the settle time.
/// Named specs run the production engine (`bridged`). Throws
/// std::invalid_argument for any other name.
StressSpec named_spec(const std::string& name, std::uint64_t seed);

/// Throws std::invalid_argument if a preset spec departs from its preset's
/// topology, hier or gray setting (see StressSpec::preset).
void check_preset(const StressSpec& spec);

/// When a fault's last injected perturbation ends (storms: the final flap).
fs_t fault_end(const chaos::FaultDescriptor& f);

/// Reconvergence time granted after a fault ends before the offset monitor
/// re-arms (crash/port-fail need INIT restart; link faults resync faster).
fs_t recovery_margin(chaos::FaultKind kind);

}  // namespace dtpsim::stress
