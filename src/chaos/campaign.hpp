#pragma once

/// \file campaign.hpp
/// The named chaos campaigns on the paper's Fig. 5 tree. `stress::named_spec`
/// turns each into a preset spec that `stress::Campaign` runs for the CLI,
/// the benches and the tests; perfbench still wires them up by hand.
///
/// The canonical campaign: the fixed fault schedule that
/// `bench_fault_recovery` and `dtpsim --chaos=canonical` run under
/// MTU-saturated load.
///
/// One instance of every fault class, spaced so detector windows do not
/// overlap:
///
///   t0+0      link_flap    leaf0--S1 unplugged 50 us
///   t0+1ms    flap_storm   leaf1--S1, 6 flaps, one per 150 us, 60 us dark
///   t0+2.5ms  port_fail    S0--S2 trunk dark 250 us (partitions S2's subtree)
///   t0+4ms    ber_burst    leaf3--S2 at BER 1e-5 for 1.5 ms
///   t0+7ms    beacon_loss  leaf5--S3 drops half its control blocks for 1 ms
///   t0+9ms    node_crash   leaf4 powered off 400 us, then rejoins from zero
///   t0+15ms   rogue        leaf7's oscillator steps to +500 ppm; must be
///                          quarantined within 6 ms; collateral cleared 2 ms
///                          after detection, the rest must reconverge
///
/// DTP parameters differ from the library defaults in two ways, both
/// documented here because the acceptance numbers depend on them:
///
///   * `beacon_interval_ticks = 800` (5.12 us): under MTU-saturated load a
///     control slot opens about once per frame (~1.25 us), so the rejoin
///     chain INIT -> INIT-ACK -> BEACON-JOIN costs 2-4 slot waits; a 200-tick
///     interval would make "2 beacon intervals" shorter than two slot waits
///     and no protocol could pass. 800 ticks keeps the ±2T claim honest.
///   * The jump detector runs in *rate* mode: threshold 0 (every positive
///     fast-forward counts) with `max_jumps = 225` per 5 ms window. An honest
///     peer pair diverges at most 200 ppm (±100 ppm envelope), i.e. at most
///     ~156 one-unit jumps per window; a +500 ppm rogue forces >= 312 and
///     trips the detector within ~3.6 ms. The margin between 156 and 225 is
///     what separates "never fires in healthy operation" from "always fires
///     on an out-of-envelope part".

#include <cstdint>
#include <utility>

#include "chaos/engine.hpp"
#include "chaos/plan.hpp"
#include "dtp/config.hpp"
#include "dtp/hierarchy.hpp"
#include "net/topology.hpp"

namespace dtpsim::chaos {

struct CanonicalCampaign {
  /// Network parameters: oscillator drift on, and a 20 us post-link-up data
  /// hold-off (MacParams::data_holdoff). The hold-off stands in for link
  /// training: INIT must measure d on a quiet link, because an INIT-ACK
  /// queued behind an in-flight MTU frame inflates d by up to half a frame
  /// time (~95 ticks) and no amount of beaconing repairs a wrong d.
  static net::NetworkParams net_params();

  /// Protocol parameters the campaign's agents must be built with.
  static dtp::DtpParams dtp_params();

  /// Engine parameters matching dtp_params().
  static ChaosParams chaos_params();

  /// Time to let the cold-started tree settle before the first injection.
  static fs_t settle_time() { return from_ms(3); }

  /// The fault schedule starting at `t0` (>= settle_time()).
  static FaultPlan plan(const net::PaperTreeTopology& tree, fs_t t0);

  /// Run the simulation until at least this time so every probe reports.
  static fs_t end_time(fs_t t0) { return t0 + from_ms(25); }

  /// The Fig. 6a/6b heavy-load condition: cross-aggregation saturating
  /// flows loading every link (same pattern as the Fig. 6 benchmarks).
  static void start_heavy_load(net::Network& net, const net::PaperTreeTopology& tree,
                               std::uint32_t frame_bytes);
};

/// The canonical *source-level* campaign: one instance of every hierarchy
/// fault class on the Fig. 5 tree, run by `bench_source_failover` (plus a
/// holdover probe) and `dtpsim --chaos=source`.
///
/// The hierarchy: a stratum-1 GPS source on the first leaf under S1, a
/// stratum-2 upstream-island source on the first leaf under S2, and a
/// `HierarchyClient` on every other leaf. Both sources therefore sit outside
/// S3's subtree, so cutting the S0--S3 trunk strands S3's three clients with
/// no source at all — the holdover case.
///
///   t0+0      gps_loss      GPS reference dark 1 ms; clients must fail over
///                           to the stratum-2 source within 2 broadcast
///                           intervals (staleness_factor 1.5 + detection lag)
///   t0+2.5ms  rogue_gm      GPS broadcasts UTC shifted +2 us; every client
///                           must quarantine it within 1.5 ms; the lie is
///                           cleared 0.5 ms after quarantine is observed
///   t0+6ms    island_partition  S0--S3 dark 2 ms; S3's clients ride holdover
///                           (uncertainty growing, sentinel-checked honest),
///                           then reconverge after the heal
///   t0+11ms   stratum_flap  the GPS advertises stratum 5 and back, 4
///                           toggles, one per 200 us; selection must track
///                           deterministically with no backward served step
///
/// Source broadcasts run at 100 us, so probe units ("beacon intervals" in
/// the report) are 100 us here, not the PHY beacon.
struct SourceCampaign {
  static net::NetworkParams net_params() { return CanonicalCampaign::net_params(); }
  static dtp::DtpParams dtp_params() { return CanonicalCampaign::dtp_params(); }
  static ChaosParams chaos_params() { return CanonicalCampaign::chaos_params(); }
  static dtp::HierarchyParams hierarchy_params() { return {}; }

  /// Source broadcast cadence (the campaign's reporting unit).
  static fs_t source_period() { return from_us(100); }

  /// Served-UTC reconvergence threshold. The link probes use the one-hop
  /// ±4T criterion; a hierarchy client serves time *across the tree*, so
  /// |served − true| inherits the pairwise 4TD envelope between server and
  /// client — D = 4 hops on the Fig. 5 tree (leaf, agg, root, agg, leaf).
  static double threshold_ticks() { return 16.0; }
  static fs_t settle_time() { return from_ms(3); }
  static fs_t end_time(fs_t t0) { return t0 + from_ms(18); }

  /// GPS (stratum 1, id 1) on `leaves[0]`, upstream island (stratum 2,
  /// id 2) on `leaves[3]`, a client on every other leaf. Servers are not
  /// started — call `hierarchy.start()` when the run begins.
  static void build_hierarchy(dtp::TimeHierarchy& hierarchy, net::Network& net,
                              dtp::DtpNetwork& dtpnet,
                              const net::PaperTreeTopology& tree);

  static FaultPlan plan(const net::PaperTreeTopology& tree, fs_t t0);

  /// The island-partition window (plus DTP re-sync margin) — the one fault
  /// here that disturbs the *network* layer, so sentinel offset/runaway
  /// monitors need a blackout over it. The UTC checks take no blackout.
  static std::pair<fs_t, fs_t> island_blackout(fs_t t0) {
    return {t0 + from_ms(6), t0 + from_ms(8) + from_ms(1)};
  }
};

/// The canonical *gray-failure* campaign: one instance of each gray fault
/// kind on the Fig. 5 tree under MTU-saturated load, paired with a
/// `dtp::HealthWatchdog`. Run by `bench_gray_recovery` (plus a fault-free
/// control run) and `dtpsim --chaos=gray`.
///
///   t0+0      asymmetric_delay  root -> S1 gains 52 ns (~8 ticks) one-way
///                               for 3 ms; S1's uplink sees every beacon
///                               implausibly stale and is re-INITed
///   t0+4ms    limping_port      leaf2 -> S1 stalls 30% of its control
///                               blocks by 90 ns (~14 ticks) for 3 ms
///   t0+8ms    silent_corruption leaf4 -> S2 flips a low counter bit in 80%
///                               of control payloads for 3 ms (+-4/+-8 tick
///                               lies that survive framing)
///   t0+12ms   frozen_counter    leaf6's port facing S3 latches its counter
///                               for 2 ms while the device stays alive
///
/// Protocol parameters are the canonical campaign's with the jump detector
/// OFF: every injection here is sized to stay under the loud detectors
/// (that is what makes it gray), and the acceptance question is precisely
/// whether the watchdog alone detects and remediates. Magnitudes are tied
/// to the default `WatchdogParams::plausible_delta_ticks = 6` gate: each
/// fault's staleness lands at or past -7 ticks even after a mid-fault
/// re-INIT halves the bias into the measured OWD, so detection cannot be
/// argued away by a lucky d measurement.
struct GrayCampaign {
  static net::NetworkParams net_params() { return CanonicalCampaign::net_params(); }
  static dtp::DtpParams dtp_params();
  static ChaosParams chaos_params();
  static dtp::WatchdogParams watchdog_params() { return {}; }

  static fs_t settle_time() { return from_ms(3); }
  static FaultPlan plan(const net::PaperTreeTopology& tree, fs_t t0);
  static fs_t end_time(fs_t t0) { return t0 + from_ms(20); }

  /// Sentinel blackout windows: each fault window plus a remediation margin
  /// (backoff ladder + probation + the post-heal network-wide fast-forward
  /// that re-absorbs a biased OWD). Offsets and counter-rate checks hold
  /// fire inside these; watchdog invariants never do.
  static std::vector<std::pair<fs_t, fs_t>> blackouts(fs_t t0);
};

}  // namespace dtpsim::chaos
