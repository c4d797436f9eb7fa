#pragma once

/// \file external.hpp
/// External synchronization — mapping the internal DTP counter to UTC
/// (Section 5.2).
///
/// DTP is an *internal* synchronization protocol: every counter in the
/// network runs at the same rate but is not tied to true time. The paper's
/// extension: one server (GPS/PTP/NTP-disciplined) periodically broadcasts
/// a (DTP counter, UTC) pair; every other host estimates the counter<->UTC
/// frequency ratio from consecutive pairs and interpolates. Because the DTP
/// counters already agree network-wide, hosts end up agreeing on UTC too,
/// losing only the counter-read error on each side.
///
/// This is the daemon-level (software-path) variant. The paper's second
/// variant — a timeserver hardware-stamping its syncs with its DTP counter —
/// is the single-source time hierarchy: one `TimeSourceParams::gps` server
/// feeding `HierarchyClient`s (dtp/hierarchy.hpp, DESIGN.md §13).

#include <cstdint>
#include <optional>

#include "common/stats.hpp"
#include "dtp/daemon.hpp"
#include "net/host.hpp"
#include "sim/simulator.hpp"

namespace dtpsim::dtp {

/// The broadcast payload: one (counter, UTC) pair.
struct UtcPairPacket : net::Packet {
  double dtp_counter = 0.0;  ///< broadcaster's counter estimate (units)
  fs_t utc = 0;              ///< broadcaster's UTC at estimate time
};

/// EtherType used for UTC pair broadcasts.
inline constexpr std::uint16_t kEtherTypeUtc = 0x88B6;

/// Periodically multicasts (DTP counter, UTC) pairs from a UTC-disciplined
/// host (the paper suggests once per second).
class UtcBroadcaster {
 public:
  /// \param host    the timeserver host (sends through its NIC, software path)
  /// \param daemon  the timeserver's DTP daemon (counter access)
  /// \param period  broadcast cadence
  /// \param utc_error_ns  absolute error of the server's own UTC source
  ///                      (e.g. ~100 ns for GPS); sampled fresh per broadcast
  UtcBroadcaster(sim::Simulator& sim, net::Host& host, Daemon& daemon, fs_t period,
                 double utc_error_ns = 0.0);

  void start() { proc_.start(); }
  void stop() { proc_.stop(); }

  std::uint64_t broadcasts() const { return count_; }

 private:
  void fire();

  sim::Simulator& sim_;
  net::Host& host_;
  Daemon& daemon_;
  double utc_error_ns_;
  Rng rng_;
  std::uint64_t count_ = 0;
  sim::PeriodicProcess proc_;
};

/// Receives UTC pairs on a host and serves interpolated UTC.
class UtcClient {
 public:
  /// Hooks the host's application receive path (kEtherTypeUtc frames only;
  /// other traffic is passed through to any previously installed handler).
  UtcClient(net::Host& host, Daemon& daemon);

  /// True after two pairs have been received (ratio known).
  bool ready() const { return ratio_.has_value(); }

  /// Estimated UTC at simulated time `now`, in femtoseconds. Requires
  /// ready(). NOTE: this extrapolates on the last frequency ratio however
  /// long ago the last pair arrived — check `stale()` first and treat stale
  /// reads as degraded (the broadcaster may be dead).
  double utc_at(fs_t now) const;

  /// Time since the last received pair (meaningful once a pair arrived).
  fs_t age(fs_t now) const { return now - last_rx_at_; }

  /// True when the estimate should be treated as degraded: no ratio yet, or
  /// the source went quiet for more than 3x the measured broadcast
  /// inter-arrival gap.
  bool stale(fs_t now) const;

  /// Error series: (utc_at - true UTC) in nanoseconds, sampled at each
  /// received broadcast.
  const TimeSeries& error_series() const { return error_series_; }

  std::uint64_t pairs_received() const { return pairs_; }

 private:
  void handle_pair(const UtcPairPacket& p);

  net::Host& host_;
  Daemon& daemon_;
  std::optional<double> ratio_;  ///< fs of UTC per counter unit
  double last_counter_ = 0.0;
  fs_t last_utc_ = 0;
  bool have_last_ = false;
  fs_t last_rx_at_ = 0;      ///< sim time of the last received pair
  fs_t inter_arrival_ = 0;   ///< gap between the last two pairs
  std::uint64_t pairs_ = 0;
  TimeSeries error_series_;
};

}  // namespace dtpsim::dtp
