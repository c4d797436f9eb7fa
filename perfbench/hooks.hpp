#pragma once

/// \file hooks.hpp
/// Host-time attribution at the public hook boundaries between layers.
///
/// The traced run replaces each layer-crossing `std::function` hook with a
/// wrapper that times the original call. Time is kept as per-hook totals
/// (self time and call count), never as one span per call, so the memory
/// cost is fixed and the time cost is two clock reads per crossing. Nested
/// crossings (PhyPort::on_frame -> Mac::on_receive) are charged to the inner
/// hook and subtracted from the outer one, so the self times of all hooks
/// sum to the top-level time spent inside hooks.
///
/// Hooks fire on worker threads in parallel runs, so each thread accumulates
/// into its own slot; `HookTimes::collect` sums the slots once the engine
/// is parked between runs.

#include <cstdint>
#include <functional>

namespace perfbench {

/// The wrapped crossings, named after the layer they enter.
enum Hook : int {
  kDtpRx = 0,    ///< PhyPort::on_control -> dtp::PortLogic
  kProbeTx,      ///< PhyPort::probe_control_tx -> check::Sentinel
  kProbeRx,      ///< PhyPort::probe_control_rx -> check::Sentinel
  kMacRx,        ///< PhyPort::on_frame -> net::Mac
  kHostRx,       ///< Mac::on_receive -> net::Host
  kSwitchRx,     ///< Mac::on_receive -> net::Switch
  kHookCount
};

/// Totals over every thread since the last reset.
struct HookTotals {
  std::uint64_t self_ns[kHookCount] = {};
  std::uint64_t calls[kHookCount] = {};
  std::uint64_t attributed_ns() const;
};

namespace hook_detail {
/// Opens a timed crossing on the calling thread; closes it on destruction.
class Scope {
 public:
  explicit Scope(Hook h);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Hook hook_;
  std::int64_t start_ns_;
};
}  // namespace hook_detail

/// Replace `fn` with a timed wrapper around it (no-op on an empty hook).
template <typename... A>
void wrap_hook(Hook h, std::function<void(A...)>& fn) {
  if (!fn) return;
  fn = [h, inner = std::move(fn)](A... args) {
    hook_detail::Scope scope(h);
    inner(args...);
  };
}

/// Discard every thread's totals (call while no simulation is running).
void reset_hook_times();

/// Sum every thread's totals (call while no simulation is running).
HookTotals collect_hook_times();

}  // namespace perfbench
