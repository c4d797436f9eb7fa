#include "net/host.hpp"

namespace dtpsim::net {

fs_t StackModel::sample() {
  fs_t d = params_.base;
  if (params_.jitter_mean > 0)
    d += static_cast<fs_t>(rng_.exponential(static_cast<double>(params_.jitter_mean)));
  if (params_.spike_prob > 0 && rng_.bernoulli(params_.spike_prob))
    d += static_cast<fs_t>(rng_.exponential(static_cast<double>(params_.spike_mean)));
  return d;
}

Host::Host(sim::Simulator& sim, std::string name, MacAddr addr, DeviceParams dev,
           HostParams params)
    : Device(sim, std::move(name), dev),
      addr_(addr),
      tx_stack_(params.tx_stack, sim.fork_rng(0x7C5ULL ^ addr.value)),
      rx_stack_(params.rx_stack, sim.fork_rng(0x7C6ULL ^ addr.value)) {
  add_port();
}

void Host::on_port_added(std::size_t index) {
  mac(index).on_receive = [this](const Frame& f, fs_t rx_time) { handle_rx(f, rx_time); };
}

void Host::send_app(Frame frame) {
  sim::ScopedAffinity aff(node());
  frame.src = addr_;
  const fs_t delay = tx_stack_.sample();
  const std::uint32_t idx = in_stack_.park(std::move(frame));
  sim_.schedule_in(delay, [this, idx] { nic().enqueue(in_stack_.take(idx)); },
                   sim::EventCategory::kFrame);
}

void Host::handle_rx(const Frame& frame, fs_t rx_time) {
  sim::ScopedAffinity aff(node());
  if (!(frame.dst == addr_) && !frame.dst.is_broadcast() && !frame.dst.is_multicast()) return;
  if (on_hw_receive) on_hw_receive(frame, rx_time);
  if (on_app_receive) {
    const fs_t delay = rx_stack_.sample();
    const std::uint32_t idx = in_stack_.park(frame);
    sim_.schedule_in(
        delay,
        [this, idx, rx_time] {
          const Frame f = in_stack_.take(idx);
          on_app_receive(f, rx_time, sim_.now());
        },
        sim::EventCategory::kFrame);
  }
}

}  // namespace dtpsim::net
