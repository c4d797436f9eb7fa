#include "hooks.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

constexpr int kMaxDepth = 16;

struct ThreadSlot {
  HookTotals totals;
  int depth = 0;
  std::uint64_t child_ns[kMaxDepth] = {};  ///< time of nested crossings per level
};

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadSlot>> g_slots;  // guarded by g_mu
std::atomic<std::uint32_t> g_epoch{1};

thread_local ThreadSlot* tls_slot = nullptr;
thread_local std::uint32_t tls_epoch = 0;

ThreadSlot& slot() {
  const std::uint32_t epoch = g_epoch.load(std::memory_order_acquire);
  if (tls_epoch != epoch) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_slots.push_back(std::make_unique<ThreadSlot>());
    tls_slot = g_slots.back().get();
    tls_epoch = epoch;
  }
  return *tls_slot;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::uint64_t HookTotals::attributed_ns() const {
  std::uint64_t sum = 0;
  for (std::uint64_t ns : self_ns) sum += ns;
  return sum;
}

namespace hook_detail {

Scope::Scope(Hook h) : hook_(h) {
  ThreadSlot& s = slot();
  if (s.depth + 1 >= kMaxDepth) throw std::logic_error("perfbench: hook nesting too deep");
  s.child_ns[++s.depth] = 0;
  start_ns_ = now_ns();
}

Scope::~Scope() {
  const auto elapsed = static_cast<std::uint64_t>(now_ns() - start_ns_);
  ThreadSlot& s = *tls_slot;
  const std::uint64_t children = s.child_ns[s.depth--];
  s.totals.self_ns[hook_] += elapsed > children ? elapsed - children : 0;
  s.totals.calls[hook_] += 1;
  if (s.depth > 0) s.child_ns[s.depth] += elapsed;
}

}  // namespace hook_detail

void reset_hook_times() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_slots.clear();
  g_epoch.fetch_add(1, std::memory_order_acq_rel);
}

HookTotals collect_hook_times() {
  std::lock_guard<std::mutex> lock(g_mu);
  HookTotals out;
  for (const auto& s : g_slots) {
    for (int h = 0; h < kHookCount; ++h) {
      out.self_ns[h] += s->totals.self_ns[h];
      out.calls[h] += s->totals.calls[h];
    }
  }
  return out;
}

}  // namespace perfbench
