#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dtpsim::sim {

const char* category_name(EventCategory cat) {
  switch (cat) {
    case EventCategory::kGeneric: return "generic";
    case EventCategory::kBeacon: return "beacon";
    case EventCategory::kFrame: return "frame";
    case EventCategory::kDrift: return "drift";
    case EventCategory::kProbe: return "probe";
    case EventCategory::kApp: return "app";
  }
  return "?";
}

EventQueue::Handle EventQueue::schedule(fs_t t, Callback&& fn, EventCategory cat,
                                        std::int32_t node, const void* owner) {
  ++scheduled_;
  return insert(t, std::move(fn), cat, node, owner,
                node_class_key(next_seq_++, node >= 0), heap_);
}

EventQueue::Handle EventQueue::schedule_link(fs_t t, Callback&& fn, EventCategory cat,
                                             std::int32_t node, const void* owner,
                                             std::uint64_t link_sub) {
  ++scheduled_;
  return insert(t, std::move(fn), cat, node, owner, link_class_key(link_sub), heap_);
}

EventQueue::Handle EventQueue::schedule_migrated(fs_t t, Callback&& fn,
                                                 EventCategory cat, std::int32_t node,
                                                 const void* owner, std::uint64_t key) {
  return insert(t, std::move(fn), cat, node, owner, key, heap_);
}

EventQueue::Handle EventQueue::bridge_schedule(fs_t t, Callback&& fn, EventCategory cat,
                                               std::int32_t node, BridgeKind kind,
                                               const void* client) {
  ++scheduled_;
  return insert_bridged(t, std::move(fn), cat, node, nullptr,
                        node_class_key(next_seq_++, true), kind, client);
}

EventQueue::Handle EventQueue::bridge_schedule_link(fs_t t, Callback&& fn,
                                                    EventCategory cat, std::int32_t node,
                                                    const void* owner,
                                                    std::uint64_t link_sub) {
  ++scheduled_;
  return insert_bridged(t, std::move(fn), cat, node, owner, link_class_key(link_sub),
                        BridgeKind::kArrival, nullptr);
}

EventQueue::Handle EventQueue::insert(fs_t t, Callback&& fn, EventCategory cat,
                                      std::int32_t node, const void* owner,
                                      std::uint64_t key, Heap& heap) {
  if (t < now_) throw std::logic_error("EventQueue: scheduling into the past");
  if (fn && !fn.is_inline()) ++callback_spills_;
  const std::uint32_t slot = acquire_slot();
  Slot& s = slot_at(slot);
  s.fn = std::move(fn);
  s.cat = cat;
  s.node = node;
  s.queued = true;
  s.bridged = &heap == &bridge_heap_;
  owners_[slot] = owner;
  heap.push(HeapEntry{t, key, slot, s.gen});
  ++heap.live;
  if (size() > peak_pending_) peak_pending_ = size();
  return Handle{slot, s.gen};
}

EventQueue::Handle EventQueue::insert_bridged(fs_t t, Callback&& fn, EventCategory cat,
                                              std::int32_t node, const void* owner,
                                              std::uint64_t key, BridgeKind kind,
                                              const void* client) {
  const Handle h = insert(t, std::move(fn), cat, node, owner, key, bridge_heap_);
  if (node >= 0) {
    if (static_cast<std::size_t>(node) >= node_pending_.size())
      node_pending_.resize(static_cast<std::size_t>(node) + 1);
    node_pending_[static_cast<std::size_t>(node)].push_back(
        NodePending{t, client, h.slot, kind});
  }
  return h;
}

void EventQueue::unlist(std::int32_t node, std::uint32_t slot) {
  if (node < 0 || static_cast<std::size_t>(node) >= node_pending_.size()) return;
  std::vector<NodePending>& v = node_pending_[static_cast<std::size_t>(node)];
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i].slot == slot) {
      v[i] = v.back();
      v.pop_back();
      return;
    }
  }
}

bool EventQueue::cancel(Handle h) {
  if (!h.valid() || h.slot >= slot_count_) return false;
  const Slot& s = slot_at(h.slot);
  if (s.gen != h.gen || !s.queued) return false;
  settle(drop(h.slot));
  return true;
}

std::size_t EventQueue::purge_owner(const void* owner) {
  if (owner == nullptr) return 0;
  std::size_t purged = 0;
  // The tags live out-of-line precisely so this scan strides 8 bytes per
  // slot instead of a cache line. A slot whose event is firing right now is
  // no longer queued and is skipped.
  for (std::uint32_t slot = 0; slot < slot_count_; ++slot) {
    if (owners_[slot] != owner || !slot_at(slot).queued) continue;
    drop(slot);
    ++purged;
  }
  if (purged != 0) {
    settle(heap_);
    settle(bridge_heap_);
  }
  return purged;
}

EventQueue::Heap& EventQueue::drop(std::uint32_t slot) {
  Slot& s = slot_at(slot);
  Heap& h = s.bridged ? bridge_heap_ : heap_;
  if (s.bridged) unlist(s.node, slot);
  s.queued = false;
  recycle(slot, ++s.gen != 0);
  --h.live;
  ++h.stale;
  ++cancelled_;
  return h;
}

void EventQueue::settle(Heap& h) {
  if (h.stale > h.live && h.stale > kCompactFloor) {
    compact(h);
  } else {
    skip_stale(h);
  }
}

void EventQueue::compact(Heap& h) {
  std::size_t n = 0;
  for (const HeapEntry& e : h.v)
    if (live(e)) h.v[n++] = e;
  h.v.resize(n);
  h.stale = 0;
  // Floyd's bottom-up heapify. The pop order is fixed by the (time, key)
  // total order, not by the heap's shape, so a rebuild is unobservable.
  if (n > 1)
    for (std::size_t i = (n - 2) / kArity + 1; i-- > 0;) h.sift_down(i, h.v[i]);
}

std::uint64_t EventQueue::run(fs_t horizon, bool inclusive) {
  std::uint64_t fired = 0;
  EventQueue* const prev_queue = detail::tls_queue;
  detail::tls_queue = this;
  const bool prev_running = running_;
  const fs_t prev_horizon = run_horizon_;
  const bool prev_inclusive = run_inclusive_;
  running_ = true;
  run_horizon_ = horizon;
  run_inclusive_ = inclusive;
  while (Heap* h = first_heap()) {
    const fs_t t = h->front().time;
    if (inclusive ? t > horizon : t >= horizon) break;
    fire_top(*h);
    ++fired;
  }
  running_ = prev_running;
  run_horizon_ = prev_horizon;
  run_inclusive_ = prev_inclusive;
  detail::tls_queue = prev_queue;
  return fired;
}

bool EventQueue::fire_one() {
  Heap* const h = first_heap();
  if (h == nullptr) return false;
  EventQueue* const prev_queue = detail::tls_queue;
  detail::tls_queue = this;
  fire_top(*h);
  detail::tls_queue = prev_queue;
  return true;
}

void EventQueue::fire_top(Heap& h) {
  const HeapEntry top = h.front();
  h.pop_top();
  skip_stale(h);
  Slot& s = slot_at(top.slot);
  // Retire the handle before invoking: the callback may cancel its own (now
  // stale) handle, and is_pending() already reports it gone. A bridged step
  // leaves its node's registry first, so its own gate does not see it. The
  // callback then runs in place — slots never move and this one is not on
  // the free list yet, so whatever it schedules lands in other slots.
  if (s.bridged) unlist(s.node, top.slot);
  s.queued = false;
  const bool reusable = ++s.gen != 0;
  --h.live;
  now_ = top.time;
  ++executed_;
  ++executed_by_category_[static_cast<std::size_t>(s.cat)];
  const std::int32_t prev_affinity = detail::tls_affinity;
  detail::tls_affinity = s.node;
  s.fn();
  detail::tls_affinity = prev_affinity;
  recycle(top.slot, reusable);
}

std::uint64_t EventQueue::bridge_virtual_schedule() {
  ++scheduled_;
  return next_seq_++;
}

void EventQueue::bridge_virtual_fire(EventCategory cat, fs_t t) {
  if (t > now_) now_ = t;
  ++executed_;
  ++executed_by_category_[static_cast<std::size_t>(cat)];
  ++fused_;
}

bool EventQueue::bridge_tx_fusible(std::int32_t node, const void* tx_client) const {
  // Exact-heap events at this instant (global faults, fallback services on
  // any node — rare in quiet spans) fire in key order; yield to them.
  const std::uint64_t k = node_class_key(next_seq_, true);
  if (!heap_.empty()) {
    const HeapEntry& f = heap_.front();
    if (f.time < now_ || (f.time == now_ && f.key < k)) return false;
  }
  if (node >= 0 && static_cast<std::size_t>(node) < node_pending_.size()) {
    for (const NodePending& p : node_pending_[node]) {
      if (p.time > now_) continue;
      if (p.time < now_) return false;  // cannot happen mid-fire; be safe
      switch (p.kind) {
        case BridgeKind::kTx:
          // Sibling ports of one device share its oscillator, so their
          // beacon timers land on the same instants; a timer body touches
          // only its own port and cable, so fusing ahead of it is
          // unobservable. The one exception is a second chain on the SAME
          // port (a re-arm raced a not-yet-cancelled step): the exact
          // engine fires both services, so the fused path must not.
          if (p.client == tx_client) return false;
          break;
        case BridgeKind::kArrival:
          break;  // link-class key: fires after any node-class event anyway
        default:
          return false;  // an apply (or unclassified step) must go first
      }
    }
  }
  return true;
}

bool EventQueue::bridge_apply_fusible(std::int32_t node, fs_t t) const {
  const std::uint64_t k = node_class_key(next_seq_, true);
  if (!heap_.empty()) {
    const HeapEntry& f = heap_.front();
    if (f.time < t || (f.time == t && f.key < k)) return false;
  }
  if (node >= 0 && static_cast<std::size_t>(node) < node_pending_.size()) {
    for (const NodePending& p : node_pending_[node]) {
      if (p.time < t) return false;
      // Same-instant: pending timers and applies carry node-class keys
      // allocated before ours, so the exact engine fires them first and
      // they touch the agent state this apply is about to update. Arrivals
      // sort behind every node-class key and commute.
      if (p.time == t && p.kind != BridgeKind::kArrival) return false;
    }
  }
  return true;
}

std::vector<EventQueue::Extracted> EventQueue::extract_node_events() {
  std::vector<HeapEntry> entries;
  entries.reserve(heap_.live);
  for (const HeapEntry& e : heap_.v)
    if (live(e)) entries.push_back(e);
  std::sort(entries.begin(), entries.end(), earlier);
  heap_.v.clear();
  heap_.stale = 0;
  std::vector<Extracted> out;
  for (const HeapEntry& e : entries) {
    Slot& s = slot_at(e.slot);
    if (s.node < 0) {
      // Global event: stays here. Re-push preserving the original key (the
      // slot and generation are untouched, so handles remain valid).
      heap_.push(e);
    } else {
      s.queued = false;
      --heap_.live;
      out.push_back(Extracted{e.time, e.key, s.node, s.cat, owners_[e.slot],
                              std::move(s.fn), e.slot});
      owners_[e.slot] = nullptr;  // the tag moves with the event
      // Slot intentionally not recycled — see header comment.
    }
  }
  return out;
}

void EventQueue::set_forward(std::uint32_t slot, std::uint32_t queue, Handle h) {
  forwards_[slot] = Forward{queue, h};
}

const EventQueue::Forward* EventQueue::forward_of(std::uint32_t slot,
                                                  std::uint32_t gen) const {
  if (slot >= slot_count_ || slot_at(slot).gen != gen) return nullptr;
  const auto it = forwards_.find(slot);
  return it == forwards_.end() ? nullptr : &it->second;
}

void EventQueue::accumulate(SimStats& st) const {
  st.scheduled += scheduled_;
  st.executed += executed_;
  st.cancelled += cancelled_;
  for (std::size_t i = 0; i < kEventCategoryCount; ++i)
    st.executed_by_category[i] += executed_by_category_[i];
  st.pending += size();
  st.peak_pending += peak_pending_;
  st.fused += fused_;
  st.callback_spills += callback_spills_;
}

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  // Arena full: add the next power-of-two block. Existing slots never move.
  const std::uint32_t cap = (kBlock0 << blocks_.size()) - kBlock0;
  if (slot_count_ == cap)
    blocks_.push_back(std::make_unique<Slot[]>(kBlock0 << blocks_.size()));
  owners_.push_back(nullptr);
  return slot_count_++;
}

void EventQueue::recycle(std::uint32_t slot, bool reusable) {
  slot_at(slot).fn.reset();
  owners_[slot] = nullptr;
  if (reusable) free_slots_.push_back(slot);
}

void EventQueue::Heap::pop_top() {
  const HeapEntry last = v.back();
  v.pop_back();
  if (!v.empty()) sift_down(0, last);
}

void EventQueue::Heap::sift_up(std::size_t pos, HeapEntry e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!earlier(e, v[parent])) break;
    v[pos] = v[parent];
    pos = parent;
  }
  v[pos] = e;
}

void EventQueue::Heap::sift_down(std::size_t pos, HeapEntry e) {
  const std::size_t n = v.size();
  for (;;) {
    const std::size_t first_child = pos * kArity + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c)
      if (earlier(v[c], v[best])) best = c;
    if (!earlier(v[best], e)) break;
    v[pos] = v[best];
    pos = best;
  }
  v[pos] = e;
}

}  // namespace dtpsim::sim
