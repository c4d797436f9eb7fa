#pragma once

/// \file parallel.hpp
/// Conservative parallel backend for the Simulator facade.
///
/// One worker thread per shard, each owning one EventQueue. Time advances in
/// *segments* (bounded by the next global-affinity event or the run_until
/// horizon), and each segment is sliced into conservative *epochs* of length
/// L = lookahead = min propagation delay across cut cables. A message sent
/// at time s arrives no earlier than s + L, so before executing epoch k a
/// shard only needs its neighbors to have finished epoch k-1 — a pairwise
/// wait on a per-shard `done_epoch` counter, not a global barrier. Cross-
/// shard deliveries travel through single-producer/single-consumer mailbox
/// queues and are folded into the destination heap when the consumer drains
/// its neighbors at an epoch boundary; their explicit (edge, message) keys
/// make the firing order independent of *when* the drain happened to see
/// them (see event_queue.hpp).
///
/// Between segments every worker is parked on a generation counter
/// (`seg_id_`), so the coordinator thread may freely mutate shard queues,
/// drain mailboxes, and execute global events — that phase separation is
/// what keeps chaos injection, PTP/NTP reference clocks, and probes off the
/// workers entirely.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/time_units.hpp"
#include "obs/profile.hpp"
#include "sim/event_queue.hpp"
#include "sim/partition.hpp"

namespace dtpsim::sim {

/// A cable delivery crossing shards. `link_sub` is the (edge direction,
/// message index) tie-break subkey assigned by the sending cable.
struct CrossMsg {
  fs_t arrival = 0;
  std::int32_t dst_node = -1;
  EventCategory cat = EventCategory::kGeneric;
  const void* owner = nullptr;
  std::uint64_t link_sub = 0;
  Callback fn;
};

/// Unbounded SPSC queue of CrossMsg built from 128-slot chunks. The producer
/// publishes with a release store of the chunk fill count; the consumer
/// acquires it, so message payloads (including the Callback) cross threads
/// with proper ordering. The consumer retires a chunk only after the
/// producer has linked its successor, i.e. after the producer's last access
/// to it — and retired chunks park in a small spare ring the producer
/// refills from, so a steady cross-shard flow stops hitting the allocator
/// after warm-up (each chunk is ~8 KiB; at datacenter scale the mailbox grid
/// is wide and churn on the global heap serializes the workers).
class Mailbox {
 public:
  Mailbox() { head_ = tail_ = new Chunk; }
  ~Mailbox() {
    Chunk* c = head_;
    while (c != nullptr) {
      Chunk* n = c->next.load(std::memory_order_relaxed);
      delete c;
      c = n;
    }
    for (auto& s : spares_) delete s.load(std::memory_order_relaxed);
  }
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Producer side (the sending shard's worker, or the coordinator).
  void push(CrossMsg&& msg) {
    if (write_idx_ == kChunkCap) {
      Chunk* n = take_spare();
      if (n == nullptr) n = new Chunk;
      n->slots[0] = std::move(msg);
      n->filled.store(1, std::memory_order_release);
      tail_->next.store(n, std::memory_order_release);
      tail_ = n;
      write_idx_ = 1;
    } else {
      tail_->slots[write_idx_] = std::move(msg);
      tail_->filled.store(++write_idx_, std::memory_order_release);
    }
    pushed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Consumer side: feed every visible message to `sink`, returning how many.
  template <typename Sink>
  std::size_t drain(Sink&& sink) {
    std::size_t n = 0;
    for (;;) {
      Chunk* h = head_;
      const std::uint32_t avail = h->filled.load(std::memory_order_acquire);
      while (read_idx_ < avail) {
        sink(std::move(h->slots[read_idx_++]));
        ++n;
      }
      if (read_idx_ < kChunkCap) break;  // producer still writing this chunk
      Chunk* next = h->next.load(std::memory_order_acquire);
      if (next == nullptr) break;  // full chunk, successor not linked yet
      head_ = next;
      read_idx_ = 0;
      park_spare(h);
    }
    return n;
  }

  std::uint64_t pushed() const { return pushed_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::uint32_t kChunkCap = 128;
  struct Chunk {
    std::array<CrossMsg, kChunkCap> slots;
    std::atomic<std::uint32_t> filled{0};
    std::atomic<Chunk*> next{nullptr};
  };

  /// Park an exhausted chunk for producer reuse (consumer side). Each ring
  /// slot only ever transitions null -> non-null by the consumer and
  /// non-null -> null by the producer, so a plain release store suffices; a
  /// full ring falls back to delete.
  void park_spare(Chunk* h) {
    h->filled.store(0, std::memory_order_relaxed);
    h->next.store(nullptr, std::memory_order_relaxed);
    for (auto& s : spares_) {
      if (s.load(std::memory_order_relaxed) == nullptr) {
        s.store(h, std::memory_order_release);
        return;
      }
    }
    delete h;
  }

  /// Grab a parked chunk if any (producer side).
  Chunk* take_spare() {
    for (auto& s : spares_) {
      if (s.load(std::memory_order_relaxed) != nullptr) {
        if (Chunk* c = s.exchange(nullptr, std::memory_order_acquire)) return c;
      }
    }
    return nullptr;
  }

  static constexpr std::size_t kSpareCap = 4;

  alignas(64) Chunk* head_;  // consumer-owned
  std::uint32_t read_idx_ = 0;
  alignas(64) Chunk* tail_;  // producer-owned
  std::uint32_t write_idx_ = 0;
  std::atomic<std::uint64_t> pushed_{0};
  alignas(64) std::array<std::atomic<Chunk*>, kSpareCap> spares_{};
};

/// Per-shard runtime state. `done_epoch` is the only field other threads
/// touch while a segment is running.
struct ShardRt {
  std::int32_t index = 0;
  EventQueue queue;
  std::vector<std::int32_t> neighbors;  ///< shards with a cable into this one
  std::vector<std::uint64_t> epoch_events;  ///< per-epoch fired counts (plan-local)
  /// Batched-drain staging: each epoch's mailbox sweep collects here, sorts
  /// by (arrival, link key) and inserts the messages due in the epoch
  /// ascending — sorted insertion into a min-heap sifts O(1) amortized
  /// instead of O(log n) per message. Messages due later (sent by a
  /// neighbour already an epoch ahead) stay here until their epoch or the
  /// segment-end drain_all_mailboxes. Capacity persists across epochs, so a
  /// steady flow costs no allocation.
  std::vector<CrossMsg> drain_scratch;
  std::uint64_t fired_total = 0;
  alignas(64) std::atomic<std::int64_t> done_epoch{-1};
};

/// The worker pool + mailbox fabric (see file comment). Constructed by
/// Simulator::set_threads; all public methods are coordinator-only except
/// push_cross (any sending context).
class ParallelEngine {
 public:
  ParallelEngine(const PartitionInput& in, PartitionResult part,
                 std::uint64_t seq_floor);
  ~ParallelEngine();
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  std::int32_t shard_count() const { return part_.shards; }
  std::int32_t shard_of(std::int32_t node) const {
    return part_.shard_of[static_cast<std::size_t>(node)];
  }
  fs_t lookahead() const { return part_.lookahead; }
  const PartitionResult& partition() const { return part_; }
  EventQueue& shard_queue(std::int32_t s) { return shards_[s]->queue; }
  const EventQueue& shard_queue(std::int32_t s) const { return shards_[s]->queue; }

  /// Enqueue a cross-shard delivery (sending worker or coordinator context).
  void push_cross(std::int32_t src_shard, std::int32_t dst_shard, CrossMsg&& msg);

  /// Execute [t0, horizon) across all shards in conservative epochs.
  /// Coordinator blocks until every worker finishes.
  void run_segment(fs_t t0, fs_t horizon);

  /// Fold every undelivered mailbox message, and every message an epoch
  /// drain held back, into its destination queue. Coordinator-only, workers
  /// must be parked.
  std::size_t drain_all_mailboxes();

  /// Advance every shard clock to `t` (segment/sync boundary).
  void advance_all(fs_t t);

  /// Cancel owner-tagged deliveries in every shard queue (coordinator-only).
  std::size_t purge_owner(const void* owner);

  /// Attach wall-clock profiling (null = off). Coordinator-only while the
  /// workers are parked: the pointer is published to workers by the next
  /// segment's seg_id_ release-increment.
  void set_wall_profile(obs::WallProfile* wp) { wall_ = wp; }

  // --- Instrumentation ------------------------------------------------------
  std::uint64_t segments() const { return segments_; }
  std::uint64_t epochs() const { return epochs_; }
  std::uint64_t worker_events() const { return worker_fired_; }
  /// Sum over epochs of the busiest shard's fired count: the serialized work
  /// an ideally-scheduled run cannot avoid.
  std::uint64_t critical_path_events() const { return cp_events_; }
  std::uint64_t cross_messages() const;

 private:
  struct Plan {
    fs_t t0 = 0;
    fs_t horizon = 0;
    std::int64_t n_epochs = 0;
  };
  /// Upper bound on epochs per plan: bounds the per-shard epoch_events
  /// buffer when lookahead is small relative to the segment.
  static constexpr std::int64_t kMaxEpochsPerPlan = 65536;

  void worker_main(ShardRt* rt);
  void run_plan_worker(ShardRt* rt);
  Mailbox* mailbox(std::int32_t src, std::int32_t dst) {
    return mail_[static_cast<std::size_t>(src) * static_cast<std::size_t>(part_.shards) +
                 static_cast<std::size_t>(dst)]
        .get();
  }

  PartitionResult part_;
  std::vector<std::unique_ptr<ShardRt>> shards_;
  std::vector<std::unique_ptr<Mailbox>> mail_;  ///< K×K, neighbor pairs only
  obs::WallProfile* wall_ = nullptr;  ///< see set_wall_profile

  Plan plan_{};  ///< written by coordinator before seg_id_ release-increment
  std::atomic<std::uint64_t> seg_id_{0};
  std::atomic<std::int32_t> remaining_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;

  std::uint64_t segments_ = 0;
  std::uint64_t epochs_ = 0;
  std::uint64_t cp_events_ = 0;
  std::uint64_t worker_fired_ = 0;
};

}  // namespace dtpsim::sim
