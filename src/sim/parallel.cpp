#include "sim/parallel.hpp"

#include <algorithm>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace dtpsim::sim {

namespace {

/// Fold the staged cross-shard messages due before `before` into `q` in
/// ascending (arrival, link key) order and keep the later ones staged.
/// Sorted insertion lands each entry near the heap bottom, so the sift is
/// O(1) amortized instead of O(log n) per message; the firing order is
/// unchanged (link keys are explicit). Which later messages a drain sees
/// depends on how far ahead a neighbour runs, so inserting them early
/// would make the queue depth (SimStats::peak_pending) vary between
/// identical runs. Keeps capacity.
std::size_t flush_sorted(std::vector<CrossMsg>& batch, EventQueue& q,
                         fs_t before = EventQueue::kNoEventTime) {
  if (batch.empty()) return 0;
  std::sort(batch.begin(), batch.end(), [](const CrossMsg& a, const CrossMsg& b) {
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.link_sub < b.link_sub;
  });
  const auto due = std::partition_point(
      batch.begin(), batch.end(), [before](const CrossMsg& m) { return m.arrival < before; });
  for (auto it = batch.begin(); it != due; ++it)
    q.schedule_link(it->arrival, std::move(it->fn), it->cat, it->dst_node, it->owner,
                    it->link_sub);
  const auto n = static_cast<std::size_t>(due - batch.begin());
  batch.erase(batch.begin(), due);
  return n;
}

}  // namespace

ParallelEngine::ParallelEngine(const PartitionInput& in, PartitionResult part,
                               std::uint64_t seq_floor)
    : part_(std::move(part)) {
  const std::int32_t k = part_.shards;
  shards_.reserve(static_cast<std::size_t>(k));
  for (std::int32_t s = 0; s < k; ++s) {
    auto rt = std::make_unique<ShardRt>();
    rt->index = s;
    // Events scheduled after the migration must sort behind migrated ones at
    // equal timestamps, exactly as they would have in the source queue.
    rt->queue.seed_seq(seq_floor);
    shards_.push_back(std::move(rt));
  }

  mail_.resize(static_cast<std::size_t>(k) * static_cast<std::size_t>(k));
  for (const std::size_t ei : part_.cut_edges) {
    const auto& e = in.edges[ei];
    const std::int32_t sa = part_.shard_of[static_cast<std::size_t>(e.a)];
    const std::int32_t sb = part_.shard_of[static_cast<std::size_t>(e.b)];
    for (const auto& [src, dst] : {std::pair{sa, sb}, std::pair{sb, sa}}) {
      auto& box = mail_[static_cast<std::size_t>(src) * static_cast<std::size_t>(k) +
                        static_cast<std::size_t>(dst)];
      if (!box) box = std::make_unique<Mailbox>();
    }
  }
  // Deterministic neighbor order: ascending shard id. A shard's drain order
  // is part of the determinism story only insofar as every run uses the same
  // one; the explicit link keys make even that order unobservable.
  for (std::int32_t j = 0; j < k; ++j)
    for (std::int32_t i = 0; i < k; ++i)
      if (i != j && mailbox(i, j) != nullptr) shards_[j]->neighbors.push_back(i);

  threads_.reserve(static_cast<std::size_t>(k));
  for (std::int32_t s = 0; s < k; ++s)
    threads_.emplace_back([this, rt = shards_[static_cast<std::size_t>(s)].get()] {
      worker_main(rt);
    });
}

ParallelEngine::~ParallelEngine() {
  stop_.store(true, std::memory_order_release);
  seg_id_.fetch_add(1, std::memory_order_release);
  seg_id_.notify_all();
  for (auto& t : threads_) t.join();
}

void ParallelEngine::push_cross(std::int32_t src_shard, std::int32_t dst_shard,
                                CrossMsg&& msg) {
  mailbox(src_shard, dst_shard)->push(std::move(msg));
}

void ParallelEngine::run_segment(fs_t t0, fs_t horizon) {
  const fs_t lookahead = part_.lookahead;
  fs_t t = t0;
  while (t < horizon) {
    std::int64_t n_epochs;
    fs_t sub_end;
    if (lookahead == EventQueue::kNoEventTime) {
      n_epochs = 1;
      sub_end = horizon;
    } else {
      const fs_t span = horizon - t;
      const std::int64_t total = span / lookahead + (span % lookahead != 0 ? 1 : 0);
      n_epochs = std::min(total, kMaxEpochsPerPlan);
      sub_end = n_epochs == total ? horizon : t + n_epochs * lookahead;
    }

    plan_ = Plan{t, sub_end, n_epochs};
    for (auto& s : shards_) {
      s->done_epoch.store(-1, std::memory_order_relaxed);
      s->epoch_events.assign(static_cast<std::size_t>(n_epochs), 0);
    }
    remaining_.store(part_.shards, std::memory_order_relaxed);
    seg_id_.fetch_add(1, std::memory_order_release);  // publishes plan_ + resets
    seg_id_.notify_all();

    for (;;) {
      const std::int32_t r = remaining_.load(std::memory_order_acquire);
      if (r == 0) break;
      remaining_.wait(r, std::memory_order_acquire);
    }

    ++segments_;
    epochs_ += static_cast<std::uint64_t>(n_epochs);
    for (std::int64_t k = 0; k < n_epochs; ++k) {
      std::uint64_t busiest = 0;
      for (auto& s : shards_) {
        const std::uint64_t fired = s->epoch_events[static_cast<std::size_t>(k)];
        busiest = std::max(busiest, fired);
        worker_fired_ += fired;
      }
      cp_events_ += busiest;
    }
    t = sub_end;
  }
}

void ParallelEngine::worker_main(ShardRt* rt) {
  detail::tls_shard = rt;
#if defined(__linux__)
  // Best-effort pinning, one core per shard: keeps the shard's slot arena
  // and heap hot in a private cache and stops the scheduler migrating a
  // worker mid-epoch. With two-level partitioning the shards are whole pods,
  // so pinned workers make cross-pod mailboxes the only traffic that leaves
  // a core's cache domain. Failure (cgroup mask, fewer cores than shards) is
  // harmless — the engine is correct unpinned.
  cpu_set_t set;
  CPU_ZERO(&set);
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  CPU_SET(static_cast<unsigned>(rt->index) % ncpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#endif
  std::uint64_t seen = 0;
  for (;;) {
    seg_id_.wait(seen, std::memory_order_acquire);
    const std::uint64_t cur = seg_id_.load(std::memory_order_acquire);
    if (cur == seen) continue;  // spurious wake
    seen = cur;
    if (stop_.load(std::memory_order_acquire)) return;
    run_plan_worker(rt);
  }
}

void ParallelEngine::run_plan_worker(ShardRt* rt) {
  const Plan plan = plan_;
  const fs_t lookahead = part_.lookahead;
  // wall_ was published by the coordinator before this plan's seg_id_
  // release-increment; null means profiling is off (no clock reads).
  obs::WallProfile* wp = wall_;
  for (std::int64_t k = 0; k < plan.n_epochs; ++k) {
    const fs_t e_end = (k + 1 == plan.n_epochs)
                           ? plan.horizon
                           : plan.t0 + (k + 1) * lookahead;
    // Conservative rule: a message that must fire in epoch k was sent before
    // this epoch's start, i.e. by a neighbor that has finished epoch k-1.
    // Wait for that, stage every neighbor's batch, then insert the ones due
    // in this epoch sorted; later ones stay staged for their own epoch.
    {
      obs::WallScope scope(wp, obs::WallPhase::kMailboxDrain);
      for (const std::int32_t nb : rt->neighbors) {
        ShardRt& n = *shards_[static_cast<std::size_t>(nb)];
        std::int64_t v = n.done_epoch.load(std::memory_order_acquire);
        while (v < k - 1) {
          n.done_epoch.wait(v, std::memory_order_acquire);
          v = n.done_epoch.load(std::memory_order_acquire);
        }
        mailbox(nb, rt->index)->drain([rt](CrossMsg&& m) {
          rt->drain_scratch.push_back(std::move(m));
        });
      }
      flush_sorted(rt->drain_scratch, rt->queue, e_end);
    }
    std::uint64_t fired;
    {
      obs::WallScope scope(wp, obs::WallPhase::kWorkerCompute);
      fired = rt->queue.run(e_end, /*inclusive=*/false);
    }
    rt->epoch_events[static_cast<std::size_t>(k)] = fired;
    rt->fired_total += fired;
    rt->done_epoch.store(k, std::memory_order_release);
    rt->done_epoch.notify_all();
  }
  rt->queue.advance_now(plan.horizon);
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1)
    remaining_.notify_all();
}

std::size_t ParallelEngine::drain_all_mailboxes() {
  std::size_t drained = 0;
  const std::int32_t k = part_.shards;
  for (std::int32_t j = 0; j < k; ++j) {
    ShardRt& dst = *shards_[static_cast<std::size_t>(j)];
    for (std::int32_t i = 0; i < k; ++i) {
      Mailbox* box = i == j ? nullptr : mailbox(i, j);
      if (box == nullptr) continue;
      box->drain([&dst](CrossMsg&& m) {
        dst.drain_scratch.push_back(std::move(m));
      });
    }
    drained += flush_sorted(dst.drain_scratch, dst.queue);
  }
  return drained;
}

void ParallelEngine::advance_all(fs_t t) {
  for (auto& s : shards_) s->queue.advance_now(t);
}

std::size_t ParallelEngine::purge_owner(const void* owner) {
  std::size_t purged = 0;
  for (auto& s : shards_) purged += s->queue.purge_owner(owner);
  return purged;
}

std::uint64_t ParallelEngine::cross_messages() const {
  std::uint64_t total = 0;
  for (const auto& box : mail_)
    if (box) total += box->pushed();
  return total;
}

}  // namespace dtpsim::sim
