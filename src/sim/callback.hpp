#pragma once

/// \file callback.hpp
/// Small-buffer-optimized, move-only callable for the event engine.
///
/// Every scheduled event stores one of these. The dominant case in this
/// codebase is a lambda capturing `this` plus a word or two of payload
/// (frame pointer, arrival time), which fits the 40-byte inline buffer and
/// therefore costs zero heap allocations per event. `std::function` by
/// contrast heap-allocates anything beyond ~16 trivially-copyable bytes and
/// pays a type-erased manager call on every move — and events are moved on
/// every heap sift. Callables that are too big, over-aligned, or throwing on
/// move fall back to a single heap allocation, so correctness never depends
/// on fitting inline. An inline callable that is trivially copyable — the
/// common capture of `this` plus payload words — moves by memcpy and needs
/// no destroy call, so an event costs one indirect call (its invoke), as
/// much as a bare function pointer would.
///
/// The buffer is sized so sizeof(Callback) == 48 and the event-queue slot
/// that embeds it lands on exactly one 64-byte cache line (event_queue.hpp);
/// EventQueue counts inline misses (SimStats::callback_spills) so a capture
/// that outgrows the buffer shows up in instrumentation instead of silently
/// degrading the hot path.

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace dtpsim::sim {

/// Move-only `void()` callable with a 40-byte inline buffer.
class Callback {
 public:
  static constexpr std::size_t kInlineSize = 40;
  static constexpr std::size_t kInlineAlign = 8;

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}  // NOLINT: mirror std::function

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& f) {  // NOLINT: implicit, mirrors std::function
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &inline_ops<D>;
    } else {
      ptr_slot() = new D(std::forward<F>(f));
      ops_ = &heap_ops<D>;
    }
  }

  Callback(Callback&& other) noexcept { steal(other); }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  /// True if the stored callable lives in the inline buffer (no heap).
  bool is_inline() const noexcept { return ops_ != nullptr && !ops_->heap; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (!ops_->trivial) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-construct *src into dst, then destroy the source object.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    bool heap;
    bool trivial;  // inline and trivially copyable: memcpy moves, no destroy
  };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static constexpr Ops inline_ops = {
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* p) noexcept { static_cast<D*>(p)->~D(); },
      false,
      std::is_trivially_copyable_v<D>,
  };

  template <typename D>
  static constexpr Ops heap_ops = {
      [](void* p) { (*static_cast<D*>(*static_cast<void**>(p)))(); },
      [](void* dst, void* src) noexcept {
        *static_cast<void**>(dst) = *static_cast<void**>(src);
      },
      [](void* p) noexcept { delete static_cast<D*>(*static_cast<void**>(p)); },
      true,
      false,
  };

  void*& ptr_slot() noexcept { return *reinterpret_cast<void**>(buf_); }

  void steal(Callback& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      if (ops_->trivial) {
        std::memcpy(buf_, other.buf_, kInlineSize);
      } else {
        ops_->relocate(buf_, other.buf_);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

// The event-queue slot layout (one cache line per slot) depends on this.
static_assert(sizeof(Callback) == 48 && alignof(Callback) == 8,
              "Callback must stay 48 bytes / 8-aligned (see event_queue.hpp)");

}  // namespace dtpsim::sim
