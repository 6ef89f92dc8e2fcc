#pragma once
// Free-list slab arena indexed by 32-bit handles, for per-request state
// that is created and destroyed millions of times per simulation (the
// cloud cluster's query/leaf-call records foremost).  Compared to
// make_shared-per-request this keeps all records in one contiguous
// vector (cache locality), reuses freed slots without touching the
// allocator (allocation-free in steady state once the high-water mark is
// reached), and replaces 16-byte pointers with 4-byte handles inside
// closures, which keeps event captures inside InlineFunction's inline
// buffer.
//
// Lifetime is managed by an intrusive, non-atomic reference count per
// slot (single-threaded simulators only).  `acquire()` returns a slot
// with one reference owned by the caller; `retain`/`release` adjust it.
// When the count reaches zero the slot's value is reset to a
// default-constructed T (running destructors of anything it owns) and the
// slot goes back on the free list.
//
// Handles stay valid across growth (they are indices, not pointers), but
// a `T&` from operator[] is invalidated by the next acquire() -- re-index
// after any call that can create a slot.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace arch21 {

template <typename T>
class Slab {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kNull = 0xffffffffu;

  /// Take a free slot (or grow by one) and hand it to the caller with a
  /// reference count of 1.  The slot's value is default-constructed.
  Handle acquire() {
    Handle h;
    if (!free_.empty()) {
      h = free_.back();
      free_.pop_back();
    } else {
      h = static_cast<Handle>(items_.size());
      items_.emplace_back();
    }
    items_[h].refs = 1;
    ++live_;
    if (live_ > live_hwm_) live_hwm_ = live_;
    return h;
  }

  void retain(Handle h) noexcept {
    assert(h < items_.size() && items_[h].refs > 0);
    ++items_[h].refs;
  }

  /// Drop one reference.  Returns true when that was the last reference:
  /// the slot has been reset and recycled (the caller may need to release
  /// resources the value referenced *before* calling; see cloud/client.hpp's
  /// release_call for the cross-slab pattern).
  bool release(Handle h) {
    assert(h < items_.size() && items_[h].refs > 0);
    if (--items_[h].refs != 0) return false;
    items_[h].value = T{};
    free_.push_back(h);
    --live_;
    return true;
  }

  T& operator[](Handle h) noexcept {
    assert(h < items_.size() && items_[h].refs > 0);
    return items_[h].value;
  }
  const T& operator[](Handle h) const noexcept {
    assert(h < items_.size() && items_[h].refs > 0);
    return items_[h].value;
  }

  std::uint32_t refs(Handle h) const noexcept { return items_[h].refs; }

  /// Slots currently held (acquired and not yet fully released).
  std::size_t live() const noexcept { return live_; }
  /// High-water mark of *simultaneously* live slots -- the arena's true
  /// working-set size, which the observability layer reports as an
  /// occupancy gauge (capacity_used() can exceed it only via free-list
  /// fragmentation, which this design does not have).
  std::size_t high_water() const noexcept { return live_hwm_; }
  /// High-water mark of slots ever created.
  std::size_t capacity_used() const noexcept { return items_.size(); }

  void reserve(std::size_t n) {
    items_.reserve(n);
    free_.reserve(n);
  }

 private:
  struct Item {
    T value{};
    std::uint32_t refs = 0;
  };
  std::vector<Item> items_;
  std::vector<Handle> free_;
  std::size_t live_ = 0;
  std::size_t live_hwm_ = 0;
};

}  // namespace arch21
