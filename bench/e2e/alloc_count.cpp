// Counting allocator for util.allocs_per_trial: every replaceable
// non-aligned operator new routes through here (the aligned forms keep
// the library's malloc-compatible defaults).  Kept in its own
// translation unit so no caller sees these bodies inlined.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "layers.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

std::uint64_t e2e::allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}
