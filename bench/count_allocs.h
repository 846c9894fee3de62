// Process-wide heap-allocation counter: replaces the global operator new
// and operator delete so that h2r::bench::heap_allocations() reads every
// heap allocation the process makes through an unaligned form of new.
//
// Replaceable allocation functions must be non-inline definitions with
// external linkage, so include this header in exactly one translation unit
// of an executable: a single-TU bench or the allocation-budget test. Every
// unaligned form of new and delete is replaced, the std::nothrow ones
// included, so no block comes from one allocator and goes back to another:
// std::stable_sort takes its buffer from the nothrow form, and under ASan a
// block from the unreplaced form, freed through this free(), aborts with
// alloc-dealloc-mismatch. The std::align_val_t forms stay the library's;
// they pair only with each other, and their allocations are not counted
// (no type in the project is over-aligned).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace h2r::bench {
inline std::atomic<std::uint64_t> g_heap_allocations{0};
inline std::uint64_t heap_allocations() noexcept {
  return g_heap_allocations.load(std::memory_order_relaxed);
}
}  // namespace h2r::bench

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  h2r::bench::g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size) {
  if (void* p = ::operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// GCC inlines these into their callers and then warns that free()
// releases a block from operator new, which is the pairing they implement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
