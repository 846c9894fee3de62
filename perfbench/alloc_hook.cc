// Process-wide operator-new hook: counts every heap allocation and every
// free, so the benchmark can report allocations per operation and heap
// blocks still held after a replay. Linked into the benchmark binary only.
#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::hook {
extern std::atomic<std::uint64_t> g_allocs;
extern std::atomic<std::uint64_t> g_frees;
}  // namespace perfbench::hook

namespace {
void* counted_alloc(std::size_t size) {
  perfbench::hook::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  perfbench::hook::g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
