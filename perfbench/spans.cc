#include "spans.h"

#include <pthread.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>

#include "bench.h"

namespace perfbench {

namespace hook {
// Bumped by alloc_hook.cc when it is linked in.
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};
}  // namespace hook

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double wall_s() { return static_cast<double>(now_ns()) * 1e-9; }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t heap_allocations() {
  return hook::g_allocs.load(std::memory_order_relaxed);
}

std::int64_t live_heap_blocks() {
  return static_cast<std::int64_t>(hook::g_allocs.load()) -
         static_cast<std::int64_t>(hook::g_frees.load());
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

std::uint32_t SpanLog::begin(const char* name) {
  if (!enabled_) return 0;
  const std::uint32_t parent = open_.empty() ? 0 : open_.back();
  spans_.push_back({name, parent, now_ns(), -1});
  const auto handle = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(handle);
  return handle;
}

void SpanLog::end(std::uint32_t handle) {
  if (handle == 0) return;
  spans_[handle - 1].end_ns = now_ns();
  // Spans close innermost-first; tolerate a handle closed out of order by
  // unwinding to it.
  while (!open_.empty()) {
    const std::uint32_t top = open_.back();
    open_.pop_back();
    if (top == handle) break;
  }
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.end_ns < 0 || s.parent == 0) continue;
    child_ns[s.parent - 1] += static_cast<double>(s.end_ns - s.start_ns);
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    Totals& t = out[s.name];
    const auto d = static_cast<double>(s.end_ns - s.start_ns);
    t.total_ns += d;
    t.self_ns += d - child_ns[i];
    ++t.count;
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%zu,\"parent\":%u,\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 s.name, i + 1, s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
