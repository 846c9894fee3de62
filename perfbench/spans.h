// In-memory span log: the benchmark's own tracing. Spans are recorded by
// the benchmark's files around calls into the library's public functions
// (netio, server, hpack, h2, trace, core, net, corpus), kept in memory
// while the workload runs, and written out once at exit. A span's self
// time is its duration minus the part covered by its direct children.
//
// Single-threaded: only the thread driving the benchmark records spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint32_t parent;  ///< index + 1 of the enclosing span; 0 = root
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Totals {
    double total_ns = 0;
    double self_ns = 0;
    std::uint64_t count = 0;
  };

  /// While disabled, begin()/end() record nothing (the untraced run).
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Opens a span named @p name (a string literal) under the innermost open
  /// span. Returns a handle for end(); 0 when disabled.
  std::uint32_t begin(const char* name);
  void end(std::uint32_t handle);

  /// Per-name total and self time over every closed span.
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Writes one JSON object per span ({"name","id","parent","start_ns",
  /// "end_ns"}) to @p path. Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  ///< handles of open spans, innermost last
  bool enabled_ = false;
};

/// The process's span log.
SpanLog& spans();

/// RAII span on the process log.
class Scope {
 public:
  explicit Scope(const char* name) : handle_(spans().begin(name)) {}
  ~Scope() { spans().end(handle_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::uint32_t handle_;
};

/// Monotonic nanoseconds (the span clock).
std::int64_t now_ns();

}  // namespace perfbench
