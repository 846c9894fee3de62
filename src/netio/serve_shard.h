// Sharded serving: N ServeLoop shards behind one port, the only way to
// serve.
//
// Each shard is a full ServeLoop — its own thread, epoll reactor, timer
// wheel, connection table, per-shard header-block cache, and per-shard
// trace sink — so shards share no mutable state and the hot path takes no
// locks. Every shard binds its own SO_REUSEPORT listener on the same port
// and the kernel load-balances accepts across them — the nginx/h2o
// multi-worker deployment shape. Which shard a connection lands on is the
// kernel's hash of its 4-tuple, not something the caller picks.
//
// Shutdown broadcasts to every shard reactor (async-signal-safe eventfd
// wakes), so all shards GOAWAY + drain concurrently under their own
// deadline. After the threads join, per-shard ServeStats merge by summation.
// Shard 0 runs on the thread that calls run() and records straight into the
// caller's ring; shards 1..N-1 record onto private tapes that append whole,
// in shard order, to that ring after the join — connection segments never
// interleave across shards, so the merged trace is untorn. Each private
// tape has the ring's capacity (unbounded for an unbounded ring), so trace
// memory stops growing with requests served under a bounded ring; the
// merge carries each tape's evictions into the ring, which ends up exactly
// as if every shard had recorded into it in turn.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netio/serve.h"
#include "trace/recorder.h"
#include "util/status.h"

namespace h2r::netio {

/// Appends @p tapes, in order, to @p sink: identical to replaying unbounded
/// tapes whole, provided each tape has @p sink's capacity.
void merge_shard_tapes(
    std::span<const std::unique_ptr<trace::RingRecorder>> tapes,
    trace::RingRecorder& sink);

struct ShardedServeOptions {
  /// Per-shard configuration. `base.recorder` is the FINAL merged ring; it
  /// must outlive the ShardedServe, and nothing else may touch it while
  /// run() is running. `base.port == 0` resolves to one kernel-assigned
  /// port shared by every shard.
  ServeOptions base;
  /// Number of serve shards (threads), 1..64. 1 is exactly one ServeLoop
  /// on the calling thread.
  unsigned shards = 1;
};

class ShardedServe {
 public:
  /// Binds every shard's SO_REUSEPORT listener so port() is valid before
  /// run(). A shard count outside 1..64 or an unknown profile key fails
  /// with InvalidArgument; any shard that fails to bind fails create()
  /// with its error.
  static Result<std::unique_ptr<ShardedServe>> create(
      const ShardedServeOptions& opts);
  ~ShardedServe();

  /// Serves until request_shutdown() and every shard's drain completes.
  /// Spawns shards-1 threads, runs shard 0 on the calling thread, joins,
  /// then merges stats and traces. Returns the first shard error, if any.
  Status run();

  /// Async-signal-safe: broadcasts shutdown to every shard reactor.
  void request_shutdown() noexcept;

  /// The shared port every shard answers on.
  [[nodiscard]] std::uint16_t port() const noexcept {
    return shards_.front()->port();
  }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Merged tallies — valid after run() returns.
  [[nodiscard]] const ServeStats& stats() const noexcept { return merged_; }
  /// Shard i's own tallies — valid after run() returns.
  [[nodiscard]] const ServeStats& shard_stats(std::size_t i) const {
    return shards_.at(i)->stats();
  }

 private:
  ShardedServe() = default;

  /// Private trace tapes of shards 1..N-1, each with the caller's ring's
  /// capacity, merged into opts_.base.recorder in shard order after the
  /// join. Empty when the caller supplied no ring. Declared before shards_ so a shard that
  /// flushes on destruction still finds its tape.
  std::vector<std::unique_ptr<trace::RingRecorder>> shard_tapes_;
  std::vector<std::unique_ptr<ServeLoop>> shards_;
  ShardedServeOptions opts_;
  ServeStats merged_;
};

}  // namespace h2r::netio
