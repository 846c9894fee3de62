// Multi-core sharded serving: N ServeLoops behind one port.
//
// Each shard is a full ServeLoop — its own thread, epoll reactor, timer
// wheel, connection table, per-shard header-block cache, and per-shard
// trace sink — so shards share no mutable state and the hot path takes no
// locks. Two ways for connections to reach a shard:
//
//   SO_REUSEPORT (default): every shard binds its own listener on the same
//   port and the kernel load-balances accepts across them — the nginx/h2o
//   multi-worker deployment shape.
//
//   Acceptor fallback: where SO_REUSEPORT is unavailable (or when forced,
//   for deterministic tests), one acceptor thread owns the single listener
//   and round-robins accepted fds into the shards' thread-safe mailboxes
//   (ServeLoop::post_connection).
//
// Shutdown broadcasts to every shard reactor (async-signal-safe eventfd
// wakes), so all shards GOAWAY + drain concurrently under their own
// deadline. After the threads join, per-shard ServeStats merge by summation
// and per-shard trace tapes replay whole, in shard order, into the caller's
// sink — connection segments never interleave across shards, so the merged
// trace is untorn. When that sink is a bounded RingRecorder, each tape is
// bounded to the same capacity, so trace memory stops growing with
// requests served; the merge carries each tape's evictions into the sink,
// which ends up exactly as if unbounded tapes had been replayed.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netio/serve.h"
#include "trace/recorder.h"
#include "util/status.h"

namespace h2r::netio {

/// Capacity of a shard's private tape feeding @p sink: a bounded
/// RingRecorder's own capacity (it keeps no more than its newest records),
/// 0 = unbounded for any other sink.
std::size_t shard_tape_capacity(const trace::Recorder* sink);

/// Replays @p tapes, in order, into @p sink: identical to replaying
/// unbounded tapes whole, provided each tape was sized with
/// shard_tape_capacity(&sink).
void merge_shard_tapes(
    std::span<const std::unique_ptr<trace::RingRecorder>> tapes,
    trace::Recorder& sink);

struct ShardedServeOptions {
  /// Per-shard configuration. `base.recorder` is the FINAL merged sink;
  /// shards record privately and merge at join. `base.port == 0` resolves
  /// to one kernel-assigned port shared by every shard.
  ServeOptions base;
  /// Number of serve shards (threads). 1 is exactly one ServeLoop.
  unsigned shards = 1;
  /// Skip SO_REUSEPORT and use the single-acceptor round-robin path even
  /// where the kernel supports shared ports. Deterministic: connection i
  /// (in accept order) lands on shard i % shards.
  bool force_accept_fallback = false;
};

class ShardedServe {
 public:
  /// Binds every shard's listener (or the fallback's single listener) so
  /// port() is valid before run(). SO_REUSEPORT failure on the first bind
  /// falls back to the acceptor automatically; forcing the fallback never
  /// touches SO_REUSEPORT.
  static Result<std::unique_ptr<ShardedServe>> create(
      const ShardedServeOptions& opts);
  ~ShardedServe();

  /// Serves until request_shutdown() and every shard's drain completes.
  /// Spawns shards-1 threads (+1 acceptor in fallback mode), runs shard 0
  /// on the calling thread, joins, then merges stats and traces. Returns
  /// the first shard error, if any.
  Status run();

  /// Async-signal-safe: broadcasts shutdown to every shard reactor (and
  /// the acceptor).
  void request_shutdown() noexcept;

  /// The shared port every shard answers on.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// True when the kernel is balancing accepts (SO_REUSEPORT path).
  [[nodiscard]] bool used_reuseport() const noexcept { return reuseport_; }
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

  void run_acceptor();
  void accept_some();

  std::vector<std::unique_ptr<ServeLoop>> shards_;
  /// Per-shard private trace sinks (see shard_tape_capacity), merged into
  /// opts_.base.recorder in shard order after the join. Sized to shards_
  /// when the caller supplied a sink, empty otherwise.
  std::vector<std::unique_ptr<trace::RingRecorder>> shard_tapes_;
  ShardedServeOptions opts_;
  std::uint16_t port_ = 0;
  bool reuseport_ = false;
  ServeStats merged_;

  // Acceptor-fallback state.
  Fd listener_;
  EpollLoop acceptor_loop_;
  std::uint64_t accept_rr_ = 0;  ///< round-robin cursor over shards
  /// Accept-path failures tallied by the acceptor thread (only the refused
  /// counters are ever touched); folded into merged_ after the join.
  ServeStats acceptor_stats_;
};

}  // namespace h2r::netio
