#include "netio/serve_shard.h"

#include <thread>
#include <utility>

namespace h2r::netio {

std::size_t shard_tape_bound(const trace::Recorder* sink) {
  const auto* ring = dynamic_cast<const trace::RingRecorder*>(sink);
  return ring != nullptr ? ring->capacity() : 0;
}

void merge_shard_tapes(
    std::span<const std::unique_ptr<trace::RingRecorder>> tapes,
    trace::Recorder& sink) {
  auto* ring = dynamic_cast<trace::RingRecorder*>(&sink);
  for (const auto& tape : tapes) {
    if (ring != nullptr) {
      ring->append_tape(*tape);
    } else {
      tape->replay_into(sink);
    }
  }
}

ShardedServe::~ShardedServe() = default;

Result<std::unique_ptr<ShardedServe>> ShardedServe::create(
    const ShardedServeOptions& opts) {
  if (opts.shards == 0 || opts.shards > 64) {
    return InvalidArgumentError("shards must be in 1..64");
  }
  // make_unique can't reach the private ctor.
  std::unique_ptr<ShardedServe> sharded(new ShardedServe());
  sharded->opts_ = opts;

  // Shard 0 resolves the port (opts.base.port may be 0 = ephemeral);
  // siblings bind the same one.
  std::uint16_t port = opts.base.port;
  for (unsigned i = 0; i < opts.shards; ++i) {
    ServeOptions shard_opts = opts.base;
    shard_opts.port = port;
    if (i > 0 && opts.base.recorder != nullptr) {
      // Shard 0 shares the caller's thread, so it records straight into
      // the sink. A sibling's tape accumulates its flushed connection
      // segments until the post-join merge, and keeps no more than the
      // sink can.
      sharded->shard_tapes_.push_back(std::make_unique<trace::RingRecorder>(
          shard_tape_bound(opts.base.recorder)));
      shard_opts.recorder = sharded->shard_tapes_.back().get();
    }
    auto shard = ServeLoop::create(shard_opts);
    if (!shard.ok()) return shard.status();
    if (i == 0) port = shard.value()->port();
    sharded->shards_.push_back(std::move(shard).value());
  }
  return sharded;
}

void ShardedServe::request_shutdown() noexcept {
  // Eventfd writes all the way down — safe from signal handlers, and every
  // shard begins its GOAWAY drain concurrently.
  for (const auto& shard : shards_) shard->request_shutdown();
}

Status ShardedServe::run() {
  std::vector<std::thread> threads;
  std::vector<Status> results(shards_.size(), OkStatus());
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    threads.emplace_back(
        [this, i, &results] { results[i] = shards_[i]->run(); });
  }
  results[0] = shards_[0]->run();  // shard 0 rides the calling thread
  for (auto& t : threads) t.join();

  // Merge after every thread has quiesced, so nothing tears: stats are
  // pure sums, and the siblings' tapes follow shard 0's records whole, in
  // shard order.
  merged_ = ServeStats{};
  for (const auto& shard : shards_) merged_.merge(shard->stats());
  if (opts_.base.recorder != nullptr) {
    merge_shard_tapes(shard_tapes_, *opts_.base.recorder);
  }
  for (const Status& s : results) {
    if (!s.ok()) return s;
  }
  return OkStatus();
}

}  // namespace h2r::netio
