#include "netio/serve_shard.h"

#include <cerrno>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <thread>
#include <utility>

namespace h2r::netio {

std::size_t shard_tape_capacity(const trace::Recorder* sink) {
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
    return InternalError("shards must be in 1..64");
  }
  // make_unique can't reach the private ctor.
  std::unique_ptr<ShardedServe> sharded(new ShardedServe());
  sharded->opts_ = opts;

  const auto shard_sink = [&](std::size_t i) -> trace::Recorder* {
    if (opts.base.recorder == nullptr) return nullptr;
    while (sharded->shard_tapes_.size() <= i) {
      // Per-connection rings already bound memory; this tape accumulates
      // their flushed segments until the post-join merge, and keeps no
      // more than the final sink can.
      sharded->shard_tapes_.push_back(std::make_unique<trace::RingRecorder>(
          shard_tape_capacity(opts.base.recorder)));
    }
    return sharded->shard_tapes_[i].get();
  };

  if (!opts.force_accept_fallback) {
    // SO_REUSEPORT path: shard 0 resolves the port (opts.base.port may be
    // 0 = ephemeral), siblings bind the same one.
    std::uint16_t port = opts.base.port;
    bool supported = true;
    for (unsigned i = 0; i < opts.shards; ++i) {
      ServeOptions shard_opts = opts.base;
      shard_opts.port = port;
      shard_opts.reuse_port = true;
      shard_opts.recorder = shard_sink(i);
      auto shard = ServeLoop::create(shard_opts);
      if (!shard.ok()) {
        if (i == 0 && shard.status().code() == StatusCode::kRefused) {
          supported = false;  // kernel lacks SO_REUSEPORT: fall back
          break;
        }
        return shard.status();
      }
      if (i == 0) port = shard.value()->port();
      sharded->shards_.push_back(std::move(shard).value());
    }
    if (supported) {
      sharded->reuseport_ = true;
      sharded->port_ = port;
      return sharded;
    }
    sharded->shards_.clear();
  }

  // Acceptor fallback: one plain listener here, external-accept shards fed
  // round-robin through their mailboxes.
  if (!sharded->acceptor_loop_.status().ok()) {
    return sharded->acceptor_loop_.status();
  }
  auto listener = listen_loopback(opts.base.port, opts.base.backlog);
  if (!listener.ok()) return listener.status();
  sharded->listener_ = std::move(listener).value();
  auto port = local_port(sharded->listener_.get());
  if (!port.ok()) return port.status();
  sharded->port_ = port.value();
  for (unsigned i = 0; i < opts.shards; ++i) {
    ServeOptions shard_opts = opts.base;
    shard_opts.external_accept = true;
    shard_opts.recorder = shard_sink(i);
    auto shard = ServeLoop::create(shard_opts);
    if (!shard.ok()) return shard.status();
    sharded->shards_.push_back(std::move(shard).value());
  }
  return sharded;
}

void ShardedServe::request_shutdown() noexcept {
  // Eventfd writes all the way down — safe from signal handlers, and every
  // shard begins its GOAWAY drain concurrently.
  for (const auto& shard : shards_) shard->request_shutdown();
  acceptor_loop_.request_shutdown();
}

void ShardedServe::run_acceptor() {
  class Handler final : public IoHandler {
   public:
    explicit Handler(ShardedServe& sharded) : sharded_(sharded) {}
    void on_ready(std::uint32_t events) override {
      (void)events;
      sharded_.accept_some();
    }

   private:
    ShardedServe& sharded_;
  };
  Handler handler(*this);
  if (!acceptor_loop_.add(listener_.get(), &handler, EPOLLIN).ok()) {
    ++acceptor_stats_.errors["epoll-add"];
    return;
  }
  while (true) {
    auto polled = acceptor_loop_.poll(-1);
    if (!polled.ok()) break;
    if (acceptor_loop_.shutdown_requested()) break;
  }
  acceptor_loop_.remove(listener_.get());
  listener_.reset();
}

void ShardedServe::accept_some() {
  while (true) {
    Fd fd(::accept4(listener_.get(), nullptr, nullptr,
                    SOCK_NONBLOCK | SOCK_CLOEXEC));
    if (!fd.valid()) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      ++acceptor_stats_.accept_refused;
      ++acceptor_stats_.errors[errno_key(errno)];
      return;
    }
    // Deterministic round-robin: accept i lands on shard i % N. The shard
    // counts it accepted when its mailbox dispatches.
    ServeLoop& shard = *shards_[accept_rr_ % shards_.size()];
    ++accept_rr_;
    shard.post_connection(fd.release());
  }
}

Status ShardedServe::run() {
  std::vector<std::thread> threads;
  std::vector<Status> results(shards_.size(), OkStatus());
  std::thread acceptor;
  if (!reuseport_) acceptor = std::thread([this] { run_acceptor(); });
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    threads.emplace_back(
        [this, i, &results] { results[i] = shards_[i]->run(); });
  }
  results[0] = shards_[0]->run();  // shard 0 rides the calling thread
  for (auto& t : threads) t.join();
  if (acceptor.joinable()) acceptor.join();

  // Merge after every thread has quiesced, so nothing tears: stats are
  // pure sums, trace tapes replay whole in shard order.
  merged_ = ServeStats{};
  for (const auto& shard : shards_) merged_.merge(shard->stats());
  merged_.merge(acceptor_stats_);
  if (opts_.base.recorder != nullptr) {
    merge_shard_tapes(shard_tapes_, *opts_.base.recorder);
  }
  for (const Status& s : results) {
    if (!s.ok()) return s;
  }
  return OkStatus();
}

}  // namespace h2r::netio
