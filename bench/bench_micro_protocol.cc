// Microbenchmarks of the protocol substrate: frame codec throughput,
// priority tree operations, and full request/response round trips through
// the engine — the costs underlying every scan probe.
#include <benchmark/benchmark.h>

#include "core/probes.h"
#include "net/transport.h"
#include "h2/frame_codec.h"
#include "h2/priority_tree.h"
#include "server/engine.h"
#include "server/site.h"

namespace {

using namespace h2r;

void BM_SerializeDataFrame(benchmark::State& state) {
  const auto payload = static_cast<std::size_t>(state.range(0));
  h2::Frame f = h2::make_data(1, Bytes(payload, 0x5A), false);
  std::size_t bytes = 0;
  for (auto _ : state) {
    bytes += h2::serialize_frame(f).size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SerializeDataFrame)->Arg(64)->Arg(1024)->Arg(16384);

// 64 DATA frames of 1 KiB each.
Bytes data_wire() {
  std::vector<h2::Frame> frames;
  for (int i = 0; i < 64; ++i) {
    frames.push_back(h2::make_data(1, Bytes(1024, 0x5A), false));
  }
  return h2::serialize_frames(frames);
}

// Parse and materialize every frame into an owning h2::Frame.
void BM_ParseFrameStream(benchmark::State& state) {
  const Bytes wire = data_wire();
  std::size_t parsed = 0;
  for (auto _ : state) {
    h2::FrameParser parser;
    parser.feed(wire);
    while (auto f = parser.next()) {
      if (!f->ok()) break;
      ++parsed;
    }
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(wire.size() * state.iterations()));
  benchmark::DoNotOptimize(parsed);
}
BENCHMARK(BM_ParseFrameStream);

// The frame parse stage alone, on the same wire: feed() copies it into the
// reassembly buffer and next_view() hands out views of the copy...
void BM_ParseFrameStreamView(benchmark::State& state) {
  const Bytes wire = data_wire();
  std::size_t body = 0;
  for (auto _ : state) {
    h2::FrameParser parser;
    parser.feed(wire);
    while (auto f = parser.next_view()) {
      if (!f->ok()) break;
      body += f->value().body.size();
    }
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(wire.size() * state.iterations()));
  benchmark::DoNotOptimize(body);
}
BENCHMARK(BM_ParseFrameStreamView);

// ...while parse_in_place() hands out views of the delivery itself, the
// path Http2Server::receive and ClientConnection::receive take.
void BM_ParseFrameStreamInPlace(benchmark::State& state) {
  const Bytes wire = data_wire();
  std::size_t body = 0;
  for (auto _ : state) {
    h2::FrameParser parser;
    auto frames = parser.parse_in_place(wire);
    while (auto f = frames.next()) {
      if (!f->ok()) break;
      body += f->value().body.size();
    }
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(wire.size() * state.iterations()));
  benchmark::DoNotOptimize(body);
}
BENCHMARK(BM_ParseFrameStreamInPlace);

// The server's body stage: one 16 KiB DATA payload per iteration, at a
// drifting start phase, into a reused output buffer.
void BM_ResourceBody(benchmark::State& state) {
  const server::Resource resource{.path = "/object/3", .size = 1 << 20};
  constexpr std::size_t kChunk = 16 * 1024;
  Bytes buffer;
  std::size_t offset = 0;
  for (auto _ : state) {
    buffer.clear();
    ByteWriter out(std::move(buffer));
    server::resource_body_into(out, resource, offset, kChunk);
    buffer = out.take();
    benchmark::DoNotOptimize(buffer.data());
    benchmark::ClobberMemory();
    offset = (offset + kChunk + 37) % (resource.size - kChunk);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(kChunk * state.iterations()));
}
BENCHMARK(BM_ResourceBody);

void BM_PriorityTreeChurn(benchmark::State& state) {
  const auto streams = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    h2::PriorityTree tree;
    for (std::uint32_t i = 1; i <= streams; ++i) {
      const std::uint32_t id = i * 2 - 1;
      (void)tree.declare(id, {.dependency = (i > 1 ? id - 2 : 0),
                              .weight_field = static_cast<std::uint8_t>(i % 256)});
    }
    // Reprioritize everything onto the root, then close all.
    for (std::uint32_t i = 1; i <= streams; ++i) {
      (void)tree.reprioritize(i * 2 - 1, {.dependency = 0});
    }
    for (std::uint32_t i = 1; i <= streams; ++i) {
      tree.remove(i * 2 - 1);
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(streams) * 3 * state.iterations());
}
BENCHMARK(BM_PriorityTreeChurn)->Arg(16)->Arg(128)->Arg(1024);

void BM_FullRequestResponse(benchmark::State& state) {
  const core::Target target =
      core::Target::testbed(server::h2o_profile());
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto server = target.make_server();
    core::ClientConnection client;
    const auto sid = client.send_request("/small");
    net::LockstepTransport(client.recorder()).run(client, server);
    bytes += client.data_received(sid);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_FullRequestResponse);

void BM_LargeDownload(benchmark::State& state) {
  const core::Target target =
      core::Target::testbed(server::h2o_profile());
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto server = target.make_server();
    core::ClientConnection client;
    const auto sid = client.send_request("/large/0");  // 512 KiB
    net::LockstepTransport(client.recorder()).run(client, server);
    bytes += client.data_received(sid);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_LargeDownload);

}  // namespace

BENCHMARK_MAIN();
