// Robustness tests for the server engine: a scanner-facing endpoint must
// survive arbitrary garbage, protocol-shaped garbage, and mutated valid
// traffic without crashing — failing *gracefully* with GOAWAY/RST is the
// only acceptable failure mode.
#include <gtest/gtest.h>

#include "core/client.h"
#include "net/transport.h"
#include "h2/frame_codec.h"
#include "server/engine.h"
#include "util/rng.h"

namespace h2r {
namespace {

using server::Http2Server;
using server::Site;

Http2Server fresh_server() {
  return Http2Server(server::h2o_profile(), Site::standard_testbed_site());
}

Bytes preface_bytes() {
  return Bytes(h2::kClientPreface.begin(), h2::kClientPreface.end());
}

class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, RawGarbageAfterPrefaceNeverCrashes) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    auto server = fresh_server();
    server.receive(preface_bytes());
    for (int chunk = 0; chunk < 20; ++chunk) {
      Bytes junk(rng.next_below(200), 0);
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
      server.receive(junk);
      (void)server.take_output();
      if (!server.alive()) break;
    }
  }
}

TEST_P(EngineFuzz, ProtocolShapedGarbageNeverCrashes) {
  // Well-framed but semantically wild frames: random types, flags, stream
  // ids and payloads. The engine must answer every one deterministically.
  Rng rng(GetParam() * 0xABCDu);
  for (int round = 0; round < 40; ++round) {
    auto server = fresh_server();
    server.receive(preface_bytes());
    for (int i = 0; i < 30 && server.alive(); ++i) {
      h2::Frame f;
      f.flags = static_cast<std::uint8_t>(rng.next_below(256));
      f.stream_id = static_cast<std::uint32_t>(rng.next_below(16));
      Bytes payload(rng.next_below(40), 0);
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_below(256));
      f.payload = h2::UnknownPayload{
          .type = static_cast<std::uint8_t>(rng.next_below(12)),
          .data = std::move(payload)};
      server.receive(h2::serialize_frame(f));
      (void)server.take_output();
    }
  }
}

TEST_P(EngineFuzz, MutatedValidSessionsNeverCrash) {
  Rng rng(GetParam() * 0x5151u);
  // Record one valid client session's bytes...
  Bytes valid = preface_bytes();
  {
    core::ClientConnection client;
    client.send_request("/");
    client.send_request("/small");
    client.send_ping({1, 2, 3, 4, 5, 6, 7, 8});
    client.send_window_update(0, 1000);
    const Bytes out = client.take_output();
    valid.assign(out.begin(), out.end());
  }
  // ...then replay bit-flipped variants.
  for (int trial = 0; trial < 150; ++trial) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.next_below(6);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    auto server = fresh_server();
    server.receive(mutated);
    (void)server.take_output();
  }
}

TEST_P(EngineFuzz, RandomValidOperationsKeepInvariants) {
  // A monkey client doing legal-ish things: the server must stay consistent
  // (responses complete, stream count bounded) or die with GOAWAY.
  Rng rng(GetParam() * 0x7777u);
  auto server = fresh_server();
  core::ClientConnection client;
  net::LockstepTransport transport(client.recorder());  // one connection
  std::vector<std::uint32_t> open;
  for (int step = 0; step < 120 && server.alive(); ++step) {
    switch (rng.next_below(6)) {
      case 0:
        open.push_back(client.send_request(
            rng.next_bool(0.5) ? "/small" : "/object/0"));
        break;
      case 1:
        if (!open.empty()) {
          client.send_rst_stream(open[rng.next_below(open.size())],
                                 h2::ErrorCode::kCancel);
        }
        break;
      case 2:
        if (!open.empty()) {
          client.send_priority(
              open[rng.next_below(open.size())],
              {.dependency = rng.next_bool(0.8)
                                 ? 0
                                 : open[rng.next_below(open.size())],
               .weight_field = static_cast<std::uint8_t>(rng.next_below(256))});
        }
        break;
      case 3:
        client.send_window_update(
            0, 1 + static_cast<std::uint32_t>(rng.next_below(1 << 16)));
        break;
      case 4:
        client.send_ping({9, 9, 9, 9, 9, 9, 9, 9});
        break;
      default:
        client.send_settings(
            {{h2::SettingId::kInitialWindowSize,
              static_cast<std::uint32_t>(rng.next_below(1 << 20))}});
        break;
    }
    transport.run(client, server);
    EXPECT_LE(server.active_stream_count(), open.size() + 1);
  }
}

TEST_P(EngineFuzz, LongRandomSessionsSweepClosedStreams) {
  // Long enough that closed streams pass the sweep batch many times over:
  // resets, late DATA and WINDOW_UPDATEs land on tracked and swept ids
  // alike, and the table stays bounded by the live streams.
  Rng rng(GetParam() * 0x3131u);
  auto server = fresh_server();
  core::ClientOptions options;
  options.keep = core::ClientOptions::Keep::kFrameSizes;
  core::ClientConnection client(options);
  net::LockstepTransport transport(client.recorder());
  const auto some_stream = [&] {  // any id opened so far
    return 1u + 2u * static_cast<std::uint32_t>(
                         rng.next_below((client.last_stream_id() + 1) / 2));
  };
  for (int step = 0; step < 1'500 && server.alive(); ++step) {
    switch (client.last_stream_id() == 0 ? 0 : rng.next_below(8)) {
      case 0:
      case 1:
        for (std::size_t n = 1 + rng.next_below(8); n > 0; --n) {
          client.send_request(rng.next_bool(0.7) ? "/small" : "/object/0");
        }
        break;
      case 2:
        client.send_request("/small", {}, /*end_stream=*/false);
        break;
      case 3:
        client.send_rst_stream(some_stream(), h2::ErrorCode::kCancel);
        break;
      case 4:
        client.send_frame(h2::make_data(some_stream(),
                                        Bytes(rng.next_below(64), 0),
                                        rng.next_bool(0.5)));
        break;
      case 5:
        client.send_window_update(
            some_stream(),
            1 + static_cast<std::uint32_t>(rng.next_below(4096)));
        break;
      case 6:
        client.send_settings(
            {{h2::SettingId::kInitialWindowSize,
              static_cast<std::uint32_t>(rng.next_below(1 << 20))}});
        break;
      default:
        client.send_ping({1, 1, 1, 1, 1, 1, 1, 1});
        break;
    }
    transport.run(client, server);
    ASSERT_LE(server.tracked_stream_count(),
              server.active_stream_count() +
                  Http2Server::kClosedStreamSweepBatch);
  }
  EXPECT_TRUE(server.alive());
  EXPECT_GT(client.last_stream_id(),
            8 * Http2Server::kClosedStreamSweepBatch);
  EXPECT_EQ(server.pending_response_octets(), server.pinned_response_octets());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz, ::testing::Range<std::uint64_t>(1, 7));

TEST(EngineFuzzEdge, TruncatedPrefaceThenGarbage) {
  auto server = fresh_server();
  const Bytes preface = preface_bytes();
  server.receive({preface.data(), 10});  // half the preface
  Bytes junk = {0xFF, 0xFF, 0xFF, 0xFF};
  server.receive(junk);  // mismatch mid-preface
  EXPECT_FALSE(server.alive());
}

TEST(EngineFuzzEdge, EmptyReceivesAreHarmless) {
  auto server = fresh_server();
  server.receive({});
  server.receive(preface_bytes());
  server.receive({});
  EXPECT_TRUE(server.alive());
}

TEST(EngineFuzzEdge, OutputAfterDeathIsRetrievableOnce) {
  auto server = fresh_server();
  const std::string junk = "NOT A PREFACE AT ALL......";
  server.receive(
      {reinterpret_cast<const std::uint8_t*>(junk.data()), junk.size()});
  EXPECT_FALSE(server.alive());
  const Bytes dying = server.take_output();
  EXPECT_FALSE(dying.empty());  // SETTINGS + GOAWAY
  EXPECT_TRUE(server.take_output().empty());
}

}  // namespace
}  // namespace h2r
