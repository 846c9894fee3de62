// ClientConnection unit tests: the observation vocabulary every probe is
// built from must itself be trustworthy.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/client.h"
#include "net/transport.h"
#include "server/engine.h"
#include "server/profile.h"

namespace h2r::core {
namespace {

using server::Http2Server;
using server::Site;

Http2Server make_server() {
  return Http2Server(server::h2o_profile(), Site::standard_testbed_site());
}

ClientOptions keeping(ClientOptions::Keep keep) {
  ClientOptions options;
  options.keep = keep;
  return options;
}

/// The net::Transport replacement for the retired run_exchange shim: one
/// lockstep connection pump, wired to the client's recorder.
void pump(ClientConnection& client, Http2Server& server) {
  net::LockstepTransport(client.recorder()).run(client, server);
}

TEST(Client, EmitsPrefaceAndSettingsFirst) {
  ClientConnection client;
  const Bytes out = client.take_output();
  ASSERT_GT(out.size(), h2::kClientPreface.size());
  EXPECT_EQ(std::string(out.begin(),
                        out.begin() + static_cast<std::ptrdiff_t>(
                                          h2::kClientPreface.size())),
            h2::kClientPreface);
  h2::FrameParser parser;
  parser.feed({out.data() + h2::kClientPreface.size(),
               out.size() - h2::kClientPreface.size()});
  auto first = parser.next();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->ok());
  EXPECT_EQ(first->value().type(), h2::FrameType::kSettings);
}

TEST(Client, PlantsRequestedSettings) {
  ClientConnection client(
      {.settings = {{h2::SettingId::kInitialWindowSize, 1},
                    {h2::SettingId::kEnablePush, 0}}});
  const Bytes out = client.take_output();
  h2::FrameParser parser;
  parser.feed({out.data() + h2::kClientPreface.size(),
               out.size() - h2::kClientPreface.size()});
  auto first = parser.next();
  ASSERT_TRUE(first.has_value() && first->ok());
  const auto& entries = first->value().as<h2::SettingsPayload>().entries;
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, 0x4);
  EXPECT_EQ(entries[0].second, 1u);
}

TEST(Client, StreamIdsAreOddAndIncreasing) {
  ClientConnection client;
  EXPECT_EQ(client.send_request("/a"), 1u);
  EXPECT_EQ(client.send_request("/b"), 3u);
  EXPECT_EQ(client.send_request("/c"), 5u);
  EXPECT_EQ(client.last_stream_id(), 5u);
}

TEST(Client, EventsPreserveArrivalOrderAndSequence) {
  auto server = make_server();
  ClientConnection client;
  client.send_request("/small");
  pump(client, server);
  const auto& events = client.events();
  ASSERT_GE(events.size(), 3u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].sequence, i);
  }
  // SETTINGS arrives before any response frame.
  EXPECT_EQ(events[0].frame.type(), h2::FrameType::kSettings);
}

TEST(Client, FramesOfFiltersByTypeAndStream) {
  auto server = make_server();
  ClientConnection client;
  const auto a = client.send_request("/small");
  const auto b = client.send_request("/style.css");
  pump(client, server);
  const auto data_a = client.frames_of(h2::FrameType::kData, a);
  const auto data_b = client.frames_of(h2::FrameType::kData, b);
  const auto all_data = client.frames_of(h2::FrameType::kData);
  EXPECT_FALSE(data_a.empty());
  EXPECT_FALSE(data_b.empty());
  EXPECT_EQ(all_data.size(), data_a.size() + data_b.size());
  for (const auto* ev : data_a) EXPECT_EQ(ev->frame.stream_id, a);
}

TEST(Client, RecordsServerSettingsAndAcks) {
  auto server = make_server();
  ClientConnection client;
  pump(client, server);
  EXPECT_TRUE(client.server_settings_received());
  EXPECT_EQ(client.server_settings().max_frame_size(), 16'777'215u);
  EXPECT_GT(client.server_settings_entry_count(), 0u);
}

TEST(Client, AnswersServerPing) {
  // If the *server* pinged us we must ACK — exercised via a raw frame.
  ClientConnection client;
  const Bytes ping = h2::serialize_frame(h2::make_ping({1, 2, 3, 4, 5, 6, 7, 8}));
  client.receive(ping);
  const Bytes out = client.take_output();
  // Skip preface + SETTINGS, find the PING ACK.
  h2::FrameParser parser;
  parser.feed({out.data() + h2::kClientPreface.size(),
               out.size() - h2::kClientPreface.size()});
  bool saw_ack = false;
  while (auto f = parser.next()) {
    ASSERT_TRUE(f->ok());
    if (f->value().type() == h2::FrameType::kPing &&
        f->value().has_flag(h2::flags::kAck)) {
      saw_ack = true;
    }
  }
  EXPECT_TRUE(saw_ack);
}

TEST(Client, ParseErrorPoisonsConnection) {
  ClientConnection client;
  // A 7-octet PING violates §6.7's fixed length: FRAME_SIZE_ERROR.
  Bytes bogus = {0x00, 0x00, 0x07, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00,
                 1,    2,    3,    4,    5,    6,    7};
  client.receive(bogus);
  EXPECT_FALSE(client.alive());
}

TEST(Client, RstRecordsCode) {
  ClientConnection client;
  client.receive(h2::serialize_frame(
      h2::make_rst_stream(5, h2::ErrorCode::kEnhanceYourCalm)));
  EXPECT_EQ(client.rst_on(5),
            std::optional<h2::ErrorCode>(h2::ErrorCode::kEnhanceYourCalm));
  EXPECT_EQ(client.rst_on(7), std::nullopt);
}

TEST(Client, GoawayRecordsCodeAndDebug) {
  ClientConnection client;
  client.receive(h2::serialize_frame(
      h2::make_goaway(9, h2::ErrorCode::kProtocolError, "boom")));
  ASSERT_TRUE(client.goaway_received());
  EXPECT_EQ(client.goaway()->last_stream_id, 9u);
  EXPECT_EQ(std::string(client.goaway()->debug_data.begin(),
                        client.goaway()->debug_data.end()),
            "boom");
}

TEST(Client, AutoWindowUpdatesCanBeDisabledIndependently) {
  // Connection updates off, stream updates on: the server can refill
  // streams but the connection window eventually starves.
  auto server = make_server();
  ClientOptions opts;
  opts.auto_connection_window_update = false;
  opts.auto_stream_window_update = true;
  ClientConnection client(opts);
  const auto sid = client.send_request("/large/0");  // 512 KiB
  pump(client, server);
  EXPECT_EQ(client.data_received(sid), h2::kDefaultInitialWindowSize);
  EXPECT_FALSE(client.stream_complete(sid));
}

// A HEADERS+END_STREAM whose block is 0x80 (indexed field 0, which
// RFC 7541 §6.1 forbids). The probe modes record the frame with no header
// list and still complete the stream; the completions-only mode has no
// event to carry that evidence, so the connection fails instead.
Bytes headers_with_bad_block() {
  return h2::serialize_frame(h2::make_headers(1, Bytes{0x80},
                                              /*end_stream=*/true,
                                              /*end_headers=*/true));
}

TEST(Client, UndecodableBlockFailsCompletionsConnection) {
  ClientConnection client(keeping(ClientOptions::Keep::kCompletions));
  const std::uint32_t id = client.send_request("/");
  ASSERT_EQ(id, 1u);
  const Bytes frame = headers_with_bad_block();
  client.receive(frame);
  EXPECT_FALSE(client.alive());
  EXPECT_EQ(client.terminal().state, ClientTerminal::kProtocolError);
  EXPECT_EQ(client.terminal().status.code(), StatusCode::kCompressionError);
  EXPECT_EQ(client.terminal().status.message(), "HPACK index 0 is invalid");
  EXPECT_EQ(client.terminal().byte_offset, 0u);
  EXPECT_EQ(client.terminal().frame_type,
            static_cast<std::uint8_t>(h2::FrameType::kHeaders));
  EXPECT_TRUE(client.terminal().frame_type_known);
  EXPECT_FALSE(client.stream_complete(1));
  EXPECT_TRUE(client.events().empty());
}

TEST(Client, UndecodableBlockIsEvidenceInProbeModes) {
  for (const auto keep :
       {ClientOptions::Keep::kFrames, ClientOptions::Keep::kFrameSizes}) {
    ClientConnection client(keeping(keep));
    client.send_request("/");
    client.receive(headers_with_bad_block());
    EXPECT_TRUE(client.alive());
    EXPECT_EQ(client.terminal().state, ClientTerminal::kQuiescent);
    EXPECT_TRUE(client.stream_complete(1));
    ASSERT_EQ(client.events().size(), 1u);
    EXPECT_FALSE(client.events()[0].headers.has_value());
    EXPECT_EQ(client.response_headers(1), std::nullopt);
  }
}

/// What one closed-loop lockstep connection left behind in the client.
struct ClosedLoop {
  std::uint64_t decoder_inserts = 0;
  std::size_t decoder_octets = 0;
  std::size_t c2s_octets = 0;
  std::size_t s2c_octets = 0;
  std::size_t pushes = 0;
  std::size_t events = 0;
};

/// 2,000 requests kept 16 in flight against @p profile, every tenth the page
/// (which h2o answers with three pushes), then a drain to quiescence. Every
/// request must complete.
ClosedLoop run_closed_loop(const char* profile, ClientOptions::Keep keep) {
  constexpr std::uint32_t kRequests = 2'000;
  constexpr std::size_t kInFlight = 16;
  Http2Server server(server::profile_by_key(profile),
                     Site::standard_testbed_site());
  ClientConnection client(keeping(keep));
  ClosedLoop out;
  std::vector<std::uint32_t> in_flight;
  std::uint32_t issued = 0;
  std::uint32_t completed = 0;
  const auto round = [&] {
    const Bytes c2s = client.take_output();
    out.c2s_octets += c2s.size();
    if (!c2s.empty()) server.receive(c2s);
    const Bytes s2c = server.take_output();
    out.s2c_octets += s2c.size();
    client.receive(s2c);
    return !c2s.empty() || !s2c.empty();
  };
  while (completed < kRequests) {
    while (issued < kRequests && in_flight.size() < kInFlight) {
      in_flight.push_back(
          client.send_request(issued % 10 == 0 ? "/" : "/small"));
      ++issued;
    }
    if (!round()) {
      ADD_FAILURE() << profile << ": stalled after " << completed;
      return out;
    }
    const auto done = std::remove_if(
        in_flight.begin(), in_flight.end(),
        [&](std::uint32_t id) { return client.stream_complete(id); });
    completed += static_cast<std::uint32_t>(in_flight.end() - done);
    in_flight.erase(done, in_flight.end());
  }
  while (round()) {
  }
  EXPECT_TRUE(client.alive()) << profile;
  EXPECT_EQ(client.terminal().state, ClientTerminal::kQuiescent) << profile;
  for (std::uint32_t id = 1; id < 2 * kRequests; id += 2) {
    EXPECT_TRUE(client.stream_complete(id)) << profile << " stream " << id;
  }
  out.decoder_inserts = client.decoder().table().insert_count();
  out.decoder_octets = client.decoder().table().size_octets();
  out.pushes = client.pushes().size();
  out.events = client.events().size();
  return out;
}

TEST(Client, CompletionsModeKeepsNoFramesAndTracksTheDecoderTable) {
  for (const char* profile : {"nginx", "h2o"}) {
    const ClosedLoop lean =
        run_closed_loop(profile, ClientOptions::Keep::kCompletions);
    const ClosedLoop full =
        run_closed_loop(profile, ClientOptions::Keep::kFrames);
    EXPECT_EQ(lean.events, 0u) << profile;
    EXPECT_EQ(lean.pushes, 0u) << profile;
    EXPECT_GT(full.events, 2'000u) << profile;
    // The same exchange on the wire, so the same decoder table at the end.
    EXPECT_EQ(lean.c2s_octets, full.c2s_octets) << profile;
    EXPECT_EQ(lean.s2c_octets, full.s2c_octets) << profile;
    EXPECT_EQ(lean.decoder_inserts, full.decoder_inserts) << profile;
    EXPECT_EQ(lean.decoder_octets, full.decoder_octets) << profile;
    if (server::profile_by_key(profile).supports_push) {
      EXPECT_EQ(full.pushes, 3u * 200u) << profile;
      EXPECT_GT(lean.decoder_inserts, 0u) << profile;
    }
  }
}

}  // namespace
}  // namespace h2r::core
