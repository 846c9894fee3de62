// Server engine unit/integration tests: connection lifecycle, request
// handling, flow control enforcement, scheduling, push, error reactions.
#include <gtest/gtest.h>

#include "core/client.h"
#include "net/transport.h"
#include "server/engine.h"
#include "server/profile.h"
#include "server/site.h"

namespace h2r {
namespace {

using core::ClientConnection;
using core::ClientOptions;
using h2::ErrorCode;
using h2::FrameType;
using h2::SettingId;
using server::Http2Server;
using server::ServerProfile;
using server::Site;

ServerProfile plain_profile() {
  // A fully conformant profile for behaviour-neutral tests.
  ServerProfile p = server::h2o_profile();
  return p;
}

Http2Server make_server(ServerProfile p = plain_profile()) {
  return Http2Server(std::move(p), Site::standard_testbed_site());
}

/// The net::Transport replacement for the retired run_exchange shim: one
/// lockstep connection pump, wired to the client's recorder.
void pump(ClientConnection& client, Http2Server& server) {
  net::LockstepTransport(client.recorder()).run(client, server);
}

TEST(Engine, SendsSettingsPrefaceImmediately) {
  auto server = make_server();
  const Bytes out = server.take_output();
  ASSERT_FALSE(out.empty());
  h2::FrameParser parser;
  auto frames = parser.parse_in_place(out);
  auto first = frames.next();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->ok());
  EXPECT_EQ(first->value().type(), FrameType::kSettings);
}

TEST(Engine, NginxAnnouncesZeroWindowThenUpdates) {
  auto server = Http2Server(server::nginx_profile(),
                            Site::standard_testbed_site());
  ClientConnection client;
  pump(client, server);
  EXPECT_EQ(client.server_settings().raw(SettingId::kInitialWindowSize),
            std::optional<std::uint32_t>(0));
  EXPECT_GT(client.preemptive_window_bonus(), 0u);
}

TEST(Engine, BadPrefaceKillsConnection) {
  auto server = make_server();
  const std::string junk = "GET / HTTP/1.1\r\n\r\n";
  server.receive({reinterpret_cast<const std::uint8_t*>(junk.data()),
                  junk.size()});
  EXPECT_FALSE(server.alive());
  // The dying breath is a GOAWAY.
  ClientConnection client;
  client.receive(server.take_output());
  EXPECT_TRUE(client.goaway_received());
}

TEST(Engine, ServesSimpleGet) {
  auto server = make_server();
  ClientConnection client;
  const auto sid = client.send_request("/small");
  pump(client, server);
  auto headers = client.response_headers(sid);
  ASSERT_NE(headers, nullptr);
  EXPECT_EQ(hpack::find_header(*headers, ":status"), "200");
  EXPECT_EQ(hpack::find_header(*headers, "server"), "h2o/1.6.2");
  EXPECT_EQ(hpack::find_header(*headers, "content-length"), "256");
  EXPECT_EQ(client.data_received(sid), 256u);
  EXPECT_TRUE(client.stream_complete(sid));
}

TEST(Engine, Returns404ForUnknownPath) {
  auto server = make_server();
  ClientConnection client;
  const auto sid = client.send_request("/no/such/thing");
  pump(client, server);
  auto headers = client.response_headers(sid);
  ASSERT_NE(headers, nullptr);
  EXPECT_EQ(hpack::find_header(*headers, ":status"), "404");
  EXPECT_TRUE(client.stream_complete(sid));
}

TEST(Engine, ResponseBodyIsDeterministic) {
  auto s1 = make_server();
  auto s2 = make_server();
  ClientConnection c1, c2;
  const auto id1 = c1.send_request("/small");
  const auto id2 = c2.send_request("/small");
  pump(c1, s1);
  pump(c2, s2);
  const auto d1 = c1.frames_of(FrameType::kData, id1);
  const auto d2 = c2.frames_of(FrameType::kData, id2);
  ASSERT_FALSE(d1.empty());
  ASSERT_EQ(d1.size(), d2.size());
  EXPECT_EQ(d1.front()->frame.as<h2::DataPayload>().data,
            d2.front()->frame.as<h2::DataPayload>().data);
}

TEST(Engine, LargeDownloadCompletesAcrossWindowRefills) {
  auto server = make_server();
  ClientConnection client;
  const auto sid = client.send_request("/large/0");
  pump(client, server);
  EXPECT_EQ(client.data_received(sid), 512u * 1024u);
  EXPECT_TRUE(client.stream_complete(sid));
}

TEST(Engine, RespectsTinyStreamWindow) {
  auto server = make_server();
  ClientConnection client({.settings = {{SettingId::kInitialWindowSize, 1}}});
  const auto sid = client.send_request("/small");
  pump(client, server);
  const auto data = client.frames_of(FrameType::kData, sid);
  ASSERT_FALSE(data.empty());
  EXPECT_EQ(data.front()->frame.as<h2::DataPayload>().data.size(), 1u);
  EXPECT_TRUE(client.stream_complete(sid));  // 256 one-octet frames later
}

TEST(Engine, PingAnsweredWithIdenticalPayload) {
  auto server = make_server();
  ClientConnection client;
  const std::array<std::uint8_t, 8> opaque = {9, 8, 7, 6, 5, 4, 3, 2};
  client.send_ping(opaque);
  pump(client, server);
  const auto pings = client.frames_of(FrameType::kPing);
  ASSERT_EQ(pings.size(), 1u);
  EXPECT_TRUE(pings.front()->frame.has_flag(h2::flags::kAck));
  EXPECT_EQ(pings.front()->frame.as<h2::PingPayload>().opaque, opaque);
}

TEST(Engine, PushedResourcesArriveWhenEnabled) {
  auto server = make_server();  // h2o profile pushes
  ClientConnection client;
  client.send_request("/");
  pump(client, server);
  ASSERT_EQ(client.pushes().size(), 3u);  // style.css, app.js, logo.png
  for (const auto& [promised, request] : client.pushes()) {
    EXPECT_EQ(promised % 2, 0u) << "push streams must be even";
    EXPECT_TRUE(client.stream_complete(promised));
    EXPECT_GT(client.data_received(promised), 0u);
  }
}

TEST(Engine, PushSuppressedByClientSetting) {
  auto server = make_server();
  ClientConnection client({.settings = {{SettingId::kEnablePush, 0}}});
  client.send_request("/");
  pump(client, server);
  EXPECT_TRUE(client.pushes().empty());
}

TEST(Engine, PushSuppressedByProfile) {
  auto server = Http2Server(server::nginx_profile(),
                            Site::standard_testbed_site());
  ClientConnection client;
  client.send_request("/");
  pump(client, server);
  EXPECT_TRUE(client.pushes().empty());
}

TEST(Engine, RefusesStreamsBeyondConcurrencyLimit) {
  ServerProfile p = plain_profile();
  p.max_concurrent_streams = 1;
  auto server = Http2Server(p, Site::standard_testbed_site());
  ClientConnection client;
  const auto first = client.send_request("/large/0");
  const auto second = client.send_request("/large/1");
  pump(client, server);
  EXPECT_FALSE(client.rst_on(first).has_value());
  EXPECT_EQ(client.rst_on(second),
            std::optional<ErrorCode>(ErrorCode::kRefusedStream));
  EXPECT_TRUE(client.stream_complete(first));
}

TEST(Engine, ClientRstCancelsResponse) {
  auto server = make_server();
  core::ClientOptions opts;
  opts.auto_stream_window_update = false;  // keep the download incomplete
  ClientConnection client(opts);
  const auto sid = client.send_request("/large/0");
  pump(client, server);
  const std::size_t received = client.data_received(sid);
  EXPECT_LT(received, 512u * 1024u);
  client.send_rst_stream(sid, ErrorCode::kCancel);
  client.send_window_update(sid, 1 << 20);  // would resume if not cancelled
  pump(client, server);
  EXPECT_EQ(client.data_received(sid), received);
}

TEST(Engine, HeadersOnStreamZeroIsConnectionError) {
  auto server = make_server();
  ClientConnection client;
  client.send_frame(h2::make_headers(0, bytes_of("\x82"), true));
  pump(client, server);
  EXPECT_TRUE(client.goaway_received());
  EXPECT_FALSE(server.alive());
}

TEST(Engine, EvenStreamIdFromClientIsConnectionError) {
  auto server = make_server();
  ClientConnection client;
  client.send_frame(h2::make_headers(2, bytes_of("\x82"), true));
  pump(client, server);
  EXPECT_TRUE(client.goaway_received());
}

TEST(Engine, ReusedStreamIdIsConnectionError) {
  auto server = make_server();
  ClientConnection client;
  client.send_request("/small");
  client.send_request("/small");
  pump(client, server);
  EXPECT_FALSE(client.goaway_received());
  // Manually fabricate a HEADERS on the already-used id 1.
  client.send_frame(h2::make_headers(1, bytes_of("\x82"), true));
  pump(client, server);
  EXPECT_TRUE(client.goaway_received());
}

TEST(Engine, ClientPushPromiseIsConnectionError) {
  auto server = make_server();
  ClientConnection client;
  client.send_frame(h2::make_push_promise(1, 2, bytes_of("\x82")));
  pump(client, server);
  EXPECT_TRUE(client.goaway_received());
  EXPECT_EQ(client.goaway()->error, ErrorCode::kProtocolError);
}

TEST(Engine, GarbageHpackIsCompressionError) {
  auto server = make_server();
  ClientConnection client;
  // 0x40 literal-with-indexing announcing a 63-octet name, then nothing.
  client.send_frame(h2::make_headers(1, Bytes{0x40, 0x3F}, true));
  pump(client, server);
  ASSERT_TRUE(client.goaway_received());
  EXPECT_EQ(client.goaway()->error, ErrorCode::kCompressionError);
}

TEST(Engine, ContinuationReassemblyWorks) {
  auto server = make_server();
  ClientConnection client;
  // Split a valid header block across HEADERS + 2 CONTINUATIONs.
  hpack::Encoder enc;
  const Bytes block = enc.encode({{":method", "GET"},
                                  {":scheme", "https"},
                                  {":authority", "x"},
                                  {":path", "/small"}});
  ASSERT_GT(block.size(), 6u);
  const std::size_t third = block.size() / 3;
  Bytes p1(block.begin(), block.begin() + third);
  Bytes p2(block.begin() + third, block.begin() + 2 * third);
  Bytes p3(block.begin() + 2 * third, block.end());
  client.send_frame(h2::make_headers(1, p1, /*end_stream=*/true,
                                     /*end_headers=*/false));
  client.send_frame(h2::make_continuation(1, p2, false));
  client.send_frame(h2::make_continuation(1, p3, true));
  pump(client, server);
  EXPECT_TRUE(client.stream_complete(1));
  EXPECT_EQ(client.data_received(1), 256u);
}

TEST(Engine, InterleavedFrameDuringHeaderBlockIsError) {
  auto server = make_server();
  ClientConnection client;
  client.send_frame(h2::make_headers(1, bytes_of("\x82"), true,
                                     /*end_headers=*/false));
  client.send_ping({});
  pump(client, server);
  EXPECT_TRUE(client.goaway_received());
}

TEST(Engine, SettingsChangeAdjustsOpenStreamWindows) {
  auto server = make_server();
  ClientOptions opts;
  opts.auto_stream_window_update = false;
  ClientConnection client(opts);
  const auto sid = client.send_request("/large/0");
  pump(client, server);
  const std::size_t at_default = client.data_received(sid);
  EXPECT_EQ(at_default, 65535u);  // stream window exhausted
  // Raising INITIAL_WINDOW_SIZE retroactively widens the open stream.
  client.send_settings({{SettingId::kInitialWindowSize, 100000}});
  pump(client, server);
  EXPECT_EQ(client.data_received(sid), 100000u);
}

TEST(Engine, ZeroLengthDataVariantEmitsEmptyFrame) {
  ServerProfile p = plain_profile();
  p.small_window_behavior = server::SmallWindowBehavior::kZeroLengthData;
  auto server = Http2Server(p, Site::standard_testbed_site());
  ClientConnection client({.settings = {{SettingId::kInitialWindowSize, 1}}});
  const auto sid = client.send_request("/small");
  pump(client, server);
  const auto data = client.frames_of(FrameType::kData, sid);
  ASSERT_EQ(data.size(), 1u);
  EXPECT_TRUE(data.front()->frame.as<h2::DataPayload>().data.empty());
  EXPECT_TRUE(client.stream_complete(sid));
}

TEST(Engine, StallVariantSendsNothingUnderTinyWindow) {
  ServerProfile p = plain_profile();
  p.small_window_behavior = server::SmallWindowBehavior::kStall;
  auto server = Http2Server(p, Site::standard_testbed_site());
  ClientConnection client({.settings = {{SettingId::kInitialWindowSize, 1}}});
  const auto sid = client.send_request("/small");
  pump(client, server);
  EXPECT_EQ(client.response_headers(sid), nullptr);
  EXPECT_EQ(client.data_received(sid), 0u);
  // ...but behaves normally once the window is reasonable.
  auto server2 = Http2Server(p, Site::standard_testbed_site());
  ClientConnection client2;
  const auto sid2 = client2.send_request("/small");
  pump(client2, server2);
  EXPECT_TRUE(client2.stream_complete(sid2));
}

TEST(Engine, LiteSpeedWithholdsHeadersAtZeroWindow) {
  auto server = Http2Server(server::litespeed_profile(),
                            Site::standard_testbed_site());
  ClientConnection client({.settings = {{SettingId::kInitialWindowSize, 0}}});
  const auto sid = client.send_request("/small");
  pump(client, server);
  EXPECT_EQ(client.response_headers(sid), nullptr);
  // Opening the window releases both HEADERS and DATA.
  client.send_window_update(sid, 65535);
  pump(client, server);
  EXPECT_NE(client.response_headers(sid), nullptr);
  EXPECT_TRUE(client.stream_complete(sid));
}

TEST(Engine, OversizedResponseHeadersSplitIntoContinuations) {
  // A response header block beyond the client's SETTINGS_MAX_FRAME_SIZE
  // must be carried by HEADERS + CONTINUATION (§4.3). The client announces
  // the minimum frame size, and the site carries a bulky response header.
  Site site = Site::standard_testbed_site();
  site.add_response_header("x-giant", std::string(40'000, 'g'));
  auto server = Http2Server(plain_profile(), std::move(site));
  ClientConnection client;  // default SETTINGS_MAX_FRAME_SIZE = 16,384
  const auto sid = client.send_request("/small");
  pump(client, server);
  EXPECT_FALSE(client.frames_of(FrameType::kContinuation, sid).empty());
  auto headers = client.response_headers(sid);
  ASSERT_NE(headers, nullptr);
  EXPECT_EQ(hpack::find_header(*headers, "x-giant").size(), 40'000u);
  EXPECT_TRUE(client.stream_complete(sid));
  EXPECT_EQ(client.data_received(sid), 256u);
}

TEST(Engine, ConformantServerSendsHeadersAtZeroWindow) {
  auto server = make_server();
  ClientConnection client({.settings = {{SettingId::kInitialWindowSize, 0}}});
  const auto sid = client.send_request("/small");
  pump(client, server);
  EXPECT_NE(client.response_headers(sid), nullptr);
  EXPECT_EQ(client.data_received(sid), 0u);
}

}  // namespace
}  // namespace h2r
