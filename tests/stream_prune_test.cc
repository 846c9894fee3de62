// The engine forgets closed streams: once kClosedStreamSweepBatch of them
// have built up, each is swept out of the stream table into a compact
// record. RFC 7540 §5.1 still owes frames on a closed id the closed-state
// reaction, so every test here runs twice — once while the target stream is
// still tracked, once after it was swept — and asserts the server's output
// bytes, which must not tell the two apart.
#include <gtest/gtest.h>

#include <tuple>

#include "core/client.h"
#include "h2/frame_codec.h"
#include "net/transport.h"
#include "server/engine.h"
#include "server/profile.h"
#include "server/site.h"

namespace h2r {
namespace {

using core::ClientConnection;
using core::ClientOptions;
using h2::ErrorCode;
using h2::SettingId;
using server::Http2Server;
using server::ServerProfile;
using server::Site;

constexpr std::size_t kBatch = Http2Server::kClosedStreamSweepBatch;

enum class Phase { kTracked, kSwept };
enum class Kind { kClient, kPush };  // odd request stream / even push stream

Bytes wire(const h2::Frame& frame) { return h2::serialize_frame(frame); }

/// HEADERS block of static-table entries and a literal never indexed:
/// decoding it leaves both HPACK tables untouched, so it can be sent on any
/// stream id without desynchronising the client's own encoder.
/// Its :path is /index.html, which the testbed site answers with a 404 and
/// no pushes.
Bytes static_request_block() { return {0x82, 0x85, 0x87, 0x01, 0x01, 'a'}; }

class Conn {
 public:
  explicit Conn(ServerProfile profile, ClientOptions options = {})
      : server_(std::move(profile), Site::standard_testbed_site()),
        client_(std::move(options)) {
    pump();
  }

  void pump() {
    net::LockstepTransport(client_.recorder()).run(client_, server_);
  }

  /// Ships one raw client frame and returns exactly what the server answers.
  Bytes exchange(const h2::Frame& frame) {
    client_.send_frame(frame);
    server_.receive(client_.take_output());
    Bytes out = server_.take_output();
    client_.receive(out);
    return out;
  }

  /// Opens and closes the target stream; returns its id.
  std::uint32_t open_and_close(Kind kind) {
    const std::uint32_t parent =
        client_.send_request(kind == Kind::kPush ? "/" : "/small");
    pump();
    if (kind == Kind::kClient) return parent;
    EXPECT_EQ(client_.pushes().size(), 3u);
    return client_.pushes().begin()->first;  // "/style.css", 4,096 octets
  }

  /// kSwept: closes twice the sweep batch of further streams (each reset
  /// by the client before the server answers, so the server stays silent),
  /// which sweeps every stream closed before them.
  void settle(Phase phase, std::size_t tracked_before) {
    if (phase == Phase::kTracked) {
      EXPECT_EQ(server_.tracked_stream_count(), tracked_before);
      return;
    }
    for (std::size_t i = 0; i < 2 * kBatch; ++i) {
      const std::uint32_t id = client_.send_request("/small");
      client_.send_rst_stream(id, ErrorCode::kCancel);
    }
    pump();
    // Fewer entries than streams closed means a sweep ran, and a sweep
    // takes every closed stream, the target first of all.
    EXPECT_LT(server_.tracked_stream_count(), tracked_before + kBatch);
  }

  Http2Server& server() { return server_; }
  ClientConnection& client() { return client_; }

 private:
  Http2Server server_;
  ClientConnection client_;
};

class ClosedStream : public ::testing::TestWithParam<std::tuple<Phase, Kind>> {
 protected:
  Phase phase() const { return std::get<0>(GetParam()); }
  Kind kind() const { return std::get<1>(GetParam()); }
  /// Streams the table holds once the target closed: the request alone,
  /// or the request and its three pushes.
  std::size_t opened() const { return kind() == Kind::kPush ? 4 : 1; }
};

TEST_P(ClosedStream, DataWithinWindowIsRefusedStreamClosed) {
  Conn c(server::h2o_profile());
  const std::uint32_t id = c.open_and_close(kind());
  c.settle(phase(), opened());
  EXPECT_EQ(c.exchange(h2::make_data(id, Bytes(10, 1), false)),
            wire(h2::make_rst_stream(id, ErrorCode::kStreamClosed)));
  EXPECT_EQ(c.exchange(h2::make_data(id, Bytes(20, 1), true)),
            wire(h2::make_rst_stream(id, ErrorCode::kStreamClosed)));
  EXPECT_TRUE(c.server().alive());
}

TEST_P(ClosedStream, RstStreamIsSilent) {
  Conn c(server::h2o_profile());
  const std::uint32_t id = c.open_and_close(kind());
  c.settle(phase(), opened());
  EXPECT_TRUE(c.exchange(h2::make_rst_stream(id, ErrorCode::kCancel)).empty());
  EXPECT_TRUE(c.exchange(h2::make_rst_stream(id, ErrorCode::kCancel)).empty());
  EXPECT_TRUE(c.server().alive());
}

TEST_P(ClosedStream, NonZeroWindowUpdateIsIgnored) {
  Conn c(server::h2o_profile());
  const std::uint32_t id = c.open_and_close(kind());
  c.settle(phase(), opened());
  EXPECT_TRUE(c.exchange(h2::make_window_update(id, 1)).empty());
  EXPECT_TRUE(c.exchange(h2::make_window_update(id, 0x7FFFFFFFu)).empty());
  EXPECT_TRUE(c.server().alive());
}

TEST_P(ClosedStream, ZeroWindowUpdateGetsTheProfileReaction) {
  // h2o resets the stream; nginx ignores the frame (Table III).
  Conn h2o(server::h2o_profile());
  const std::uint32_t id = h2o.open_and_close(kind());
  h2o.settle(phase(), opened());
  EXPECT_EQ(h2o.exchange(h2::make_window_update(id, 0)),
            wire(h2::make_rst_stream(id, ErrorCode::kProtocolError)));

  if (kind() == Kind::kPush) return;  // nginx does not push
  Conn nginx(server::nginx_profile());
  const std::uint32_t nid = nginx.open_and_close(kind());
  nginx.settle(phase(), opened());
  EXPECT_TRUE(nginx.exchange(h2::make_window_update(nid, 0)).empty());
  EXPECT_TRUE(nginx.server().alive());
}

TEST_P(ClosedStream, SettingsRaisePastSendWindowOverflows) {
  // The client grants the target 1,000 octets beyond its body, so its send
  // window ends at 1,000 while the initial window is still 0.
  ClientOptions options;
  options.with_initial_window(0);
  options.auto_stream_window_update = false;
  Conn c(server::h2o_profile(), options);
  const std::uint32_t parent =
      c.client().send_request(kind() == Kind::kPush ? "/" : "/small");
  c.pump();
  const std::uint32_t id =
      kind() == Kind::kPush ? c.client().pushes().begin()->first : parent;
  const std::uint32_t body = kind() == Kind::kPush ? 4'096 : 256;
  c.client().send_window_update(id, body + 1'000);
  if (kind() == Kind::kPush) {
    // Reset the blocked rest, or the raise below would let them send.
    c.client().send_rst_stream(parent, ErrorCode::kCancel);
    for (const auto& [promised, request] : c.client().pushes()) {
      if (promised != id) {
        c.client().send_rst_stream(promised, ErrorCode::kCancel);
      }
    }
  }
  c.pump();
  ASSERT_TRUE(c.client().stream_complete(id));
  c.settle(phase(), opened());

  // Up to exactly 2^31-1 is legal...
  constexpr std::uint32_t kMax = 0x7FFFFFFFu;
  EXPECT_EQ(c.exchange(h2::make_settings(
                {{SettingId::kInitialWindowSize, kMax - 1'000}})),
            wire(h2::make_settings_ack()));
  // ...one octet more overflows the closed stream's window.
  EXPECT_EQ(c.exchange(h2::make_settings(
                {{SettingId::kInitialWindowSize, kMax - 999}})),
            wire(h2::make_goaway(c.server().last_client_stream_id(),
                                 ErrorCode::kFlowControlError,
                                 "SETTINGS window adjustment overflow")));
  EXPECT_FALSE(c.server().alive());
}

INSTANTIATE_TEST_SUITE_P(
    PhasesAndKinds, ClosedStream,
    ::testing::Combine(::testing::Values(Phase::kTracked, Phase::kSwept),
                       ::testing::Values(Kind::kClient, Kind::kPush)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == Phase::kTracked ? "Tracked"
                                                                    : "Swept") +
             (std::get<1>(info.param) == Kind::kClient ? "Client" : "Push");
    });

/// Reactions only request streams can see: a client cannot send HEADERS on
/// an even id at all, and only requests are refused.
class ClosedRequest : public ::testing::TestWithParam<Phase> {};

TEST_P(ClosedRequest, HeadersIsAConnectionError) {
  Conn c(server::h2o_profile());
  const std::uint32_t id = c.open_and_close(Kind::kClient);
  c.settle(GetParam(), 1);
  EXPECT_EQ(c.exchange(h2::make_headers(id, static_request_block(), true)),
            wire(h2::make_goaway(c.server().last_client_stream_id(),
                                 ErrorCode::kProtocolError,
                                 "HEADERS in invalid stream state")));
  EXPECT_FALSE(c.server().alive());
}

TEST_P(ClosedRequest, DataOnRefusedStreamOverrunsItsZeroWindow) {
  // One concurrent stream: stream 1 waits for its body, stream 3 is refused
  // and recorded with a receive window of 0.
  ServerProfile profile = server::h2o_profile();
  profile.max_concurrent_streams = 1;
  Conn c(profile);
  c.client().send_request("/small", {}, /*end_stream=*/false);
  const std::uint32_t refused = c.client().send_request("/small");
  c.pump();
  ASSERT_EQ(c.client().rst_on(refused), ErrorCode::kRefusedStream);
  c.settle(GetParam(), 2);
  EXPECT_EQ(c.exchange(h2::make_data(refused, Bytes(10, 1), false)),
            wire(h2::make_rst_stream(refused, ErrorCode::kFlowControlError)));
  // An empty DATA frame fits any window: it is refused as closed instead.
  EXPECT_EQ(c.exchange(h2::make_data(refused, {}, true)),
            wire(h2::make_rst_stream(refused, ErrorCode::kStreamClosed)));
  EXPECT_EQ(c.server().active_stream_count(), 1u);
  EXPECT_TRUE(c.server().alive());
}

std::string phase_name(const ::testing::TestParamInfo<Phase>& info) {
  return info.param == Phase::kTracked ? "Tracked" : "Swept";
}

INSTANTIATE_TEST_SUITE_P(Phases, ClosedRequest,
                         ::testing::Values(Phase::kTracked, Phase::kSwept),
                         phase_name);

/// An id the client skipped was never opened: it is idle, not closed,
/// however many streams around it were swept.
class IdleStream : public ::testing::TestWithParam<Phase> {
 protected:
  /// Opens stream 1, settles, then opens last+4: last+2 is skipped.
  std::uint32_t skip_one(Conn& c) {
    c.client().send_request("/small");
    c.pump();
    c.settle(GetParam(), 1);
    const std::uint32_t skipped = c.server().last_client_stream_id() + 2;
    EXPECT_FALSE(
        c.exchange(h2::make_headers(skipped + 2, static_request_block(), true))
            .empty());
    EXPECT_EQ(c.server().last_client_stream_id(), skipped + 2);
    return skipped;
  }
};

TEST_P(IdleStream, DataOnSkippedIdIsIdle) {
  Conn c(server::h2o_profile());
  const std::uint32_t skipped = skip_one(c);
  EXPECT_EQ(c.exchange(h2::make_data(skipped, Bytes(10, 1), false)),
            wire(h2::make_goaway(skipped + 2, ErrorCode::kProtocolError,
                                 "DATA on idle stream")));
}

TEST_P(IdleStream, RstStreamOnSkippedIdIsIdle) {
  Conn c(server::h2o_profile());
  const std::uint32_t skipped = skip_one(c);
  EXPECT_EQ(c.exchange(h2::make_rst_stream(skipped, ErrorCode::kCancel)),
            wire(h2::make_goaway(skipped + 2, ErrorCode::kProtocolError,
                                 "RST_STREAM on idle stream")));
}

TEST_P(IdleStream, DataOnUnpromisedEvenIdIsIdle) {
  Conn c(server::h2o_profile());
  const std::uint32_t skipped = skip_one(c);
  EXPECT_EQ(c.exchange(h2::make_data(2, Bytes(10, 1), false)),
            wire(h2::make_goaway(skipped + 2, ErrorCode::kProtocolError,
                                 "DATA on idle stream")));
}

INSTANTIATE_TEST_SUITE_P(Phases, IdleStream,
                         ::testing::Values(Phase::kTracked, Phase::kSwept),
                         phase_name);

/// A keep-alive connection's table holds what is in flight plus fewer than
/// one sweep batch of closed streams, however many requests it has carried.
class LongConnection : public ::testing::TestWithParam<const char*> {};

TEST_P(LongConnection, TableStaysBoundedOverTenThousandRequests) {
  Http2Server server(server::profile_by_key(GetParam()),
                     Site::standard_testbed_site());
  ClientOptions options;
  options.keep = ClientOptions::Keep::kFrameSizes;
  ClientConnection client(options);
  constexpr std::uint32_t kRequests = 10'000;
  constexpr std::uint32_t kConcurrency = 16;
  for (std::uint32_t sent = 0; sent < kRequests; sent += kConcurrency) {
    // Every tenth request is the page, which h2o answers with three pushes
    // (dependents of the page in its priority tree).
    std::size_t in_flight = 0;
    std::uint32_t last = 0;
    for (std::uint32_t i = 0; i < kConcurrency; ++i) {
      const bool page = (sent + i) % 10 == 0;
      last = client.send_request(page ? "/" : "/small");
      in_flight += page && server.profile().supports_push ? 4 : 1;
    }
    // Lockstep by hand, checking the table after every delivery.
    for (int round = 0; round < 64; ++round) {
      const Bytes c2s = client.take_output();
      if (!c2s.empty()) server.receive(c2s);
      ASSERT_LE(server.tracked_stream_count(), in_flight + kBatch);
      const Bytes s2c = server.take_output();
      if (c2s.empty() && s2c.empty()) break;
      client.receive(s2c);
    }
    ASSERT_TRUE(server.alive());
    ASSERT_TRUE(client.stream_complete(last));
    ASSERT_EQ(server.active_stream_count(), 0u);
    ASSERT_LT(server.tracked_stream_count(), kBatch);
  }
  EXPECT_EQ(client.last_stream_id(), 2 * kRequests - 1);
  if (server.profile().supports_push) {
    EXPECT_EQ(client.pushes().size(), 3 * kRequests / 10);
  }
  EXPECT_EQ(server.pending_response_octets(), server.pinned_response_octets());
  EXPECT_EQ(server.pinned_response_octets(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Profiles, LongConnection,
                         ::testing::Values("nginx", "h2o"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// HEADERS+END_STREAM that depends on itself, against a profile whose
// self-dependency reaction is RST_STREAM: the reset is the whole answer.
// No response starts and no push is offered on the reset stream, so it
// pins nothing and is swept like any other closed stream.
TEST(SelfDependentRequest, ResetStreamIsNotAnswered) {
  const ServerProfile profile = server::profile_by_key("nginx");
  ASSERT_EQ(profile.self_dependency, server::ErrorReaction::kRstStream);
  Http2Server server(profile, Site::standard_testbed_site());
  ClientConnection client;
  net::LockstepTransport transport;
  for (std::uint32_t i = 0; i < kBatch; ++i) {
    const std::uint32_t id = 2 * i + 1;  // the id send_request will use
    EXPECT_EQ(client.send_request("/", h2::PriorityInfo{.dependency = id}),
              id);
  }
  transport.run(client, server);

  ASSERT_TRUE(server.alive());
  for (const core::ReceivedFrame& ev : client.events()) {
    if (ev.frame.stream_id == 0) continue;
    EXPECT_EQ(ev.frame.type(), h2::FrameType::kRstStream)
        << "stream " << ev.frame.stream_id;
  }
  for (std::uint32_t i = 0; i < kBatch; ++i) {
    EXPECT_EQ(client.rst_on(2 * i + 1), ErrorCode::kProtocolError);
  }
  EXPECT_TRUE(client.pushes().empty());
  EXPECT_EQ(server.pinned_response_octets(), 0u);
  EXPECT_EQ(server.pending_response_octets(), 0u);
  EXPECT_EQ(server.tracked_stream_count(), 0u);
}

}  // namespace
}  // namespace h2r
