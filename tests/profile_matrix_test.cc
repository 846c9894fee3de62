// Parameterized conformance sweep: every server profile (testbed + corpus
// families) must sustain the complete probe suite and basic workloads
// without surprises — the "no profile left untested" matrix.
#include <gtest/gtest.h>

#include "core/report.h"
#include "net/transport.h"

namespace h2r::core {
namespace {

/// The net::Transport replacement for the retired run_exchange shim.
void pump(ClientConnection& client, server::Http2Server& server) {
  net::LockstepTransport(client.recorder()).run(client, server);
}

const std::vector<std::string>& all_profile_keys() {
  static const std::vector<std::string> kKeys = {
      "nginx",   "litespeed",        "h2o",
      "nghttpd", "tengine",          "apache",
      "gse",     "cloudflare-nginx", "ideawebserver",
      "tengine-aserver"};
  return kKeys;
}

class ProfileMatrix : public ::testing::TestWithParam<std::string> {
 protected:
  Target target() { return Target::testbed(server::profile_by_key(GetParam())); }
};

TEST_P(ProfileMatrix, ServesBasicGet) {
  auto t = target();
  auto server = t.make_server();
  ClientConnection client;
  const auto sid = client.send_request("/small");
  pump(client, server);
  ASSERT_TRUE(client.stream_complete(sid)) << GetParam();
  EXPECT_EQ(client.data_received(sid), 256u);
  auto headers = client.response_headers(sid);
  ASSERT_NE(headers, nullptr);
  EXPECT_EQ(hpack::find_header(*headers, "server"),
            t.profile.server_header);
}

TEST_P(ProfileMatrix, ServesManyConcurrentRequests) {
  auto t = target();
  auto server = t.make_server();
  ClientConnection client;
  std::vector<std::uint32_t> streams;
  for (int i = 0; i < 8; ++i) {
    streams.push_back(client.send_request("/object/" + std::to_string(i % 8)));
  }
  pump(client, server);
  for (auto sid : streams) {
    EXPECT_TRUE(client.stream_complete(sid)) << GetParam() << " stream " << sid;
    EXPECT_EQ(client.data_received(sid), 64u * 1024u);
  }
}

TEST_P(ProfileMatrix, AnswersPing) {
  auto t = target();
  auto server = t.make_server();
  ClientConnection client;
  client.send_ping({0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 0x00, 0x11});
  pump(client, server);
  const auto pings = client.frames_of(h2::FrameType::kPing);
  ASSERT_EQ(pings.size(), 1u) << GetParam();
  EXPECT_TRUE(pings[0]->frame.has_flag(h2::flags::kAck));
}

TEST_P(ProfileMatrix, FullCharacterizationCompletes) {
  Rng rng(77);
  const auto c = characterize(target(), rng);
  // Whatever the profile, the characterization must be internally coherent.
  EXPECT_TRUE(c.negotiation.alpn_h2) << GetParam();  // all profiles do ALPN
  EXPECT_TRUE(c.multiplexing.supported) << GetParam();
  EXPECT_TRUE(c.ping.supported) << GetParam();
  EXPECT_TRUE(c.hpack.ran) << GetParam();
  EXPECT_GT(c.hpack.ratio, 0.0);
  EXPECT_LE(c.hpack.ratio, 1.001);
  EXPECT_TRUE(c.priority.ran) << GetParam();
  EXPECT_EQ(c.row_values().size(), Characterization::row_labels().size());
}

TEST_P(ProfileMatrix, SurvivesAbruptClientGoaway) {
  auto t = target();
  auto server = t.make_server();
  ClientConnection client;
  client.send_request("/large/0");
  client.send_frame(h2::make_goaway(0, h2::ErrorCode::kNoError));
  pump(client, server);
  // Connection drains; new streams after GOAWAY would be refused but the
  // engine must not crash or loop.
  SUCCEED();
}

TEST_P(ProfileMatrix, PushOnlyWhenProfileSupportsIt) {
  auto t = target();
  const auto r = probe_server_push(t);
  EXPECT_EQ(r.push_received, t.profile.supports_push) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfileMatrix,
                         ::testing::ValuesIn(all_profile_keys()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace h2r::core
