// h2c bootstrap and graceful-shutdown lifecycle tests for the engine.
#include <gtest/gtest.h>

#include "core/client.h"
#include "net/transport.h"
#include "net/upgrade.h"
#include "server/engine.h"

namespace h2r {
namespace {

using core::ClientConnection;
using server::Http2Server;
using server::Site;

/// The net::Transport replacement for the retired run_exchange shim: one
/// lockstep connection pump, wired to the client's recorder.
void pump(ClientConnection& client, Http2Server& server) {
  net::LockstepTransport(client.recorder()).run(client, server);
}

void feed_text(Http2Server& server, const std::string& text) {
  server.receive(
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

std::string drain_text_head(Http2Server& server) {
  const Bytes out = server.take_output();
  // HTTP/1.1 text ends at the first CRLFCRLF; frames may follow.
  const std::string all(out.begin(), out.end());
  const auto end = all.find("\r\n\r\n");
  return end == std::string::npos ? all : all.substr(0, end + 4);
}

TEST(H2cLifecycle, UpgradeServesTheOriginalRequestOnStream1) {
  Http2Server server(server::nghttpd_profile(), Site::standard_testbed_site(),
                     Http2Server::StartMode::kH2c);
  net::UpgradeRequest req;
  req.host = "testbed.local";
  feed_text(server, net::render_upgrade_request(req));

  const Bytes out = server.take_output();
  const std::string text(out.begin(), out.end());
  ASSERT_NE(text.find("HTTP/1.1 101 Switching Protocols"), std::string::npos);
  EXPECT_TRUE(server.upgraded());
  EXPECT_TRUE(server.alive());

  // After the 101 come the server preface and the stream-1 response.
  const auto frames_start = text.find("\r\n\r\n") + 4;
  ClientConnection client;  // parses frames; its own preface goes nowhere
  (void)client.take_output();
  client.receive({out.data() + frames_start, out.size() - frames_start});
  // Complete the h2 side: client preface + SETTINGS, then exchange.
  feed_text(server, std::string(h2::kClientPreface));
  pump(client, server);
  EXPECT_TRUE(client.stream_complete(1));
  EXPECT_EQ(client.data_received(1), 2048u);  // the site's front page
  auto headers = client.response_headers(1);
  ASSERT_NE(headers, nullptr);
  EXPECT_EQ(hpack::find_header(*headers, ":status"), "200");
}

TEST(H2cLifecycle, SmuggledSettingsGovernTheUpgradedConnection) {
  Http2Server server(server::nghttpd_profile(), Site::standard_testbed_site(),
                     Http2Server::StartMode::kH2c);
  net::UpgradeRequest req;
  req.host = "x";
  req.settings = {{h2::SettingId::kInitialWindowSize, 100}};
  feed_text(server, net::render_upgrade_request(req));
  const Bytes out = server.take_output();
  const std::string text(out.begin(), out.end());
  ASSERT_NE(text.find("101"), std::string::npos);
  // Stream-1 DATA must respect the smuggled 100-octet window: with no
  // further WINDOW_UPDATEs only 100 octets may have been sent.
  const auto frames_start = text.find("\r\n\r\n") + 4;
  ClientConnection client;
  (void)client.take_output();
  client.receive({out.data() + frames_start, out.size() - frames_start});
  EXPECT_LE(client.data_received(1), 100u);
}

TEST(H2cLifecycle, DecliningServerAnswersHttp11AndCloses) {
  auto profile = server::nginx_profile();
  profile.supports_h2c = false;
  Http2Server server(profile, Site::standard_testbed_site(),
                     Http2Server::StartMode::kH2c);
  net::UpgradeRequest req;
  req.host = "x";
  feed_text(server, net::render_upgrade_request(req));
  EXPECT_FALSE(server.upgraded());
  EXPECT_FALSE(server.alive());
  EXPECT_NE(drain_text_head(server).find("HTTP/1.1 200 OK"),
            std::string::npos);
}

TEST(H2cLifecycle, PartialRequestWaitsForMoreBytes) {
  Http2Server server(server::nghttpd_profile(), Site::standard_testbed_site(),
                     Http2Server::StartMode::kH2c);
  net::UpgradeRequest req;
  req.host = "x";
  const std::string text = net::render_upgrade_request(req);
  feed_text(server, text.substr(0, 25));
  EXPECT_TRUE(server.take_output().empty());  // nothing yet
  feed_text(server, text.substr(25));
  EXPECT_TRUE(server.upgraded());
}

TEST(Shutdown, GracefulDrainCompletesActiveStreams) {
  Http2Server server(server::h2o_profile(), Site::standard_testbed_site());
  core::ClientOptions opts;
  opts.auto_stream_window_update = false;  // keep the stream open a while
  ClientConnection client(opts);
  const auto sid = client.send_request("/large/0");
  pump(client, server);
  EXPECT_FALSE(client.stream_complete(sid));

  server.shutdown();
  client.receive(server.take_output());
  ASSERT_TRUE(client.goaway_received());
  EXPECT_EQ(client.goaway()->error, h2::ErrorCode::kNoError);
  EXPECT_EQ(client.goaway()->last_stream_id, sid);
  EXPECT_TRUE(server.alive());  // still draining

  // The in-flight stream finishes...
  client.send_window_update(sid, 1 << 20);
  pump(client, server);
  EXPECT_TRUE(client.stream_complete(sid));
  // ...and the drained connection dies.
  EXPECT_FALSE(server.alive());
}

TEST(Shutdown, NewStreamsRefusedWhileDraining) {
  Http2Server server(server::h2o_profile(), Site::standard_testbed_site());
  core::ClientOptions opts;
  opts.auto_stream_window_update = false;
  ClientConnection client(opts);
  const auto before = client.send_request("/large/0");
  pump(client, server);
  server.shutdown();
  const auto after = client.send_request("/small");
  pump(client, server);
  EXPECT_EQ(client.rst_on(after),
            std::optional<h2::ErrorCode>(h2::ErrorCode::kRefusedStream));
  EXPECT_FALSE(client.rst_on(before).has_value());
}

TEST(Shutdown, IdleConnectionDiesImmediately) {
  Http2Server server(server::h2o_profile(), Site::standard_testbed_site());
  ClientConnection client;
  pump(client, server);
  server.shutdown();
  EXPECT_FALSE(server.alive());
}

}  // namespace
}  // namespace h2r
