#include "attack/scenario.h"

#include <algorithm>
#include <array>
#include <sstream>

#include "core/client.h"
#include "h2/frame.h"
#include "server/engine.h"
#include "util/rng.h"

namespace h2r::attack {

std::string_view to_string(ScenarioKind kind) noexcept {
  switch (kind) {
    case ScenarioKind::kSlowRead:
      return "slow-read";
    case ScenarioKind::kSlowPost:
      return "slow-post";
    case ScenarioKind::kRapidReset:
      return "rapid-reset";
    case ScenarioKind::kPingFlood:
      return "ping-flood";
    case ScenarioKind::kSettingsFlood:
      return "settings-flood";
    case ScenarioKind::kPriorityChurn:
      return "priority-churn";
  }
  return "?";
}

std::vector<ScenarioKind> all_scenarios() {
  return {ScenarioKind::kSlowRead,      ScenarioKind::kSlowPost,
          ScenarioKind::kRapidReset,    ScenarioKind::kPingFlood,
          ScenarioKind::kSettingsFlood, ScenarioKind::kPriorityChurn};
}

trace::AttackClass expected_class(ScenarioKind kind) noexcept {
  switch (kind) {
    case ScenarioKind::kSlowRead:
      return trace::AttackClass::kSlowRead;
    case ScenarioKind::kSlowPost:
      return trace::AttackClass::kSlowPost;
    case ScenarioKind::kRapidReset:
      return trace::AttackClass::kRapidReset;
    case ScenarioKind::kPingFlood:
    case ScenarioKind::kSettingsFlood:
      return trace::AttackClass::kControlFlood;
    case ScenarioKind::kPriorityChurn:
      return trace::AttackClass::kPriorityChurn;
  }
  return trace::AttackClass::kNone;
}

std::string_view to_string(Termination t) noexcept {
  switch (t) {
    case Termination::kAttackerExhausted:
      return "attacker-exhausted";
    case Termination::kMitigatedGoaway:
      return "mitigated-goaway";
    case Termination::kErrorGoaway:
      return "error-goaway";
    case Termination::kConnectionDead:
      return "connection-dead";
  }
  return "?";
}

std::string AttackResult::fingerprint() const {
  std::ostringstream out;
  out << to_string(kind) << '|' << to_string(termination) << '|' << rounds_run
      << '|' << frames_sent << '|' << bytes_c2s << '|' << bytes_s2c << '|'
      << peak_pinned_octets << '|' << peak_active_streams << '|'
      << peak_decoder_table << '|' << server::to_string(final_level) << '|'
      << trace::to_string(suspected) << '|'
      << (goaway_received ? h2::to_string(goaway_code) : "no-goaway") << '|'
      << (deadline_hit ? "deadline" : "clean");
  return out.str();
}

namespace {

/// One round's worth of attack traffic. Returns frames injected. The
/// scenarios never rely on client-side automation beyond what the stance
/// options configure — every hostile frame is queued explicitly, so the
/// wire sequence is a pure function of (config, round).
std::uint64_t inject_round(const ScenarioConfig& cfg,
                           core::ClientConnection& client,
                           std::uint32_t round, Rng& rng,
                           std::vector<std::uint32_t>& open_streams) {
  std::uint64_t frames = 0;
  switch (cfg.kind) {
    case ScenarioKind::kSlowRead: {
      if (round == 0) {
        // Open every victim stream against the biggest testbed resources;
        // the tiny stream window from slow_read_stance pins all but the
        // first Sframe octets of each response.
        for (std::uint32_t i = 0; i < cfg.streams; ++i) {
          open_streams.push_back(
              client.send_request("/large/" + std::to_string(i % 8)));
          ++frames;
        }
        return frames;
      }
      // Keep-alive that ages the server's frame clock without reading:
      // connection-scoped WINDOW_UPDATEs are deliberately *not* PINGs, so
      // the traffic trips no control-frame budget and the per-stream
      // windows (the binding constraint) stay shut.
      for (int i = 0; i < 4; ++i) {
        client.send_window_update(0, 1);
        ++frames;
      }
      return frames;
    }
    case ScenarioKind::kSlowPost: {
      if (round == 0) {
        // Open uploads: HEADERS without END_STREAM, body never finished.
        for (std::uint32_t i = 0; i < cfg.streams; ++i) {
          open_streams.push_back(
              client.send_request("/upload", {}, /*end_stream=*/false));
          ++frames;
        }
        return frames;
      }
      // Dribble one tiny DATA frame per stream per round, END_STREAM never.
      for (std::uint32_t sid : open_streams) {
        client.send_frame(h2::make_data(
            sid, Bytes(cfg.dribble_bytes, 0x2e), /*end_stream=*/false));
        ++frames;
      }
      return frames;
    }
    case ScenarioKind::kRapidReset: {
      // Request + immediate cancel: the server pays header decode and
      // response setup for every pair, the attacker pays two tiny frames.
      for (std::uint32_t i = 0; i < cfg.frames_per_round / 2; ++i) {
        const std::uint32_t sid = client.send_request("/small");
        client.send_rst_stream(sid, h2::ErrorCode::kCancel);
        frames += 2;
      }
      return frames;
    }
    case ScenarioKind::kPingFlood: {
      for (std::uint32_t i = 0; i < cfg.frames_per_round; ++i) {
        std::array<std::uint8_t, 8> opaque{};
        std::uint64_t v = rng.next_u64();
        for (auto& b : opaque) {
          b = static_cast<std::uint8_t>(v);
          v >>= 8;
        }
        client.send_ping(opaque);
        ++frames;
      }
      return frames;
    }
    case ScenarioKind::kSettingsFlood: {
      for (std::uint32_t i = 0; i < cfg.frames_per_round; ++i) {
        client.send_settings({});  // empty, but each one demands an ACK
        ++frames;
      }
      return frames;
    }
    case ScenarioKind::kPriorityChurn: {
      // Random reparenting across a growing idle-stream id space — each
      // frame forces a detach/attach (and possibly a §5.3.3 subtree move).
      for (std::uint32_t i = 0; i < cfg.frames_per_round; ++i) {
        const std::uint32_t span =
            cfg.frames_per_round * (round + 1);  // ids seen so far
        const std::uint32_t sid =
            2 * static_cast<std::uint32_t>(rng.next_below(span)) + 1;
        std::uint32_t dep =
            2 * static_cast<std::uint32_t>(rng.next_below(span)) + 1;
        if (dep == sid) dep = 0;  // self-dependency is a different probe
        client.send_priority(
            sid, {.dependency = dep,
                  .weight_field =
                      static_cast<std::uint8_t>(rng.next_below(256)),
                  .exclusive = rng.next_bool(0.3)});
        ++frames;
      }
      return frames;
    }
  }
  return frames;
}

}  // namespace

AttackResult AttackScenario::run(const core::Target& target) const {
  const ScenarioConfig& cfg = config_;
  AttackResult result;
  result.kind = cfg.kind;

  // The lease rewinds the client before the engine, so the wiretap's
  // connection start precedes the server's preface frames (the
  // SequenceDetector scopes its rules per connection segment).
  const core::EndpointLease lease = target.lease_endpoints(
      cfg.kind == ScenarioKind::kSlowRead
          ? core::ClientOptions::slow_read_stance(cfg.tiny_window)
          : core::ClientOptions{});
  core::ClientConnection& client = lease.client();
  server::Http2Server& server = lease.server();
  net::Transport& transport = lease.transport();

  std::uint64_t seed_state = cfg.seed;
  Rng rng(splitmix64(seed_state) ^ static_cast<std::uint64_t>(cfg.kind));
  std::vector<std::uint32_t> open_streams;

  for (std::uint32_t round = 0; round < cfg.rounds; ++round) {
    result.frames_sent +=
        inject_round(cfg, client, round, rng, open_streams);
    const net::ExchangeResult ex =
        transport.run(client, server, cfg.round_limits);
    ++result.rounds_run;
    result.bytes_c2s += ex.bytes_c2s;
    result.bytes_s2c += ex.bytes_s2c;
    result.peak_active_streams =
        std::max(result.peak_active_streams, server.active_stream_count());
    result.peak_decoder_table =
        std::max(result.peak_decoder_table, server.decoder_table_octets());
    if (ex.deadline_hit()) {
      result.deadline_hit = true;
      result.termination = Termination::kConnectionDead;
      break;
    }
    if (ex.outcome == net::ExchangeOutcome::kDisconnected ||
        !server.alive() || !client.alive()) {
      if (client.goaway_received()) {
        result.goaway_received = true;
        result.goaway_code = client.goaway()->error;
        result.termination =
            result.goaway_code == h2::ErrorCode::kEnhanceYourCalm
                ? Termination::kMitigatedGoaway
                : Termination::kErrorGoaway;
      } else {
        result.termination = Termination::kConnectionDead;
      }
      break;
    }
  }
  // The pinned gauge is a server-side high-water mark already; the stream /
  // table peaks above are per-round samples (exact for these scenarios,
  // whose per-round state is monotone within a round).
  result.peak_pinned_octets = server.peak_pinned_octets();
  result.final_level = server.mitigation_level();
  result.suspected = server.suspected_attack();
  if (!result.goaway_received && client.goaway_received()) {
    result.goaway_received = true;
    result.goaway_code = client.goaway()->error;
  }
  return result;
}

}  // namespace h2r::attack
