// Property tests for the frame codec: randomized frames survive
// serialization under arbitrary transport chunking, the parser is
// crash-free on arbitrary byte soup and on bit-flipped valid streams (all
// through parse_in_place(), the entry the engine and client run), and that
// in-place entry is indistinguishable from feed() + next_view().
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "h2/frame.h"
#include "h2/frame_codec.h"
#include "util/rng.h"

namespace h2r::h2 {
namespace {

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.next_below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

Frame random_frame(Rng& rng) {
  const std::uint32_t stream = 1 + 2 * static_cast<std::uint32_t>(rng.next_below(50));
  switch (rng.next_below(10)) {
    case 0: {
      Frame f = make_data(stream, random_bytes(rng, 300), rng.next_bool(0.5));
      f.as<DataPayload>().pad_length =
          static_cast<std::uint8_t>(rng.next_below(32));
      return f;
    }
    case 1: {
      std::optional<PriorityInfo> prio;
      if (rng.next_bool(0.5)) {
        prio = PriorityInfo{
            .dependency = static_cast<std::uint32_t>(rng.next_below(100)),
            .weight_field = static_cast<std::uint8_t>(rng.next_below(256)),
            .exclusive = rng.next_bool(0.5)};
      }
      Frame f = make_headers(stream, random_bytes(rng, 200), rng.next_bool(0.5),
                             rng.next_bool(0.9), prio);
      f.as<HeadersPayload>().pad_length =
          static_cast<std::uint8_t>(rng.next_below(16));
      return f;
    }
    case 2:
      return make_priority(
          stream, {.dependency = static_cast<std::uint32_t>(rng.next_below(100)),
                   .weight_field = static_cast<std::uint8_t>(rng.next_below(256)),
                   .exclusive = rng.next_bool(0.5)});
    case 3:
      return make_rst_stream(stream,
                             static_cast<ErrorCode>(rng.next_below(14)));
    case 4: {
      std::vector<std::pair<SettingId, std::uint32_t>> entries;
      const std::size_t n = rng.next_below(5);
      for (std::size_t i = 0; i < n; ++i) {
        entries.emplace_back(static_cast<SettingId>(1 + rng.next_below(6)),
                             static_cast<std::uint32_t>(rng.next_below(1 << 20)));
      }
      return make_settings(std::move(entries));
    }
    case 5:
      return make_push_promise(
          stream, 2 * static_cast<std::uint32_t>(1 + rng.next_below(50)),
          random_bytes(rng, 100));
    case 6: {
      std::array<std::uint8_t, 8> opaque{};
      for (auto& b : opaque) b = static_cast<std::uint8_t>(rng.next_below(256));
      return make_ping(opaque, rng.next_bool(0.5));
    }
    case 7:
      return make_goaway(static_cast<std::uint32_t>(rng.next_below(100)),
                         static_cast<ErrorCode>(rng.next_below(14)),
                         std::string(rng.next_below(40), 'd'));
    case 8:
      return make_window_update(
          rng.next_bool(0.3) ? 0 : stream,
          static_cast<std::uint32_t>(rng.next_below(0x7FFFFFFF)));
    default:
      return make_continuation(stream, random_bytes(rng, 150),
                               rng.next_bool(0.5));
  }
}

bool frames_equal(const Frame& a, const Frame& b) {
  // Padding is consumed at parse time, so compare semantic content only.
  if (a.type() != b.type() || a.stream_id != b.stream_id) return false;
  if (a.is<DataPayload>()) {
    return a.as<DataPayload>().data == b.as<DataPayload>().data;
  }
  if (a.is<HeadersPayload>()) {
    return a.as<HeadersPayload>().fragment == b.as<HeadersPayload>().fragment &&
           a.as<HeadersPayload>().priority == b.as<HeadersPayload>().priority;
  }
  if (a.is<PriorityPayload>()) {
    return a.as<PriorityPayload>().info == b.as<PriorityPayload>().info;
  }
  if (a.is<RstStreamPayload>()) {
    return a.as<RstStreamPayload>().error == b.as<RstStreamPayload>().error;
  }
  if (a.is<SettingsPayload>()) {
    return a.as<SettingsPayload>().entries == b.as<SettingsPayload>().entries;
  }
  if (a.is<PushPromisePayload>()) {
    return a.as<PushPromisePayload>().promised_stream_id ==
               b.as<PushPromisePayload>().promised_stream_id &&
           a.as<PushPromisePayload>().fragment ==
               b.as<PushPromisePayload>().fragment;
  }
  if (a.is<PingPayload>()) {
    return a.as<PingPayload>().opaque == b.as<PingPayload>().opaque;
  }
  if (a.is<GoawayPayload>()) {
    return a.as<GoawayPayload>().last_stream_id ==
               b.as<GoawayPayload>().last_stream_id &&
           a.as<GoawayPayload>().error == b.as<GoawayPayload>().error &&
           a.as<GoawayPayload>().debug_data == b.as<GoawayPayload>().debug_data;
  }
  if (a.is<WindowUpdatePayload>()) {
    return a.as<WindowUpdatePayload>().increment ==
           b.as<WindowUpdatePayload>().increment;
  }
  if (a.is<ContinuationPayload>()) {
    return a.as<ContinuationPayload>().fragment ==
           b.as<ContinuationPayload>().fragment;
  }
  return false;
}

class FrameRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrameRoundTripProperty, RandomFramesSurviveRandomChunking) {
  Rng rng(GetParam());
  std::vector<Frame> sent;
  for (int i = 0; i < 50; ++i) sent.push_back(random_frame(rng));
  const Bytes wire = serialize_frames(sent);

  FrameParser parser(kMaxAllowedFrameSize);
  std::vector<Frame> parsed;
  std::size_t pos = 0;
  while (pos < wire.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(1 + rng.next_below(97), wire.size() - pos);
    // Each delivery dies with its round, as a transport's buffer does, so
    // a frame is materialized while its view is still valid.
    const Bytes delivery(wire.data() + pos, wire.data() + pos + chunk);
    pos += chunk;
    auto frames = parser.parse_in_place(delivery);
    while (auto next = frames.next()) {
      ASSERT_TRUE(next->ok()) << next->status().to_string();
      parsed.push_back(materialize(next->value()));
    }
  }
  ASSERT_EQ(parsed.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_TRUE(frames_equal(sent[i], parsed[i])) << "frame " << i << ": "
                                                  << sent[i].describe();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameRoundTripProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

class FrameParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrameParserFuzz, ArbitraryBytesNeverCrash) {
  Rng rng(GetParam() * 0x9E3779B9u);
  FrameParser parser;
  for (int round = 0; round < 200; ++round) {
    const Bytes delivery = random_bytes(rng, 128);
    auto frames = parser.parse_in_place(delivery);
    // Drain; errors are expected and fine, crashes are not.
    for (int i = 0; i < 64; ++i) {
      auto next = frames.next();
      if (!next || !next->ok()) break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameParserFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(FrameParserFuzzMutation, BitFlippedValidStreamsNeverCrash) {
  Rng rng(0xBEEF);
  std::vector<Frame> frames;
  for (int i = 0; i < 20; ++i) frames.push_back(random_frame(rng));
  const Bytes original = serialize_frames(frames);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = original;
    const std::size_t flips = 1 + rng.next_below(8);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t pos = rng.next_below(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    FrameParser parser(kMaxAllowedFrameSize);
    auto frames = parser.parse_in_place(mutated);
    for (int i = 0; i < 64; ++i) {
      auto next = frames.next();
      if (!next || !next->ok()) break;
    }
  }
}

// What one delivery hands out and leaves behind, read the same way from
// both parser entries.
struct Delivery {
  std::vector<Bytes> frames;  // every frame handed out, re-serialized
  // (fed_total, unparsed_bytes) right after each frame was handed out: a
  // receiver derives a frame's stream offset from them mid-delivery.
  std::vector<std::pair<std::uint64_t, std::size_t>> offsets;
  std::optional<Status> error;
  std::uint64_t fed_total = 0;
  std::size_t unparsed = 0;
  std::optional<ParseErrorContext> context;
};

// Polls @p next until it runs dry, errors, or @p budget frames were taken
// (a receiver that stops early because its connection died).
template <class Next>
void poll(Delivery& d, const FrameParser& parser, Next next,
          std::size_t budget) {
  while (d.frames.size() < budget) {
    auto view = next();
    if (!view) break;
    if (!view->ok()) {
      d.error = view->status();
      break;
    }
    d.frames.push_back(serialize_frame(materialize(view->value())));
    d.offsets.emplace_back(parser.fed_total(), parser.unparsed_bytes());
  }
}

void settle(Delivery& d, const FrameParser& parser) {
  d.fed_total = parser.fed_total();
  d.unparsed = parser.unparsed_bytes();
  d.context = parser.error_context();
}

Delivery feed_and_poll(FrameParser& parser, std::span<const std::uint8_t> chunk,
                       std::size_t budget) {
  Delivery d;
  parser.feed(chunk);
  poll(d, parser, [&] { return parser.next_view(); }, budget);
  settle(d, parser);
  return d;
}

Delivery parse_in_place(FrameParser& parser, std::span<const std::uint8_t> chunk,
                        std::size_t budget) {
  // The delivery lives only as long as this call, as a transport's round
  // buffer does: a borrow that outlived it would read freed memory.
  const Bytes owned(chunk.begin(), chunk.end());
  Delivery d;
  {
    auto frames = parser.parse_in_place(owned);
    poll(d, parser, [&] { return frames.next(); }, budget);
  }
  settle(d, parser);
  return d;
}

void expect_same(const Delivery& in_place, const Delivery& reference,
                 std::size_t call) {
  SCOPED_TRACE("delivery " + std::to_string(call));
  EXPECT_EQ(in_place.frames, reference.frames);
  EXPECT_EQ(in_place.offsets, reference.offsets);
  EXPECT_EQ(in_place.error.has_value(), reference.error.has_value());
  if (in_place.error && reference.error) {
    EXPECT_EQ(in_place.error->to_string(), reference.error->to_string());
  }
  EXPECT_EQ(in_place.fed_total, reference.fed_total);
  EXPECT_EQ(in_place.unparsed, reference.unparsed);
  ASSERT_EQ(in_place.context.has_value(), reference.context.has_value());
  if (in_place.context) {
    EXPECT_EQ(in_place.context->frame_offset, reference.context->frame_offset);
    EXPECT_EQ(in_place.context->frame_type, reference.context->frame_type);
    EXPECT_EQ(in_place.context->type_known, reference.context->type_known);
  }
}

// Cut points for @p wire: single octets, or one cut per frame boundary
// drawn from "inside the 9-octet header", "inside the payload" and "not
// here" (so a delivery spans several frames). @p frames is the unmutated
// stream's framing; on a bit-flipped stream the cuts are just offsets.
std::vector<std::size_t> random_cuts(Rng& rng, std::span<const Frame> frames,
                                     std::size_t wire_size) {
  std::vector<std::size_t> cuts;
  if (rng.next_bool(0.2)) {
    for (std::size_t i = 1; i < wire_size; ++i) cuts.push_back(i);
  } else {
    std::size_t at = 0;
    for (const Frame& f : frames) {
      const std::size_t len = serialize_frame(f).size();
      switch (rng.next_below(4)) {
        case 0:
          cuts.push_back(at + 1 + rng.next_below(kFrameHeaderSize - 1));
          break;
        case 1:
          if (len > kFrameHeaderSize) {
            cuts.push_back(at + kFrameHeaderSize +
                           rng.next_below(len - kFrameHeaderSize));
          }
          break;
        case 2:
          cuts.push_back(at);
          break;
        default:
          break;  // this boundary rides inside a delivery
      }
      at += len;
    }
  }
  cuts.push_back(wire_size);
  std::erase_if(cuts, [&](std::size_t c) { return c == 0 || c > wire_size; });
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

class InPlaceDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InPlaceDifferential, MatchesFeedAndNextViewAfterEveryDelivery) {
  Rng rng(GetParam() * 0x51ED27u);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Frame> frames;
    const std::size_t count = 1 + rng.next_below(24);
    for (std::size_t i = 0; i < count; ++i) frames.push_back(random_frame(rng));
    Bytes wire = serialize_frames(frames);
    if (rng.next_bool(0.5)) {
      const std::size_t flips = 1 + rng.next_below(4);
      for (std::size_t f = 0; f < flips; ++f) {
        wire[rng.next_below(wire.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
    }
    // A small limit makes flipped length octets trip FRAME_SIZE_ERROR.
    const std::uint32_t max_frame = rng.next_bool(0.5) ? 256 : kDefaultMaxFrameSize;
    FrameParser reference(max_frame);
    FrameParser in_place(max_frame);
    std::size_t from = 0;
    std::size_t call = 0;
    for (std::size_t cut : random_cuts(rng, frames, wire.size())) {
      const std::span<const std::uint8_t> chunk(wire.data() + from, cut - from);
      from = cut;
      // Now and then the receiver stops after a few frames, leaving the
      // rest of the delivery for a later call.
      const std::size_t budget =
          rng.next_bool(0.25) ? rng.next_below(3) : SIZE_MAX;
      const Delivery want = feed_and_poll(reference, chunk, budget);
      const Delivery got = parse_in_place(in_place, chunk, budget);
      SCOPED_TRACE("trial " + std::to_string(trial));
      expect_same(got, want, call++);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Drain what early stops left behind, through each side's own entry
    // (an empty delivery is a valid in-place call).
    for (int i = 0; i < 4; ++i) {
      expect_same(parse_in_place(in_place, {}, SIZE_MAX),
                  feed_and_poll(reference, {}, SIZE_MAX), call++);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InPlaceDifferential,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(InPlaceParse, CopiesOnlyTheFrameThatStraddlesDeliveries) {
  const Bytes a = serialize_frame(make_data(1, Bytes(1000, 0xAB), false));
  const Bytes b = serialize_frame(make_ping({}, false));
  Bytes wire = a;
  wire.insert(wire.end(), b.begin(), b.end());
  FrameParser parser;
  const std::size_t cut = a.size() + 4;  // inside the PING header
  {
    auto frames = parser.parse_in_place({wire.data(), cut});
    auto first = frames.next();
    ASSERT_TRUE(first && first->ok());
    // The whole DATA frame sat in the delivery: its body aliases it.
    EXPECT_EQ(first->value().body.data(), wire.data() + kFrameHeaderSize);
    EXPECT_FALSE(frames.next());
  }
  EXPECT_EQ(parser.buffered_bytes(), 4u);  // just the partial header
  {
    auto frames = parser.parse_in_place({wire.data() + cut, wire.size() - cut});
    auto ping = frames.next();
    ASSERT_TRUE(ping && ping->ok());
    EXPECT_EQ(ping->value().type(), FrameType::kPing);
    EXPECT_FALSE(frames.next());
  }
  EXPECT_EQ(parser.unparsed_bytes(), 0u);
}

}  // namespace
}  // namespace h2r::h2
