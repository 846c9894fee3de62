// Frame model + codec tests: serialization layout, incremental parsing,
// and the RFC 7540 §4/§6 validity rules the probes depend on.
#include <gtest/gtest.h>

#include "h2/frame.h"
#include "h2/frame_codec.h"
#include "util/bytes.h"

namespace h2r::h2 {
namespace {

/// The first frame (or error) @p p parses in place out of @p wire, with a
/// frame materialized so it outlives the delivery.
std::optional<Result<Frame>> parse_first(FrameParser& p,
                                         std::span<const std::uint8_t> wire) {
  auto frames = p.parse_in_place(wire);
  auto view = frames.next();
  if (!view) return std::nullopt;
  if (!view->ok()) return Result<Frame>{view->status()};
  return materialize(view->value());
}

Frame roundtrip(const Frame& f, std::uint32_t max_frame_size = kDefaultMaxFrameSize) {
  FrameParser p(max_frame_size);
  auto out = parse_first(p, serialize_frame(f));
  EXPECT_TRUE(out.has_value());
  EXPECT_TRUE(out->ok()) << out->status().to_string();
  return std::move(out->value());
}

TEST(FrameCodec, DataFrameLayout) {
  Frame f = make_data(1, bytes_of("hello"), /*end_stream=*/true);
  const Bytes wire = serialize_frame(f);
  // 9-octet header: length=5, type=0, flags=END_STREAM, stream=1.
  EXPECT_EQ(to_hex(wire), "000005000100000001" + to_hex(bytes_of("hello")));
}

TEST(FrameCodec, DataRoundTrip) {
  Frame f = make_data(7, bytes_of("payload"), false);
  Frame g = roundtrip(f);
  EXPECT_EQ(g.type(), FrameType::kData);
  EXPECT_EQ(g.stream_id, 7u);
  EXPECT_FALSE(g.has_flag(flags::kEndStream));
  EXPECT_EQ(g.as<DataPayload>().data, bytes_of("payload"));
}

TEST(FrameCodec, PaddedDataStripsPadding) {
  Frame f = make_data(3, bytes_of("abc"), true);
  f.as<DataPayload>().pad_length = 5;
  Frame g = roundtrip(f);
  EXPECT_EQ(g.as<DataPayload>().data, bytes_of("abc"));
  EXPECT_TRUE(g.has_flag(flags::kPadded));
}

TEST(FrameCodec, PaddingLongerThanPayloadIsProtocolError) {
  // Hand-build: DATA, PADDED, length 3, pad-length octet claims 10.
  ByteWriter w;
  w.write_u24(3);
  w.write_u8(0x0);             // DATA
  w.write_u8(flags::kPadded);
  w.write_u32(1);
  w.write_u8(10);              // pad length > remaining 2 octets
  w.write_u8('a');
  w.write_u8('b');
  FrameParser p;
  auto out = parse_first(p, w.bytes());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status().code(), StatusCode::kProtocolError);
}

TEST(FrameCodec, HeadersWithPriorityRoundTrip) {
  PriorityInfo prio{.dependency = 3, .weight_field = 200, .exclusive = true};
  Frame f = make_headers(5, bytes_of("\x82"), true, true, prio);
  Frame g = roundtrip(f);
  ASSERT_TRUE(g.as<HeadersPayload>().priority.has_value());
  EXPECT_EQ(*g.as<HeadersPayload>().priority, prio);
  EXPECT_EQ(g.as<HeadersPayload>().priority->weight(), 201);
  EXPECT_TRUE(g.has_flag(flags::kEndStream));
  EXPECT_TRUE(g.has_flag(flags::kEndHeaders));
}

TEST(FrameCodec, PriorityFrameRoundTrip) {
  Frame f = make_priority(9, {.dependency = 7, .weight_field = 15, .exclusive = false});
  Frame g = roundtrip(f);
  EXPECT_EQ(g.type(), FrameType::kPriority);
  EXPECT_EQ(g.as<PriorityPayload>().info.dependency, 7u);
  EXPECT_EQ(g.as<PriorityPayload>().info.weight(), 16);
}

TEST(FrameCodec, PriorityWrongLengthIsFrameSizeError) {
  ByteWriter w;
  w.write_u24(4);  // must be 5
  w.write_u8(0x2);
  w.write_u8(0);
  w.write_u32(1);
  w.write_u32(0);
  FrameParser p;
  auto out = parse_first(p, w.bytes());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status().code(), StatusCode::kFrameSizeError);
}

TEST(FrameCodec, RstStreamRoundTrip) {
  Frame g = roundtrip(make_rst_stream(11, ErrorCode::kRefusedStream));
  EXPECT_EQ(g.as<RstStreamPayload>().error, ErrorCode::kRefusedStream);
}

TEST(FrameCodec, SettingsRoundTrip) {
  Frame f = make_settings({{SettingId::kInitialWindowSize, 1},
                           {SettingId::kMaxConcurrentStreams, 128}});
  Frame g = roundtrip(f);
  const auto& entries = g.as<SettingsPayload>().entries;
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, 0x4);
  EXPECT_EQ(entries[0].second, 1u);
  EXPECT_EQ(entries[1].first, 0x3);
  EXPECT_EQ(entries[1].second, 128u);
  EXPECT_EQ(g.stream_id, 0u);
}

TEST(FrameCodec, SettingsAckHasFlagAndEmptyPayload) {
  Frame g = roundtrip(make_settings_ack());
  EXPECT_TRUE(g.has_flag(flags::kAck));
  EXPECT_TRUE(g.as<SettingsPayload>().entries.empty());
}

TEST(FrameCodec, SettingsBadLengthIsFrameSizeError) {
  ByteWriter w;
  w.write_u24(5);  // not a multiple of 6
  w.write_u8(0x4);
  w.write_u8(0);
  w.write_u32(0);
  for (int i = 0; i < 5; ++i) w.write_u8(0);
  FrameParser p;
  auto out = parse_first(p, w.bytes());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status().code(), StatusCode::kFrameSizeError);
}

TEST(FrameCodec, PushPromiseRoundTrip) {
  Frame g = roundtrip(make_push_promise(1, 2, bytes_of("\x82\x84")));
  EXPECT_EQ(g.as<PushPromisePayload>().promised_stream_id, 2u);
  EXPECT_EQ(g.as<PushPromisePayload>().fragment, bytes_of("\x82\x84"));
}

TEST(FrameCodec, PingRoundTrip) {
  std::array<std::uint8_t, 8> opaque = {1, 2, 3, 4, 5, 6, 7, 8};
  Frame g = roundtrip(make_ping(opaque, /*ack=*/true));
  EXPECT_TRUE(g.has_flag(flags::kAck));
  EXPECT_EQ(g.as<PingPayload>().opaque, opaque);
}

TEST(FrameCodec, PingWrongSizeIsFrameSizeError) {
  ByteWriter w;
  w.write_u24(7);
  w.write_u8(0x6);
  w.write_u8(0);
  w.write_u32(0);
  for (int i = 0; i < 7; ++i) w.write_u8(0);
  FrameParser p;
  auto out = parse_first(p, w.bytes());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status().code(), StatusCode::kFrameSizeError);
}

TEST(FrameCodec, GoawayCarriesDebugData) {
  Frame g = roundtrip(
      make_goaway(41, ErrorCode::kProtocolError, "window update shouldn't be zero"));
  EXPECT_EQ(g.as<GoawayPayload>().last_stream_id, 41u);
  EXPECT_EQ(g.as<GoawayPayload>().error, ErrorCode::kProtocolError);
  EXPECT_EQ(std::string(g.as<GoawayPayload>().debug_data.begin(),
                        g.as<GoawayPayload>().debug_data.end()),
            "window update shouldn't be zero");
}

TEST(FrameCodec, WindowUpdateRoundTripIncludingZero) {
  // Increment 0 must *parse* — sending it is exactly what the paper's
  // zero-window-update probe does; rejecting it is the peer's job.
  Frame g = roundtrip(make_window_update(5, 0));
  EXPECT_EQ(g.as<WindowUpdatePayload>().increment, 0u);
  Frame h = roundtrip(make_window_update(0, 0x7FFFFFFF));
  EXPECT_EQ(h.as<WindowUpdatePayload>().increment, 0x7FFFFFFFu);
}

TEST(FrameCodec, ContinuationRoundTrip) {
  Frame g = roundtrip(make_continuation(3, bytes_of("frag"), true));
  EXPECT_TRUE(g.has_flag(flags::kEndHeaders));
  EXPECT_EQ(g.as<ContinuationPayload>().fragment, bytes_of("frag"));
}

TEST(FrameCodec, UnknownTypePassesThrough) {
  Frame f;
  f.stream_id = 0;
  f.payload = UnknownPayload{.type = 0xAB, .data = bytes_of("xyz")};
  Frame g = roundtrip(f);
  ASSERT_TRUE(g.is<UnknownPayload>());
  EXPECT_EQ(g.as<UnknownPayload>().type, 0xAB);
  EXPECT_EQ(g.as<UnknownPayload>().data, bytes_of("xyz"));
}

TEST(FrameParser, HandlesArbitraryChunking) {
  const std::vector<Frame> frames = {
      make_settings({{SettingId::kInitialWindowSize, 65536}}),
      make_headers(1, bytes_of("\x82\x84"), false),
      make_data(1, bytes_of("0123456789"), true),
      make_ping({}, false),
  };
  const Bytes wire = serialize_frames(frames);
  // Deliver one byte at a time — worst-case transport fragmentation.
  FrameParser p;
  std::vector<Frame> parsed;
  for (std::uint8_t b : wire) {
    auto delivery = p.parse_in_place({&b, 1});
    while (auto f = delivery.next()) {
      ASSERT_TRUE(f->ok());
      parsed.push_back(materialize(f->value()));
    }
  }
  ASSERT_EQ(parsed.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(parsed[i].type(), frames[i].type()) << i;
  }
}

TEST(FrameParser, OversizedFrameIsFrameSizeError) {
  Frame f = make_data(1, Bytes(20000, 0x55), false);
  FrameParser p(/*max_frame_size=*/16384);
  auto out = parse_first(p, serialize_frame(f));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status().code(), StatusCode::kFrameSizeError);
  // Parser stays poisoned, even for a delivery with nothing in it.
  auto again = parse_first(p, {});
  ASSERT_TRUE(again.has_value());
  EXPECT_FALSE(again->ok());
}

TEST(FrameParser, RaisedLimitAcceptsBigFrames) {
  Frame f = make_data(1, Bytes(20000, 0x55), false);
  FrameParser p(16384);
  p.set_max_frame_size(1 << 20);
  auto out = parse_first(p, serialize_frame(f));
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->ok());
  EXPECT_EQ(out->value().as<DataPayload>().data.size(), 20000u);
}

TEST(FrameCodec, SerializeRejectsOversizedPayload) {
  Frame f = make_data(1, Bytes(kMaxAllowedFrameSize + 1, 0), false);
  EXPECT_THROW(serialize_frame(f), std::invalid_argument);
}

TEST(Frame, DescribeIsHumanReadable) {
  EXPECT_EQ(make_rst_stream(3, ErrorCode::kCancel).describe(),
            "RST_STREAM(stream=3, flags=0x0, CANCEL)");
  EXPECT_EQ(make_window_update(0, 100).describe(),
            "WINDOW_UPDATE(stream=0, flags=0x0, +100)");
}

}  // namespace
}  // namespace h2r::h2
