// The zero-copy parse path: FrameParser::parse_in_place() must validate
// frames where they lie — a view's body span aliasing the delivery or the
// reassembly buffer, no payload copy — while materialize() rebuilds, bit for
// bit, the frame that was serialized. Run under ASan (the asan-ubsan CI job
// runs the full suite) this also proves the view's documented validity
// window is honoured by the accessors themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "h2/constants.h"
#include "h2/frame.h"
#include "h2/frame_codec.h"
#include "h2/frame_view.h"

namespace h2r::h2 {
namespace {

Bytes pattern_bytes(std::size_t n, std::uint8_t start) {
  Bytes out(n);
  std::iota(out.begin(), out.end(), start);
  return out;
}

std::vector<Frame> sample_frames() {
  std::vector<Frame> frames;
  frames.push_back(make_settings({{SettingId::kInitialWindowSize, 1u << 20},
                                  {SettingId::kMaxConcurrentStreams, 128}}));
  frames.push_back(make_settings_ack());
  frames.push_back(make_headers(1, pattern_bytes(40, 3), /*end_stream=*/false,
                                /*end_headers=*/false,
                                PriorityInfo{.dependency = 0,
                                             .weight_field = 201,
                                             .exclusive = true}));
  frames.push_back(make_continuation(1, pattern_bytes(17, 9), true));
  frames.push_back(make_data(1, pattern_bytes(333, 0), /*end_stream=*/true));
  frames.push_back(make_priority(3, {.dependency = 1, .weight_field = 15}));
  frames.push_back(make_rst_stream(3, ErrorCode::kCancel));
  frames.push_back(make_push_promise(1, 2, pattern_bytes(25, 40)));
  frames.push_back(make_ping({1, 2, 3, 4, 5, 6, 7, 8}));
  frames.push_back(make_window_update(0, 0x7FFF0000));
  frames.push_back(make_goaway(5, ErrorCode::kEnhanceYourCalm, "debug-data"));
  return frames;
}

/// Every frame @p parser hands out of @p delivery, materialized before the
/// guard (and with it the views) goes.
std::vector<Frame> parse_all(FrameParser& parser,
                             std::span<const std::uint8_t> delivery) {
  std::vector<Frame> out;
  auto frames = parser.parse_in_place(delivery);
  while (auto view = frames.next()) {
    EXPECT_TRUE(view->ok()) << view->status().to_string();
    if (!view->ok()) break;
    out.push_back(materialize(view->value()));
  }
  return out;
}

// materialize() of an in-place view must rebuild the frame that was
// serialized — compared on the wire, where every payload detail shows up —
// whether the bytes arrive in one block or one octet at a time.
TEST(FrameViewAlias, MaterializedViewsMatchOwningParsePath) {
  const std::vector<Frame> source = sample_frames();
  const Bytes wire = serialize_frames(source);

  FrameParser block;
  std::vector<Frame> from_block = parse_all(block, wire);
  FrameParser trickle;
  std::vector<Frame> from_trickle;
  for (std::uint8_t b : wire) {  // worst-case trickle
    for (Frame& f : parse_all(trickle, {&b, 1})) {
      from_trickle.push_back(std::move(f));
    }
  }

  for (const auto* parsed : {&from_block, &from_trickle}) {
    ASSERT_EQ(parsed->size(), source.size());
    for (std::size_t i = 0; i < source.size(); ++i) {
      SCOPED_TRACE("frame " + std::to_string(i));
      const Frame& from_view = (*parsed)[i];
      EXPECT_EQ(serialize_frame(source[i]), serialize_frame(from_view));
      EXPECT_EQ(source[i].flags, from_view.flags);
      EXPECT_EQ(source[i].stream_id, from_view.stream_id);
    }
  }
  EXPECT_EQ(block.unparsed_bytes(), 0u);
  EXPECT_EQ(trickle.unparsed_bytes(), 0u);
}

// A receiver that stops before taking any frame leaves the delivery in the
// reassembly buffer (the guard stashes it there), and the next in-place
// call's views alias that buffer: two frames yield payloads exactly one
// frame header apart in the same allocation, which is not the delivery's.
// (Frame 2 dwarfs frame 1 so the lazy compaction between the calls doesn't
// trigger and move the buffer.)
TEST(FrameViewAlias, BodySpanAliasesReassemblyBuffer) {
  const Bytes small = pattern_bytes(16, 1);
  const Bytes big = pattern_bytes(4000, 7);
  Bytes wire = serialize_frame(make_data(1, small, false));
  const Bytes second = serialize_frame(make_data(1, big, true));
  wire.insert(wire.end(), second.begin(), second.end());

  FrameParser parser;
  { auto stopped_early = parser.parse_in_place(wire); }
  ASSERT_EQ(parser.buffered_bytes(), wire.size());

  auto frames = parser.parse_in_place({});
  auto first = frames.next();
  ASSERT_TRUE(first && first->ok());
  const auto p1 = reinterpret_cast<std::uintptr_t>(first->value().body.data());
  ASSERT_EQ(first->value().body.size(), small.size());
  EXPECT_NE(first->value().body.data(), wire.data() + kFrameHeaderSize);

  auto next = frames.next();
  ASSERT_TRUE(next && next->ok());
  const FrameView& view = next->value();
  const auto p2 = reinterpret_cast<std::uintptr_t>(view.body.data());
  // payload2 starts (payload1 size + one 9-octet header) after payload1.
  EXPECT_EQ(p2 - p1, small.size() + 9);

  EXPECT_EQ(view.type(), FrameType::kData);
  EXPECT_TRUE(view.has_flag(flags::kEndStream));
  EXPECT_EQ(view.payload_wire_octets, big.size());
  ASSERT_EQ(view.body.size(), big.size());
  // Read every aliased octet while the view is valid — ASan checks this
  // stays inside the live buffer.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < big.size(); ++i) {
    mismatches += (view.body[i] != big[i]) ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0u);
}

// Padding is stripped from the aliased body but still counted by the
// flow-control length, and the materialized frame carries the unpadded data.
TEST(FrameViewAlias, PaddedDataBodyIsUnpadded) {
  const Bytes data = pattern_bytes(20, 60);
  constexpr std::uint8_t kPad = 7;
  ByteWriter out;
  write_frame_header(out, 1 + data.size() + kPad, FrameType::kData,
                     flags::kPadded | flags::kEndStream, 5);
  out.write_u8(kPad);
  out.write_bytes(data);
  out.write_zeros(kPad);
  const Bytes wire = out.take();

  FrameParser parser;
  auto frames = parser.parse_in_place(wire);
  auto view = frames.next();
  ASSERT_TRUE(view && view->ok());
  EXPECT_EQ(view->value().payload_wire_octets, 1 + data.size() + kPad);
  ASSERT_EQ(view->value().body.size(), data.size());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), view->value().body.begin()));

  const Frame frame = materialize(view->value());
  ASSERT_TRUE(frame.is<DataPayload>());
  EXPECT_EQ(frame.as<DataPayload>().data, data);
}

// A malformed frame poisons the parser through the in-place guard: the
// status names the violation, error_context() names the offending frame,
// and both stay the same on the next call and on a later delivery.
TEST(FrameViewAlias, ViewPathPoisonsLikeOwningPath) {
  ByteWriter out;
  serialize_frame_into(out, make_ping({1, 2, 3, 4, 5, 6, 7, 8}));
  const std::size_t bad_offset = out.size();
  // RST_STREAM payload must be exactly 4 octets; send 3.
  write_frame_header(out, 3, FrameType::kRstStream, 0, 1);
  out.write_zeros(3);
  const Bytes wire = out.take();

  FrameParser parser;
  const auto expect_poisoned = [&](const auto& result) {
    ASSERT_TRUE(result);
    ASSERT_FALSE(result->ok());
    EXPECT_EQ(result->status().code(), StatusCode::kFrameSizeError);
    EXPECT_EQ(result->status().message(), "RST_STREAM length != 4");
    ASSERT_TRUE(parser.error_context().has_value());
    EXPECT_EQ(parser.error_context()->frame_offset, bad_offset);
    EXPECT_EQ(parser.error_context()->frame_type,
              static_cast<std::uint8_t>(FrameType::kRstStream));
    EXPECT_TRUE(parser.error_context()->type_known);
  };
  {
    auto frames = parser.parse_in_place(wire);
    auto ping = frames.next();
    ASSERT_TRUE(ping && ping->ok());
    EXPECT_FALSE(parser.error_context().has_value());
    expect_poisoned(frames.next());
    // Poison is sticky within the delivery...
    expect_poisoned(frames.next());
  }
  // ...and across deliveries.
  auto later = parser.parse_in_place(wire);
  expect_poisoned(later.next());
}

}  // namespace
}  // namespace h2r::h2
