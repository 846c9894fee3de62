// Unit tests for the util layer: bytes, status, rng, stats.
#include <gtest/gtest.h>

#include "util/bytes.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"

namespace h2r {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = ProtocolViolationError("bad frame");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kProtocolError);
  EXPECT_EQ(s.message(), "bad frame");
  EXPECT_EQ(s.to_string(), "PROTOCOL_ERROR: bad frame");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = OutOfRangeError("x");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, ValueAccessOnErrorThrows) {
  Result<int> r = OutOfRangeError("x");
  EXPECT_THROW((void)r.value(), std::logic_error);
}

TEST(ResultTest, ConstructFromOkStatusThrows) {
  EXPECT_THROW((Result<int>{OkStatus()}), std::logic_error);
}

TEST(ByteWriterTest, BigEndianLayout) {
  ByteWriter w;
  w.write_u8(0x01);
  w.write_u16(0x0203);
  w.write_u24(0x040506);
  w.write_u32(0x0708090A);
  EXPECT_EQ(to_hex(w.bytes()), "0102030405060708090a");
}

TEST(ByteWriterTest, U24RejectsOverflow) {
  ByteWriter w;
  EXPECT_THROW(w.write_u24(0x1000000), std::invalid_argument);
}

TEST(ByteReaderTest, RoundTripsWriter) {
  ByteWriter w;
  w.write_u8(0xAB);
  w.write_u16(0xCDEF);
  w.write_u24(0x123456);
  w.write_u32(0xDEADBEEF);
  w.write_string("hi");
  const Bytes buf = w.take();
  ByteReader r({buf.data(), buf.size()});
  EXPECT_EQ(r.read_u8().value(), 0xAB);
  EXPECT_EQ(r.read_u16().value(), 0xCDEF);
  EXPECT_EQ(r.read_u24().value(), 0x123456u);
  EXPECT_EQ(r.read_u32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_string(2).value(), "hi");
  EXPECT_TRUE(r.empty());
}

TEST(ByteReaderTest, TruncationYieldsOutOfRange) {
  const Bytes buf = {0x01};
  ByteReader r({buf.data(), buf.size()});
  EXPECT_EQ(r.read_u32().status().code(), StatusCode::kOutOfRange);
}

TEST(ByteReaderTest, SkipAndPeek) {
  const Bytes buf = {1, 2, 3};
  ByteReader r({buf.data(), buf.size()});
  EXPECT_EQ(r.peek_u8().value(), 1);
  ASSERT_TRUE(r.skip(2).ok());
  EXPECT_EQ(r.read_u8().value(), 3);
  EXPECT_FALSE(r.skip(1).ok());
}

TEST(BufferPoolTest, FullPoolKeepsTheSmallerBuffer) {
  BufferPool pool(2);
  const auto sized = [](std::size_t n) {
    Bytes b;
    b.reserve(n);
    return b;
  };
  pool.release(sized(64 * 1024));
  pool.release(sized(32 * 1024));
  // Full: a 1 KiB buffer displaces the 64 KiB spare...
  pool.release(sized(1024));
  // ...and a bigger one than every spare is dropped.
  pool.release(sized(128 * 1024));
  EXPECT_EQ(pool.acquire(1024).capacity(), 1024u);
  EXPECT_EQ(pool.acquire(32 * 1024).capacity(), 32u * 1024u);
  EXPECT_EQ(pool.acquire().capacity(), 0u);  // nothing else was kept
}

TEST(BufferPoolTest, KeepsOneBurstBufferForAsksAboveTheCap) {
  constexpr std::size_t kCap = BufferPool::kLocalCapacity;
  BufferPool pool(4, kCap);
  const auto sized = [](std::size_t n) {
    Bytes b;
    b.reserve(n);
    return b;
  };
  pool.release(sized(2 * kCap));
  pool.release(sized(3 * kCap));  // the larger one replaces it
  pool.release(sized(BufferPool::kBurstCapacity + 1));  // above: dropped
  // Asks within the cap never take the burst buffer...
  EXPECT_EQ(pool.acquire(4 * 1024).capacity(), 4u * 1024u);
  // ...an ask above it that fits does, once.
  const Bytes burst = pool.acquire(2 * kCap + 1);
  EXPECT_EQ(burst.capacity(), 3 * kCap);
  EXPECT_EQ(pool.acquire(2 * kCap + 1).capacity(), 2 * kCap + 1);
}

TEST(BufferPoolTest, PoolWithNoSparesKeepsNothing) {
  BufferPool pool(0);
  Bytes b;
  b.reserve(16);
  pool.release(std::move(b));
  EXPECT_EQ(pool.acquire().capacity(), 0u);
}

TEST(HexTest, RoundTrip) {
  const Bytes data = {0x00, 0xFF, 0x5A};
  EXPECT_EQ(to_hex(data), "00ff5a");
  auto back = from_hex("00 ff 5a");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST(HexTest, RejectsBadInput) {
  EXPECT_FALSE(from_hex("xyz").ok());
  EXPECT_FALSE(from_hex("abc").ok());  // odd digit count
}

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(RngTest, NextInInclusiveBounds) {
  Rng rng(42);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, WeightedRespectsZeroWeights) {
  Rng rng(42);
  const double w[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.next_weighted(w), 1u);
  }
}

TEST(RngTest, WeightedApproximatesProportions) {
  Rng rng(42);
  const double w[] = {1.0, 3.0};
  int counts[2] = {0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.next_weighted(w)];
  const double frac = static_cast<double>(counts[1]) / 40000.0;
  EXPECT_NEAR(frac, 0.75, 0.02);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(9);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(SampleSetTest, BasicMoments) {
  SampleSet s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
}

TEST(SampleSetTest, QuantileInterpolates) {
  SampleSet s;
  for (double v : {0.0, 10.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.5);
}

TEST(SampleSetTest, CdfAt) {
  SampleSet s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.cdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(s.cdf_at(100.0), 1.0);
}

TEST(SampleSetTest, CdfPointsDeduplicates) {
  SampleSet s;
  for (double v : {1.0, 1.0, 2.0}) s.add(v);
  auto pts = s.cdf_points();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].second, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(pts[1].second, 1.0);
}

TEST(SampleSetTest, EmptyThrows) {
  SampleSet s;
  EXPECT_THROW((void)s.mean(), std::logic_error);
  EXPECT_THROW((void)s.quantile(0.5), std::logic_error);
}

TEST(ValueCounterTest, CountsValues) {
  ValueCounter c;
  c.add(65535);
  c.add(65535);
  c.add(16384, 10);
  EXPECT_EQ(c.total(), 12u);
  EXPECT_EQ(c.count_of(65535), 2u);
  EXPECT_EQ(c.count_of(16384), 10u);
  EXPECT_EQ(c.count_of(1), 0u);
}

TEST(TextTableTest, RendersAligned) {
  TextTable t({"name", "count"});
  t.add_row({"nginx", "27394"});
  const std::string out = t.render();
  EXPECT_NE(out.find("nginx"), std::string::npos);
  EXPECT_NE(out.find("27394"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(WithCommasTest, Formats) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
}

}  // namespace
}  // namespace h2r
