/// \file test_serial.cpp
/// \brief StateWriter/StateReader vectors and blobs: bit-exact round trips,
///        one stream write per vector, bounded-chunk reads that stop right
///        after the vector, and fail-closed truncation.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/binio.hpp"
#include "common/serial.hpp"

namespace prime::common {
namespace {

/// A stringbuf that counts the bulk reads and writes reaching it.
class CountingBuf : public std::stringbuf {
 public:
  explicit CountingBuf(const std::string& bytes = {})
      : std::stringbuf(bytes, std::ios::in | std::ios::out | std::ios::binary) {
  }
  int writes = 0;
  int reads = 0;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    ++writes;
    return std::stringbuf::xsputn(s, n);
  }
  std::streamsize xsgetn(char* s, std::streamsize n) override {
    ++reads;
    return std::stringbuf::xsgetn(s, n);
  }
};

enum class Kind { kF64, kU64 };

/// Element bit patterns: for f64 they cycle through -0.0, quiet and
/// signalling NaNs with payloads, denormals and infinities, with the index
/// folded into the low bits so no two neighbours are equal.
std::vector<std::uint64_t> pattern(Kind kind, std::size_t n) {
  static constexpr std::uint64_t kSpecial[] = {
      0x8000000000000000ull,  // -0.0
      0x7FF8000000000001ull,  // quiet NaN, payload 1
      0x7FF4000000000000ull,  // signalling NaN
      0xFFF800000000BEEFull,  // negative NaN with a payload
      0x0000000000000001ull,  // smallest denormal
      0x800FFFFFFFFFFFFFull,  // largest negative denormal
      0x7FF0000000000000ull,  // +inf
      0x3FF0000000000000ull,  // 1.0
  };
  std::vector<std::uint64_t> bits(n);
  for (std::size_t i = 0; i < n; ++i) {
    bits[i] = kind == Kind::kF64 ? kSpecial[i % 8] ^ (i / 8)
                                 : i * 0x9E3779B97F4A7C15ull ^ ~i;
  }
  return bits;
}

void write_vec(StateWriter& w, Kind kind,
               const std::vector<std::uint64_t>& bits) {
  if (kind == Kind::kU64) {
    w.vec_u64(bits);
    return;
  }
  std::vector<double> values;
  for (const std::uint64_t b : bits) values.push_back(std::bit_cast<double>(b));
  w.vec_f64(values);
}

std::vector<std::uint64_t> read_vec(StateReader& r, Kind kind) {
  if (kind == Kind::kU64) return r.vec_u64();
  std::vector<std::uint64_t> bits;
  for (const double v : r.vec_f64()) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

/// The encoded vector: u64 count + 8 bytes per element.
std::string encode(Kind kind, const std::vector<std::uint64_t>& bits) {
  std::ostringstream out(std::ios::binary);
  StateWriter w(out);
  write_vec(w, kind, bits);
  return out.str();
}

constexpr std::size_t kChunk = StateReader::kVecChunk;

/// (element count, element type).
class SerialVectorGrid
    : public testing::TestWithParam<std::tuple<std::size_t, Kind>> {
 protected:
  std::size_t n() const { return std::get<0>(GetParam()); }
  Kind kind() const { return std::get<1>(GetParam()); }
};

TEST_P(SerialVectorGrid, RoundTripsBitExactInOneWriteAndChunkedReads) {
  const std::vector<std::uint64_t> bits = pattern(kind(), n());
  CountingBuf sink;
  std::ostream out(&sink);
  StateWriter w(out);
  write_vec(w, kind(), bits);
  EXPECT_EQ(sink.writes, 1);
  const std::string bytes = sink.str();
  ASSERT_EQ(bytes.size(), 8 * (n() + 1));

  CountingBuf source(bytes);
  std::istream in(&source);
  StateReader r(in);
  EXPECT_EQ(read_vec(r, kind()), bits);
  // One read for the count, then one per chunk of elements.
  EXPECT_EQ(source.reads, 1 + static_cast<int>((n() + kChunk - 1) / kChunk));
}

TEST_P(SerialVectorGrid, ReaderStopsRightAfterTheVectorMidStream) {
  const std::vector<std::uint64_t> bits = pattern(kind(), n());
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  StateWriter w(buf);
  w.u32(0xC0FFEEu);
  write_vec(w, kind(), bits);
  w.u64(0x0123456789ABCDEFull);

  StateReader r(buf);
  EXPECT_EQ(r.u32(), 0xC0FFEEu);
  EXPECT_EQ(read_vec(r, kind()), bits);
  EXPECT_EQ(static_cast<std::size_t>(buf.tellg()), 4 + 8 * (n() + 1));
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
}

TEST_P(SerialVectorGrid, CountPastTheEndThrows) {
  std::string bytes = encode(kind(), pattern(kind(), n()));
  for (const std::uint64_t count : {std::uint64_t{n() + 1},
                                    std::uint64_t{1} << 62}) {
    store_u64(reinterpret_cast<unsigned char*>(bytes.data()), count);
    std::istringstream in(bytes, std::ios::binary);
    StateReader r(in);
    EXPECT_THROW((void)read_vec(r, kind()), SerialError) << "count " << count;
  }
}

TEST_P(SerialVectorGrid, StreamCutMidChunkThrows) {
  const std::string bytes = encode(kind(), pattern(kind(), n()));
  // Cut three bytes into the middle element (into the count when empty).
  const std::size_t cut = n() == 0 ? 5 : 8 + 8 * (n() / 2) + 3;
  std::istringstream in(bytes.substr(0, cut), std::ios::binary);
  StateReader r(in);
  EXPECT_THROW((void)read_vec(r, kind()), SerialError);
}

INSTANTIATE_TEST_SUITE_P(
    CountByType, SerialVectorGrid,
    testing::Combine(testing::Values(std::size_t{0}, std::size_t{1},
                                     kChunk - 1, kChunk, kChunk + 1,
                                     2 * kChunk + 1),
                     testing::Values(Kind::kF64, Kind::kU64)),
    [](const testing::TestParamInfo<SerialVectorGrid::ParamType>& info) {
      return std::string(std::get<1>(info.param) == Kind::kF64 ? "f64_"
                                                                : "u64_") +
             std::to_string(std::get<0>(info.param));
    });

TEST(SerialBlob, RoundTripsAcrossChunksWithTheStringWireFormat) {
  // Longer than str()'s bound and than one read chunk.
  std::string big(70 * 1024 + 3, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>(i * 131 % 251);
  }
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  StateWriter w(buf);
  w.blob(big);
  w.blob("");
  w.u8(0x5A);
  StateReader r(buf);
  EXPECT_EQ(r.blob(), big);
  EXPECT_EQ(r.blob(), "");
  EXPECT_EQ(r.u8(), 0x5A);

  std::ostringstream as_blob(std::ios::binary), as_str(std::ios::binary);
  StateWriter(as_blob).blob("governor state");
  StateWriter(as_str).str("governor state");
  EXPECT_EQ(as_blob.str(), as_str.str());
}

TEST(SerialBlob, FailsClosedOnBoundAndTruncation) {
  std::ostringstream out(std::ios::binary);
  StateWriter(out).blob(std::string(100, 'x'));
  const std::string bytes = out.str();
  {
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_THROW((void)StateReader(in).blob(99), SerialError);
  }
  {
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_EQ(StateReader(in).blob(100), std::string(100, 'x'));
  }
  {
    std::istringstream in(bytes.substr(0, 50), std::ios::binary);
    EXPECT_THROW((void)StateReader(in).blob(), SerialError);
  }
  {
    // A length within the default bound that the stream cannot back.
    std::string huge = bytes;
    store_u64(reinterpret_cast<unsigned char*>(huge.data()),
              StateReader::kMaxBlob);
    std::istringstream in(huge, std::ios::binary);
    EXPECT_THROW((void)StateReader(in).blob(), SerialError);
  }
}

}  // namespace
}  // namespace prime::common
