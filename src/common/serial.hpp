/// \file serial.hpp
/// \brief Little-endian binary state serialisation over iostreams.
///
/// The checkpoint/resume machinery (sim/checkpoint.hpp) persists every piece
/// of mutable run state — governor learning tables, RNG streams, thermal and
/// sensor state — and a resumed run must be *bit-identical* to one that never
/// stopped. StateWriter/StateReader therefore build on the same binio helpers
/// the `.bt` trace format uses: fixed-width little-endian integers and
/// IEEE-754 bit patterns for doubles, so every value (including -0.0 and NaN
/// payloads) round-trips exactly, independent of host endianness.
///
/// StateReader fails closed: any short read, malformed boolean or oversized
/// string or blob throws SerialError instead of returning a default — a
/// truncated or corrupt payload must never load as a silently different
/// state.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

namespace prime::common {

/// \brief Error thrown by StateReader on truncated or malformed payloads.
class SerialError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// \brief Serialises primitives little-endian onto a borrowed ostream.
///
/// Write failures surface through the stream's badbit (sticky); callers that
/// seal a file check stream health once at the end rather than per field.
class StateWriter {
 public:
  /// \brief Bind to \p out; the stream must outlive the writer.
  explicit StateWriter(std::ostream& out) : out_(&out) {}

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// \brief Signed 64-bit value (two's-complement bit pattern).
  void i64(std::int64_t v);
  /// \brief IEEE-754 bit pattern: round-trips every double bit-exact.
  void f64(double v);
  void boolean(bool v);
  /// \brief u64 byte length followed by the raw bytes.
  void str(const std::string& v);
  /// \brief Opaque byte blob (a nested state payload): the same u64 length
  ///        + raw bytes as str(), read back under StateReader::blob's larger
  ///        bound.
  void blob(const std::string& v) { str(v); }
  /// \brief std::size_t as u64.
  void size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// \brief u64 element count followed by each element as f64, in one
  ///        stream write.
  void vec_f64(const std::vector<double>& v);
  /// \brief u64 element count followed by each element as u64, in one
  ///        stream write.
  void vec_u64(const std::vector<std::uint64_t>& v);

 private:
  std::ostream* out_;
};

/// \brief Deserialises what StateWriter wrote, in the same order.
class StateReader {
 public:
  /// \brief Bind to \p in; the stream must outlive the reader.
  explicit StateReader(std::istream& in) : in_(&in) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64();
  [[nodiscard]] double f64();
  /// \brief Strict: any encoding other than 0/1 throws (corruption canary).
  [[nodiscard]] bool boolean();
  /// \brief Length-prefixed string. Lengths above kMaxString throw — state
  ///        strings are names and spec text, never megabytes.
  [[nodiscard]] std::string str() { return blob(kMaxString); }
  /// \brief What StateWriter::blob wrote. Lengths above \p max_bytes throw;
  ///        the bytes arrive in bounded chunks, so a corrupt length fails on
  ///        the short read without allocating what it claims.
  [[nodiscard]] std::string blob(std::uint64_t max_bytes = kMaxBlob);
  [[nodiscard]] std::size_t size() { return static_cast<std::size_t>(u64()); }
  /// \brief Vectors arrive kVecChunk elements per stream read and never read
  ///        past their last element, so tellg() lands right after the vector.
  [[nodiscard]] std::vector<double> vec_f64();
  [[nodiscard]] std::vector<std::uint64_t> vec_u64();

  /// \brief Upper bound on str() lengths (64 KiB).
  static constexpr std::uint64_t kMaxString = 64 * 1024;
  /// \brief Default upper bound on blob() lengths (1 GiB).
  static constexpr std::uint64_t kMaxBlob = std::uint64_t{1} << 30;
  /// \brief Elements per stream read in vec_f64() / vec_u64().
  static constexpr std::size_t kVecChunk = 512;

 private:
  void read_bytes(unsigned char* out, std::size_t n);
  template <typename T, T (*Load)(const unsigned char*) noexcept>
  std::vector<T> read_vec();

  std::istream* in_;
};

/// \brief rows x cols of a stored table, or SerialError naming \p what when
///        the product does not fit std::size_t: a corrupt dimension must not
///        wrap around to the length of a short (or empty) value vector.
[[nodiscard]] std::size_t checked_cells(std::size_t rows, std::size_t cols,
                                        const std::string& what);

}  // namespace prime::common
