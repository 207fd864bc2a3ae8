#include "common/serial.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/binio.hpp"

namespace prime::common {

// --- StateWriter -------------------------------------------------------------

void StateWriter::u8(std::uint8_t v) {
  out_->put(static_cast<char>(v));
}

void StateWriter::u32(std::uint32_t v) {
  unsigned char buf[4];
  store_u32(buf, v);
  out_->write(reinterpret_cast<const char*>(buf), sizeof(buf));
}

void StateWriter::u64(std::uint64_t v) {
  unsigned char buf[8];
  store_u64(buf, v);
  out_->write(reinterpret_cast<const char*>(buf), sizeof(buf));
}

void StateWriter::i64(std::int64_t v) {
  u64(static_cast<std::uint64_t>(v));
}

void StateWriter::f64(double v) {
  unsigned char buf[8];
  store_f64(buf, v);
  out_->write(reinterpret_cast<const char*>(buf), sizeof(buf));
}

void StateWriter::boolean(bool v) { u8(v ? 1 : 0); }

void StateWriter::str(const std::string& v) {
  u64(v.size());
  out_->write(v.data(), static_cast<std::streamsize>(v.size()));
}

namespace {

/// Count + every element in one buffer, then one stream write.
template <typename T, void (*Store)(unsigned char*, T) noexcept>
void write_vec(std::ostream& out, const std::vector<T>& v) {
  std::string buf(8 * (v.size() + 1), '\0');
  auto* p = reinterpret_cast<unsigned char*>(buf.data());
  store_u64(p, v.size());
  for (std::size_t i = 0; i < v.size(); ++i) Store(p + 8 * (i + 1), v[i]);
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

}  // namespace

void StateWriter::vec_f64(const std::vector<double>& v) {
  write_vec<double, store_f64>(*out_, v);
}

void StateWriter::vec_u64(const std::vector<std::uint64_t>& v) {
  write_vec<std::uint64_t, store_u64>(*out_, v);
}

// --- StateReader -------------------------------------------------------------

void StateReader::read_bytes(unsigned char* out, std::size_t n) {
  in_->read(reinterpret_cast<char*>(out), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(in_->gcount()) != n) {
    throw SerialError("serialised state: truncated payload (wanted " +
                      std::to_string(n) + " more bytes)");
  }
}

std::uint8_t StateReader::u8() {
  unsigned char b = 0;
  read_bytes(&b, 1);
  return b;
}

std::uint32_t StateReader::u32() {
  unsigned char buf[4];
  read_bytes(buf, sizeof(buf));
  return load_u32(buf);
}

std::uint64_t StateReader::u64() {
  unsigned char buf[8];
  read_bytes(buf, sizeof(buf));
  return load_u64(buf);
}

std::int64_t StateReader::i64() {
  return static_cast<std::int64_t>(u64());
}

double StateReader::f64() {
  unsigned char buf[8];
  read_bytes(buf, sizeof(buf));
  return load_f64(buf);
}

bool StateReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) {
    throw SerialError("serialised state: malformed boolean (byte " +
                      std::to_string(v) + ")");
  }
  return v == 1;
}

std::string StateReader::blob(std::uint64_t max_bytes) {
  const std::uint64_t n = u64();
  if (n > max_bytes) {
    throw SerialError("serialised state: length " + std::to_string(n) +
                      " exceeds the " + std::to_string(max_bytes) +
                      " byte bound (corrupt payload?)");
  }
  constexpr std::uint64_t kChunk = 64 * 1024;
  std::string out;
  while (out.size() < n) {
    const std::size_t at = out.size();
    const auto take =
        static_cast<std::size_t>(std::min<std::uint64_t>(n - at, kChunk));
    out.resize(at + take);
    read_bytes(reinterpret_cast<unsigned char*>(out.data() + at), take);
  }
  return out;
}

template <typename T, T (*Load)(const unsigned char*) noexcept>
std::vector<T> StateReader::read_vec() {
  const std::uint64_t n = u64();
  // The elements arrive chunk by chunk, so a count the stream cannot hold
  // fails on the first short read instead of allocating what it claims.
  unsigned char buf[8 * kVecChunk];
  std::vector<T> out;
  while (out.size() < n) {
    const std::size_t at = out.size();
    const auto take =
        static_cast<std::size_t>(std::min<std::uint64_t>(n - at, kVecChunk));
    read_bytes(buf, 8 * take);
    out.resize(at + take);
    for (std::size_t i = 0; i < take; ++i) out[at + i] = Load(buf + 8 * i);
  }
  return out;
}

std::vector<double> StateReader::vec_f64() {
  return read_vec<double, load_f64>();
}

std::vector<std::uint64_t> StateReader::vec_u64() {
  return read_vec<std::uint64_t, load_u64>();
}

// --- Table dimensions --------------------------------------------------------

std::size_t checked_cells(std::size_t rows, std::size_t cols,
                          const std::string& what) {
  std::size_t cells = 0;
  if (__builtin_mul_overflow(rows, cols, &cells)) {
    throw SerialError(what + ": dimensions " + std::to_string(rows) + "x" +
                      std::to_string(cols) + " overflow");
  }
  return cells;
}

}  // namespace prime::common
