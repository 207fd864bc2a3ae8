/// \file sealed.hpp
/// \brief The sealed-file envelope shared by `.ckpt`, `.qpol` and `.fsum`.
///
/// Every sealed file is a fixed 64 B header followed by one payload in the
/// common::StateWriter encoding (little-endian):
///
///     offset size header field
///          0    8 magic (per format, e.g. "PRIMECK\0")
///          8    4 u32 format version
///         12    4 u32 header size (64)
///         16    8 u64 payload size — kSealedUnsealed until sealed
///         24  8*n u64 header words (per format, n <= kSealedMaxWords)
///     24+8*n  ... reserved (0)
///
/// The writer puts the header down with the kSealedUnsealed sentinel,
/// streams the payload, then seeks back and patches in the payload size
/// ("sealing"). Files are written to `<path>.tmp` and renamed over the
/// target, so a writer killed mid-write leaves the previous file intact and
/// a torn file is rejected instead of loaded.
///
/// Reading fails closed, in this order: truncated header, bad magic,
/// version skew, header-size skew, unsealed, then the payload itself (any
/// common::SerialError it throws is reported as the format's error), then a
/// payload-size mismatch and trailing bytes. Every error is thrown through
/// the format's own error type and names the file.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <string>

namespace prime::common {

class StateReader;
class StateWriter;

/// \brief Fixed header size of every sealed file; the payload starts here.
inline constexpr std::size_t kSealedHeaderSize = 64;
/// \brief Payload-size sentinel meaning "write still in progress / torn".
inline constexpr std::uint64_t kSealedUnsealed = ~std::uint64_t{0};
/// \brief Offset of the first per-format header word.
inline constexpr std::size_t kSealedWordsOffset = 24;
/// \brief Room for per-format u64 header words.
inline constexpr std::size_t kSealedMaxWords =
    (kSealedHeaderSize - kSealedWordsOffset) / 8;

/// \brief The per-format u64 words stored from offset 24 (unused ones 0).
using SealedWords = std::array<std::uint64_t, kSealedMaxWords>;

/// \brief What distinguishes one sealed format from another.
struct SealedFormat {
  std::array<unsigned char, 8> magic;  ///< Identification bytes at offset 0.
  std::uint32_t version;               ///< The version this build reads/writes.
  const char* noun;  ///< Message prefix: "checkpoint", "policy", ...
  const char* what;  ///< Bad-magic text: "not a PRIME-RTM <what>".
  /// Throws the format's own error type with the given message; never
  /// returns (see throw_as).
  void (*fail)(const std::string& message);

  /// \brief Throw the format's error as "<noun> '<label>': <detail>".
  [[noreturn]] void reject(const std::string& label,
                           const std::string& detail) const;
};

/// \brief The usual SealedFormat::fail: throw \p E carrying \p message.
template <typename E>
[[noreturn]] void throw_as(const std::string& message) {
  throw E(message);
}

/// \brief Write header + payload onto the seekable \p out and seal it. The
///        \p words land from offset 24; \p payload streams the body.
///        Throws the format's error when any write fails.
void write_sealed(std::ostream& out, const SealedFormat& format,
                  std::initializer_list<std::uint64_t> words,
                  const std::function<void(StateWriter&)>& payload);

/// \brief Validate the envelope of \p in and parse its body with
///        \p payload; returns the header words. \p label names the source
///        in errors (a path, usually).
SealedWords read_sealed(std::istream& in, const SealedFormat& format,
                        const std::string& label,
                        const std::function<void(StateReader&)>& payload);

/// \brief Write to \p path atomically: \p write fills `<path>.tmp`, which is
///        then renamed over \p path. The temporary file never survives a
///        failure.
void save_sealed_file(const std::string& path, const SealedFormat& format,
                      const std::function<void(std::ostream&)>& write);

/// \brief Open \p path and hand the stream to \p read; throws the format's
///        error when the file cannot be opened.
void load_sealed_file(const std::string& path, const SealedFormat& format,
                      const std::function<void(std::istream&)>& read);

}  // namespace prime::common
