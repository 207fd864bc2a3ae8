#include "common/sealed.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/binio.hpp"
#include "common/serial.hpp"

namespace prime::common {

namespace {

// Envelope field offsets (see the layout table in sealed.hpp).
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffHeaderSize = 12;
constexpr std::size_t kOffPayloadSize = 16;

[[noreturn]] void throw_error(const SealedFormat& format,
                              const std::string& message) {
  format.fail(message);
  throw std::logic_error("SealedFormat::fail returned for: " + message);
}

}  // namespace

void SealedFormat::reject(const std::string& label,
                          const std::string& detail) const {
  throw_error(*this, std::string(noun) + " '" + label + "': " + detail);
}

void write_sealed(std::ostream& out, const SealedFormat& format,
                  std::initializer_list<std::uint64_t> words,
                  const std::function<void(StateWriter&)>& payload) {
  if (words.size() > kSealedMaxWords) {
    throw std::invalid_argument("write_sealed: too many header words");
  }
  const std::streampos base = out.tellp();
  std::array<unsigned char, kSealedHeaderSize> header{};
  std::copy(format.magic.begin(), format.magic.end(), header.begin());
  store_u32(header.data() + kOffVersion, format.version);
  store_u32(header.data() + kOffHeaderSize,
            static_cast<std::uint32_t>(kSealedHeaderSize));
  store_u64(header.data() + kOffPayloadSize, kSealedUnsealed);
  std::size_t at = kSealedWordsOffset;
  for (const std::uint64_t word : words) {
    store_u64(header.data() + at, word);
    at += 8;
  }
  out.write(reinterpret_cast<const char*>(header.data()), header.size());

  StateWriter w(out);
  payload(w);

  // Seal: patch the payload size in place only now that every byte is down.
  const std::streampos end = out.tellp();
  const auto size = static_cast<std::uint64_t>(
      end - base - static_cast<std::streamoff>(kSealedHeaderSize));
  unsigned char sealed[8];
  store_u64(sealed, size);
  out.seekp(base + static_cast<std::streamoff>(kOffPayloadSize));
  out.write(reinterpret_cast<const char*>(sealed), sizeof(sealed));
  out.seekp(end);
  out.flush();
  if (!out.good()) {
    throw_error(format, std::string(format.noun) +
                            ": stream write failed while sealing (disk full?)");
  }
}

SealedWords read_sealed(std::istream& in, const SealedFormat& format,
                        const std::string& label,
                        const std::function<void(StateReader&)>& payload) {
  std::array<unsigned char, kSealedHeaderSize> header{};
  in.read(reinterpret_cast<char*>(header.data()), header.size());
  if (static_cast<std::size_t>(in.gcount()) != header.size()) {
    format.reject(label, "truncated header");
  }
  if (!std::equal(format.magic.begin(), format.magic.end(), header.begin())) {
    format.reject(label,
                  std::string("bad magic — not a PRIME-RTM ") + format.what);
  }
  const std::uint32_t version = load_u32(header.data() + kOffVersion);
  if (version != format.version) {
    format.reject(label, "unsupported version " + std::to_string(version) +
                             " (this build supports " +
                             std::to_string(format.version) + ")");
  }
  const std::uint32_t header_size = load_u32(header.data() + kOffHeaderSize);
  if (header_size != kSealedHeaderSize) {
    format.reject(label, "header size mismatch (" +
                             std::to_string(header_size) + ", expected " +
                             std::to_string(kSealedHeaderSize) + ")");
  }
  const std::uint64_t size = load_u64(header.data() + kOffPayloadSize);
  if (size == kSealedUnsealed) {
    format.reject(label,
                  "unsealed — the writer never finished (torn write or "
                  "crashed producer)");
  }
  SealedWords words{};
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = load_u64(header.data() + kSealedWordsOffset + 8 * i);
  }

  const std::streampos payload_start = in.tellg();
  try {
    StateReader r(in);
    payload(r);
  } catch (const SerialError& e) {
    format.reject(label, e.what());
  }
  const auto consumed = static_cast<std::uint64_t>(in.tellg() - payload_start);
  if (consumed != size) {
    format.reject(label, "payload size mismatch (header promises " +
                             std::to_string(size) + " bytes, parsed " +
                             std::to_string(consumed) +
                             ") — truncated or trailing bytes");
  }
  // Anything after the sealed payload is not ours: reject rather than ignore.
  in.peek();
  if (!in.eof()) {
    format.reject(label, "trailing bytes after the sealed payload");
  }
  return words;
}

void save_sealed_file(const std::string& path, const SealedFormat& format,
                      const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  const std::string noun = format.noun;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw_error(format, noun + ": cannot open '" + tmp +
                              "' for writing (does the parent directory "
                              "exist?)");
    }
    try {
      write(out);
      out.close();
      if (!out) throw_error(format, noun + ": closing '" + tmp + "' failed");
    } catch (...) {
      std::remove(tmp.c_str());
      throw;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw_error(format,
                noun + ": cannot rename '" + tmp + "' over '" + path + "'");
  }
}

void load_sealed_file(const std::string& path, const SealedFormat& format,
                      const std::function<void(std::istream&)>& read) {
  std::ifstream in(path, std::ios::binary);
  if (!in) format.reject(path, "cannot open for reading");
  read(in);
}

}  // namespace prime::common
