#include "support/mutate.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>

namespace prime::testing_support {
namespace {

std::size_t below(common::Rng& rng, std::size_t n) {
  return n == 0 ? 0 : static_cast<std::size_t>(rng.next_u64() % n);
}

/// Values that make length and count fields interesting.
std::uint64_t boundary_value(common::Rng& rng) {
  static const std::uint64_t kValues[] = {
      0, 1, 2, 0x7f, 0x80, 0xff, std::uint64_t{1} << 32,
      std::uint64_t{1} << 33, std::uint64_t{1} << 61, ~std::uint64_t{0}};
  return kValues[below(rng, std::size(kValues))];
}

}  // namespace

std::string mutate(const std::vector<Artefact>& samples, common::Rng& rng) {
  std::string bytes = samples[below(rng, samples.size())].bytes;
  switch (bytes.empty() ? 3 : below(rng, 5)) {
    case 0: {
      const std::size_t at = below(rng, bytes.size());
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << below(rng, 8)));
      break;
    }
    case 1: {
      const std::size_t width = 1 + below(rng, std::min<std::size_t>(
                                                   8, bytes.size()));
      const std::size_t at = below(rng, bytes.size() - width + 1);
      const std::uint64_t value = boundary_value(rng);
      for (std::size_t i = 0; i < width; ++i) {
        bytes[at + i] = static_cast<char>(value >> (8 * i));
      }
      break;
    }
    case 2:
      bytes.resize(below(rng, bytes.size()));
      break;
    case 3:
      for (std::size_t n = 1 + below(rng, 16); n > 0; --n) {
        bytes.push_back(static_cast<char>(rng.next_u64()));
      }
      break;
    default: {
      const std::string& donor = samples[below(rng, samples.size())].bytes;
      if (donor.empty()) break;
      const std::size_t from = below(rng, donor.size());
      const std::size_t len = 1 + below(rng, std::min<std::size_t>(
                                                 64, donor.size() - from));
      const std::size_t at = below(rng, bytes.size());
      bytes.replace(at, std::min(len, bytes.size() - at), donor, from, len);
      break;
    }
  }
  return bytes;
}

}  // namespace prime::testing_support
