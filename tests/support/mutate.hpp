/// \file mutate.hpp
/// \brief Seeded byte mutations for the fuzz tests: the sealed formats
///        (tests/test_sealed_formats.cpp) and the governor state payloads
///        inside them (tests/test_governor_states.cpp).
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "support/format_artefacts.hpp"

namespace prime::testing_support {

/// \brief One of five mutations of a sample drawn from \p samples: bit flip,
///        byte set (1-8 bytes of a boundary value), truncate, extend, or
///        splice a span of another sample (or this one) over a random
///        position. An empty sample can only be extended.
[[nodiscard]] std::string mutate(const std::vector<Artefact>& samples,
                                 common::Rng& rng);

}  // namespace prime::testing_support
