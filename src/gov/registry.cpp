#include "gov/registry.hpp"

namespace prime::gov {

GovernorRegistry& governor_registry() {
  // Meyers singleton: safe against static-initialisation order, since
  // registrars in other translation units call this during their own
  // construction.
  static GovernorRegistry registry("governor");
  return registry;
}

std::uint64_t effective_seed(const common::Spec& spec, std::uint64_t fallback) {
  return spec.get_count("seed", fallback, 0);
}

}  // namespace prime::gov
