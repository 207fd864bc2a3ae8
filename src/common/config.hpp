/// \file config.hpp
/// \brief Key-value configuration store for experiments.
///
/// Experiments and example binaries accept `key=value` overrides (mirroring
/// how kernel governors expose sysfs tunables). Keys are flat strings such as
/// "rtm.gamma" or "hw.cores"; values are parsed on demand with typed getters
/// that fall back to a caller-supplied default.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace prime::common {

/// \brief Flat string-to-string configuration with typed accessors.
class Config {
 public:
  Config() = default;

  /// \brief Set (or overwrite) a key.
  void set(const std::string& key, const std::string& value);
  /// \brief Convenience numeric setter.
  void set_double(const std::string& key, double value);
  /// \brief Convenience integer setter.
  void set_int(const std::string& key, long long value);
  /// \brief Convenience boolean setter ("true"/"false").
  void set_bool(const std::string& key, bool value);

  /// \brief True if the key is present.
  [[nodiscard]] bool has(const std::string& key) const;
  /// \brief Raw string value if present.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  /// \brief String with default.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  /// \brief Double with default; unparsable values return the default.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  /// \brief Integer with default; unparsable values return the default.
  [[nodiscard]] long long get_int(const std::string& key, long long fallback) const;
  /// \brief A count that must be >= \p min (cores, frames, bins): a smaller
  ///        integer throws std::invalid_argument naming the key instead of
  ///        wrapping through a cast to std::size_t.
  [[nodiscard]] std::size_t get_count(const std::string& key,
                                      std::size_t fallback,
                                      std::size_t min = 1) const;
  /// \brief Boolean with default. Accepts true/false/1/0/yes/no/on/off.
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// \brief Parse one "key=value" token into the store. Returns false (and
  ///        leaves the store unchanged) when the token has no '='.
  bool parse_assignment(const std::string& token);
  /// \brief Parse argv-style overrides; non-assignment tokens are skipped.
  void parse_args(int argc, const char* const* argv);
  /// \brief Parse newline-separated "key=value" text ('#' starts a comment).
  void parse_text(const std::string& text);

  /// \brief All keys in sorted order (for dumping the effective config).
  [[nodiscard]] std::vector<std::string> keys() const;
  /// \brief Number of stored keys.
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace prime::common
