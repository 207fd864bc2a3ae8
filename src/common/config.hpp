/// \file config.hpp
/// \brief Key-value configuration store for experiments.
///
/// Experiments and example binaries accept `key=value` overrides (mirroring
/// how kernel governors expose sysfs tunables). Keys are flat strings such as
/// "rtm.gamma" or "hw.cores"; values are parsed on demand with typed getters
/// that fall back to a caller-supplied default when the key is absent.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace prime::common {

/// \brief Flat string-to-string configuration with strict typed accessors.
///
/// Each typed getter (and has()) records the key as requested. A consumer
/// reads every key it supports, so after it runs the requested set is
/// exactly the supported set and any leftover key is a typo — see
/// unrequested_keys(), which Registry::create and every command-line front
/// end reject. A value that is present but unparsable ("alpha=x.3",
/// "frames=abc") throws std::invalid_argument naming the key instead of
/// silently falling back: a config is an experiment definition, and running
/// the wrong experiment is worse than stopping.
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
  /// \brief Name prefixed to parse errors (e.g. "Spec 'rtm'"); a plain
  ///        config has none, so its errors start at "key '...'".
  void set_owner(std::string owner) { owner_ = std::move(owner); }

  /// \brief True if the key is present.
  [[nodiscard]] bool has(const std::string& key) const;
  /// \brief Raw string value if present. Untracked: for copying and
  ///        printing a config, not for consuming it.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  /// \brief String with default.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  /// \brief Double with default; an unparsable value throws.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  /// \brief Integer with default; an unparsable or out-of-range value throws.
  [[nodiscard]] long long get_int(const std::string& key, long long fallback) const;
  /// \brief A count that must be >= \p min (cores, frames, bins, or an index
  ///        with \p min 0): a smaller integer throws std::invalid_argument
  ///        naming the key instead of wrapping through a cast to std::size_t.
  [[nodiscard]] std::size_t get_count(const std::string& key,
                                      std::size_t fallback,
                                      std::size_t min = 1) const;
  /// \brief Boolean with default. Accepts true/false/1/0/yes/no/on/off;
  ///        anything else throws.
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// \brief Keys asked for through has() and the typed getters, sorted.
  [[nodiscard]] std::vector<std::string> requested_keys() const {
    return {requested_.begin(), requested_.end()};
  }
  /// \brief Stored keys never asked for, sorted.
  [[nodiscard]] std::vector<std::string> unrequested_keys() const;
  /// \brief Start request tracking afresh (a copy handed to a new consumer).
  void clear_requests() noexcept { requested_.clear(); }

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
  /// Throw std::invalid_argument: "<owner>: key '<key>' <why>".
  [[noreturn]] void reject(const std::string& key,
                           const std::string& why) const;
  /// Record \p key as requested and return its raw value.
  [[nodiscard]] std::optional<std::string> request(
      const std::string& key) const;

  std::map<std::string, std::string> values_;
  std::string owner_;
  mutable std::set<std::string> requested_;
};

}  // namespace prime::common
