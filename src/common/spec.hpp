/// \file spec.hpp
/// \brief Structured construction specs: `name(key=value,...)`.
///
/// Every registry-constructed object (governors, workloads, rewards,
/// exploration policies) is described by a spec string such as
/// `"rtm(policy=upd,reward=target-slack,alpha=0.2)"`. The part before the
/// parenthesis names the registered factory; the key=value arguments are
/// parsed into the existing common::Config machinery so factories read them
/// with the same typed getters experiments already use. Values may themselves
/// be specs (`"rtm-thermal(inner=rtm(policy=upd))"`), enabling composition:
/// commas and '=' inside nested parentheses belong to the inner spec.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "common/config.hpp"

namespace prime::common {

/// \brief A parsed `name(key=value,...)` construction spec.
class Spec {
 public:
  Spec() = default;
  /// \brief Spec with a name and no arguments.
  explicit Spec(std::string name) : name_(std::move(name)) {}
  /// \brief Spec with explicit arguments.
  Spec(std::string name, Config args)
      : name_(std::move(name)), args_(std::move(args)) {}

  /// \brief Parse `name` or `name(key=value,...)`. A bare argument token
  ///        without '=' is treated as a boolean flag (`name(verbose)` sets
  ///        verbose=true). Throws std::invalid_argument on malformed input
  ///        (empty name, unbalanced parentheses, trailing garbage).
  [[nodiscard]] static Spec parse(const std::string& text);

  /// \brief The factory name (part before the parenthesis).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// \brief The key=value arguments.
  [[nodiscard]] const Config& args() const noexcept { return args_; }
  /// \brief Mutable access to the arguments.
  [[nodiscard]] Config& args() noexcept { return args_; }

  // Typed getters. Each call records the key as requested: a factory reads
  // every key it supports (with a fallback), so after a factory runs, the
  // requested set is exactly the supported set and any leftover argument is a
  // typo — see Registry::create. Unlike Config's lenient getters, a value
  // that is present but unparsable ("alpha=x.3") throws instead of silently
  // falling back: a spec is an experiment definition, and running the wrong
  // experiment is worse than stopping.
  [[nodiscard]] bool has(const std::string& key) const {
    requested_.insert(key);
    return args_.has(key);
  }
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const {
    requested_.insert(key);
    return args_.get_string(key, fallback);
  }
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] long long get_int(const std::string& key, long long fallback) const;
  /// \brief A count that must be >= 1 (a level or bin count): an integer
  ///        below 1 throws std::invalid_argument naming the key instead of
  ///        wrapping through a cast to std::size_t.
  [[nodiscard]] std::size_t get_count(const std::string& key,
                                      std::size_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// \brief Keys a consumer has asked for through the typed getters, sorted.
  [[nodiscard]] std::vector<std::string> requested_keys() const {
    return std::vector<std::string>(requested_.begin(), requested_.end());
  }
  /// \brief Argument keys never requested through the typed getters, sorted.
  [[nodiscard]] std::vector<std::string> unrequested_keys() const {
    std::vector<std::string> out;
    for (const auto& key : args_.keys()) {
      if (requested_.find(key) == requested_.end()) out.push_back(key);
    }
    return out;
  }

  /// \brief Canonical rendering: `name` or `name(k=v,...)` with keys sorted.
  [[nodiscard]] std::string to_string() const;

 private:
  std::string name_;
  Config args_;
  mutable std::set<std::string> requested_;
};

}  // namespace prime::common
