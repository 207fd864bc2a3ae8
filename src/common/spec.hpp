/// \file spec.hpp
/// \brief Structured construction specs: `name(key=value,...)`.
///
/// Every registry-constructed object (governors, workloads, rewards,
/// exploration policies) is described by a spec string such as
/// `"rtm(policy=upd,reward=target-slack,alpha=0.2)"`. The part before the
/// parenthesis names the registered factory; the key=value arguments are
/// parsed into a common::Config, so factories read them with the same strict
/// getters every command-line front end uses. Values may themselves
/// be specs (`"rtm-thermal(inner=rtm(policy=upd))"`), enabling composition:
/// commas and '=' inside nested parentheses belong to the inner spec.
#pragma once

#include <string>

#include "common/config.hpp"

namespace prime::common {

/// \brief A parsed `name(key=value,...)` construction spec: a name over a
///        Config of arguments, whose strict, request-tracking getters
///        (see common::Config) factories call directly:
///        `spec.get_double("alpha", 0.1)`.
class Spec : private Config {
 public:
  Spec() = default;
  /// \brief Spec with a name and no arguments.
  explicit Spec(std::string name) : name_(std::move(name)) {
    set_owner("Spec '" + name_ + "'");
  }
  /// \brief Spec with explicit arguments. Request tracking starts afresh,
  ///        whatever \p args recorded before: Registry::create relies on it
  ///        to tell the keys its factory read from typos.
  Spec(std::string name, Config args)
      : Config(std::move(args)), name_(std::move(name)) {
    set_owner("Spec '" + name_ + "'");
    clear_requests();
  }

  /// \brief Parse `name` or `name(key=value,...)`. A bare argument token
  ///        without '=' is treated as a boolean flag (`name(verbose)` sets
  ///        verbose=true). Throws std::invalid_argument on malformed input
  ///        (empty name, unbalanced parentheses, trailing garbage).
  [[nodiscard]] static Spec parse(const std::string& text);

  /// \brief The factory name (part before the parenthesis).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// \brief The key=value arguments.
  [[nodiscard]] const Config& args() const noexcept { return *this; }
  /// \brief Mutable access to the arguments.
  [[nodiscard]] Config& args() noexcept { return *this; }

  using Config::get_bool;
  using Config::get_count;
  using Config::get_double;
  using Config::get_int;
  using Config::get_string;
  using Config::has;
  using Config::requested_keys;
  using Config::unrequested_keys;

  /// \brief Canonical rendering: `name` or `name(k=v,...)` with keys sorted.
  [[nodiscard]] std::string to_string() const;

 private:
  std::string name_;
};

}  // namespace prime::common
