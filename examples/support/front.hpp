/// \file front.hpp
/// \brief The one command-line front end every example, tool and bench main
///        runs through.
///
/// A main is a body reading `key=value` arguments from a common::Config.
/// run_main parses argv, runs the body and reports failures the same way
/// everywhere: command-line keys are as strict as spec keys (a typo such as
/// `frame=100` or a value such as `frames=abc` is rejected by key, never
/// ignored), and any exception becomes one `name: what` line and exit 1
/// instead of std::terminate.
#pragma once

#include <functional>
#include <iostream>
#include <string>

#include "common/config.hpp"

namespace prime::front {

/// \brief A main's work: read its keys from \p cfg, print, return the exit
///        status.
using Body = std::function<int(const common::Config& cfg)>;

/// \brief Parse argv's `key=value` tokens and run \p body. When the body
///        returns 0, keys it never read are rejected with one
///        UnknownKeyError line (did-you-mean and the supported keys) and
///        exit 1. Any exception becomes `name: what` on \p err and exit 1.
///        A non-zero status from the body itself (a usage message's 2)
///        passes through unchanged.
int run_main(const std::string& name, int argc, const char* const* argv,
             const Body& body, std::ostream& err = std::cerr);

/// \brief Peak resident set in MB, fractional, of this process and every
///        child it has reaped (a fleet's worker tree); negative when it
///        cannot be measured.
[[nodiscard]] double peak_rss_mb();

/// \brief Enforce a peak-RSS bound of \p bound_mb (0 = none): throws
///        std::runtime_error when \p rss_mb exceeds it or is negative
///        (unmeasurable), so the bound fails closed.
void check_rss_bound(double rss_mb, double bound_mb);

}  // namespace prime::front
