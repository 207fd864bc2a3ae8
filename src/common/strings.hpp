/// \file strings.hpp
/// \brief Small string utilities shared by config/CSV parsing and reporting.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace prime::common {

/// \brief Split \p text on \p sep; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

/// \brief Split \p text on \p sep, ignoring separators inside parentheses —
///        so "a,rtm(policy=upd,alpha=0.3)" splits into two fields, not three.
///        Used wherever users list construction specs (gov.list=...).
[[nodiscard]] std::vector<std::string> split_outside_parens(
    std::string_view text, char sep);

/// \brief A comma-separated list of specs ("ondemand, rtm(policy=upd,a=1)"):
///        split outside parentheses, entries trimmed, empty entries dropped.
[[nodiscard]] std::vector<std::string> split_spec_list(std::string_view text);

/// \brief Strip leading/trailing ASCII whitespace.
[[nodiscard]] std::string trim(std::string_view text);

/// \brief ASCII lower-case copy.
[[nodiscard]] std::string to_lower(std::string_view text);

/// \brief True if \p text begins with \p prefix.
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix) noexcept;

/// \brief True if \p text ends with \p suffix.
[[nodiscard]] bool ends_with(std::string_view text, std::string_view suffix) noexcept;

/// \brief Join strings with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// \brief Replace every occurrence of \p from in \p text with \p to
///        (placeholder expansion such as "{cell}").
void replace_all(std::string& text, std::string_view from, std::string_view to);

/// \brief Levenshtein edit distance (insert/delete/substitute, unit costs).
///        Used for did-you-mean suggestions in registry error messages.
[[nodiscard]] std::size_t edit_distance(std::string_view a, std::string_view b);

/// \brief printf-style double formatting (e.g. format_double(1.234, 2) == "1.23").
[[nodiscard]] std::string format_double(double value, int precision);

/// \brief Left-pad/truncate to a fixed width (for plain-text tables).
[[nodiscard]] std::string pad_left(std::string_view text, std::size_t width);

/// \brief Right-pad/truncate to a fixed width (for plain-text tables).
[[nodiscard]] std::string pad_right(std::string_view text, std::size_t width);

}  // namespace prime::common
