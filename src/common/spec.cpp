#include "common/spec.hpp"

#include <cstdlib>
#include <stdexcept>

#include "common/strings.hpp"

namespace prime::common {
namespace {

[[noreturn]] void fail(const std::string& text, const std::string& why) {
  throw std::invalid_argument("Spec::parse: " + why + " in '" + text + "'");
}

/// Split \p body on commas at parenthesis depth 0, so nested specs stay
/// whole. Validates balance, then delegates to the shared depth-aware split.
std::vector<std::string> split_args(const std::string& text,
                                    const std::string& body) {
  int depth = 0;
  for (const char c : body) {
    if (c == '(') ++depth;
    if (c == ')' && --depth < 0) fail(text, "unbalanced ')'");
  }
  if (depth != 0) fail(text, "unbalanced '('");
  return split_outside_parens(body, ',');
}

}  // namespace

double Spec::get_double(const std::string& key, double fallback) const {
  requested_.insert(key);
  const auto v = args_.get(key);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') {
    throw std::invalid_argument("Spec '" + name_ + "': key '" + key +
                                "' has non-numeric value '" + *v + "'");
  }
  return parsed;
}

long long Spec::get_int(const std::string& key, long long fallback) const {
  requested_.insert(key);
  const auto v = args_.get(key);
  if (!v) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') {
    throw std::invalid_argument("Spec '" + name_ + "': key '" + key +
                                "' has non-integer value '" + *v + "'");
  }
  return parsed;
}

std::size_t Spec::get_count(const std::string& key, std::size_t fallback,
                            std::size_t min) const {
  const long long n = get_int(key, static_cast<long long>(fallback));
  if (n < static_cast<long long>(min)) {
    throw std::invalid_argument("Spec '" + name_ + "': key '" + key +
                                "' must be >= " + std::to_string(min) +
                                ", got " + std::to_string(n));
  }
  return static_cast<std::size_t>(n);
}

bool Spec::get_bool(const std::string& key, bool fallback) const {
  requested_.insert(key);
  const auto v = args_.get(key);
  if (!v) return fallback;
  const std::string s = to_lower(trim(*v));
  if (s == "true" || s == "1" || s == "yes" || s == "on") return true;
  if (s == "false" || s == "0" || s == "no" || s == "off") return false;
  throw std::invalid_argument("Spec '" + name_ + "': key '" + key +
                              "' has non-boolean value '" + *v + "'");
}

Spec Spec::parse(const std::string& text) {
  const std::string trimmed = trim(text);
  if (trimmed.empty()) fail(text, "empty spec");

  const std::size_t open = trimmed.find('(');
  if (open == std::string::npos) {
    if (trimmed.find(')') != std::string::npos) fail(text, "unbalanced ')'");
    if (trimmed.find('=') != std::string::npos ||
        trimmed.find(',') != std::string::npos) {
      fail(text, "arguments outside parentheses");
    }
    return Spec(trimmed);
  }

  Spec spec(trim(trimmed.substr(0, open)));
  if (spec.name_.empty()) fail(text, "empty name");
  if (trimmed.back() != ')') {
    fail(text, trimmed.find(')') == std::string::npos
                   ? "missing closing ')'"
                   : "text after closing ')'");
  }

  const std::string body =
      trimmed.substr(open + 1, trimmed.size() - open - 2);
  if (trim(body).empty()) return spec;  // "name()" == "name"

  for (const std::string& raw : split_args(text, body)) {
    const std::string token = trim(raw);
    if (token.empty()) fail(text, "empty argument");
    // '=' at depth 0 separates key from value; '=' inside a nested spec does
    // not (e.g. inner=rtm(policy=upd)).
    std::size_t eq = std::string::npos;
    int depth = 0;
    for (std::size_t i = 0; i < token.size(); ++i) {
      if (token[i] == '(') ++depth;
      if (token[i] == ')') --depth;
      if (token[i] == '=' && depth == 0) {
        eq = i;
        break;
      }
    }
    if (eq == std::string::npos) {
      spec.args_.set(token, "true");  // bare flag
      continue;
    }
    const std::string key = trim(token.substr(0, eq));
    if (key.empty()) fail(text, "empty key");
    spec.args_.set(key, trim(token.substr(eq + 1)));
  }
  return spec;
}

std::string Spec::to_string() const {
  if (args_.size() == 0) return name_;
  std::vector<std::string> parts;
  for (const auto& key : args_.keys()) {
    parts.push_back(key + "=" + args_.get_string(key, ""));
  }
  return name_ + "(" + join(parts, ",") + ")";
}

}  // namespace prime::common
