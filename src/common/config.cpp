#include "common/config.hpp"

#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "common/strings.hpp"

namespace prime::common {

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void Config::set_double(const std::string& key, double value) {
  std::ostringstream ss;
  ss.precision(17);
  ss << value;
  set(key, ss.str());
}

void Config::set_int(const std::string& key, long long value) {
  set(key, std::to_string(value));
}

void Config::set_bool(const std::string& key, bool value) {
  set(key, value ? "true" : "false");
}

bool Config::has(const std::string& key) const {
  return request(key).has_value();
}

std::optional<std::string> Config::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string> Config::request(const std::string& key) const {
  requested_.insert(key);
  return get(key);
}

void Config::reject(const std::string& key, const std::string& why) const {
  throw std::invalid_argument((owner_.empty() ? "" : owner_ + ": ") + "key '" +
                              key + "' " + why);
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return request(key).value_or(fallback);
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto v = request(key);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') {
    reject(key, "has non-numeric value '" + *v + "'");
  }
  return parsed;
}

long long Config::get_int(const std::string& key, long long fallback) const {
  const auto v = request(key);
  if (!v) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') {
    reject(key, "has non-integer value '" + *v + "'");
  }
  if (errno == ERANGE) reject(key, "has out-of-range value '" + *v + "'");
  return parsed;
}

std::size_t Config::get_count(const std::string& key, std::size_t fallback,
                              std::size_t min) const {
  const auto below_min = [&](const std::string& got) {
    reject(key, "must be >= " + std::to_string(min) + ", got " + got);
  };
  // An absent key yields the fallback as is: it never passes through
  // long long, so a derived 64-bit seed above LLONG_MAX stays intact.
  if (!has(key)) {
    if (fallback < min) below_min(std::to_string(fallback));
    return fallback;
  }
  const long long n = get_int(key, 0);
  if (n < static_cast<long long>(min)) below_min(std::to_string(n));
  return static_cast<std::size_t>(n);
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto v = request(key);
  if (!v) return fallback;
  const std::string s = to_lower(trim(*v));
  if (s == "true" || s == "1" || s == "yes" || s == "on") return true;
  if (s == "false" || s == "0" || s == "no" || s == "off") return false;
  reject(key, "has non-boolean value '" + *v + "'");
}

std::vector<std::string> Config::unrequested_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, _] : values_) {
    if (requested_.find(key) == requested_.end()) out.push_back(key);
  }
  return out;
}

bool Config::parse_assignment(const std::string& token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) return false;
  const std::string key = trim(token.substr(0, eq));
  if (key.empty()) return false;
  set(key, trim(token.substr(eq + 1)));
  return true;
}

void Config::parse_args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    parse_assignment(argv[i]);
  }
}

void Config::parse_text(const std::string& text) {
  for (const auto& raw_line : split(text, '\n')) {
    std::string line = raw_line;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    parse_assignment(line);
  }
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

}  // namespace prime::common
