#include "util/spec.hpp"

#include <algorithm>
#include <charconv>

#include "util/error.hpp"

namespace bsched {

namespace {

template <class T>
T parse_number(const spec& s, const std::string& key, T fallback) {
  const auto it = s.params.find(key);
  if (it == s.params.end()) return fallback;
  const std::string& v = it->second;
  T value{};
  const auto [ptr, ec] =
      std::from_chars(v.data(), v.data() + v.size(), value);
  if (ec != std::errc{} || ptr != v.data() + v.size()) {
    throw error("spec '" + s.name + "': parameter " + key + "=" + v +
                " is not a valid number");
  }
  return value;
}

}  // namespace

std::uint64_t spec::get_u64(const std::string& key,
                            std::uint64_t fallback) const {
  return parse_number<std::uint64_t>(*this, key, fallback);
}

double spec::get_double(const std::string& key, double fallback) const {
  return parse_number<double>(*this, key, fallback);
}

std::string spec::get_string(const std::string& key,
                             const std::string& fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

void spec::require_only(std::initializer_list<const char*> allowed) const {
  for (const auto& [key, value] : params) {
    const bool known = std::any_of(
        allowed.begin(), allowed.end(),
        [&](const char* a) { return key == a; });
    if (known) continue;
    // Name the offending key *and* the accepted set, so a typo like
    // "opt:max_nodez=1" tells the user what was meant to be written.
    std::string msg = "spec '";
    msg += name;
    msg += "': unknown parameter '";
    msg += key;
    msg += '\'';
    if (allowed.size() == 0) {
      msg += " (accepts no parameters)";
    } else {
      msg += " (accepted: ";
      bool first = true;
      for (const char* a : allowed) {
        if (!first) msg += ", ";
        msg += a;
        first = false;
      }
      msg += ')';
    }
    throw error(msg);
  }
}

std::string spec::str() const {
  std::string out = name;
  char sep = ':';
  for (const auto& [key, value] : params) {
    out += sep;
    out += key;
    out += '=';
    out += value;
    sep = ',';
  }
  return out;
}

spec parse_spec(const std::string& text) {
  spec out;
  const std::size_t colon = text.find(':');
  out.name = text.substr(0, colon);
  if (out.name.empty()) throw error("spec: empty name in '" + text + "'");
  if (colon == std::string::npos) return out;

  std::size_t pos = colon + 1;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string item = text.substr(pos, comma - pos);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw error("spec '" + out.name + "': expected key=value, got '" +
                  item + "'");
    }
    const std::string key = item.substr(0, eq);
    if (out.params.contains(key)) {
      throw error("spec '" + out.name + "': duplicate parameter '" + key +
                  "'");
    }
    out.params.emplace(key, item.substr(eq + 1));
    pos = comma + 1;
  }
  return out;
}

}  // namespace bsched
