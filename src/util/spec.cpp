#include "util/spec.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/text.hpp"

namespace bsched {

namespace {

/// The `what` of a parameter's parse error: names the spec and the key,
/// both clipped (a spec can arrive over the sweep wire format).
std::string parameter_what(const spec& s, const std::string& key) {
  return "spec '" + clip(s.name) + "': parameter " + clip(key);
}

}  // namespace

std::uint64_t spec::get_u64(const std::string& key,
                            std::uint64_t fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback
                            : parse_u64(it->second, parameter_what(*this, key));
}

double spec::get_double(const std::string& key, double fallback) const {
  const auto it = params.find(key);
  return it == params.end()
             ? fallback
             : parse_double(it->second, parameter_what(*this, key));
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
    msg += clip(name);
    msg += "': unknown parameter '";
    msg += clip(key);
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
  if (out.name.empty()) {
    throw error("spec: empty name in '" + clip(text) + "'");
  }
  if (colon == std::string::npos) return out;

  std::size_t pos = colon + 1;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string item = text.substr(pos, comma - pos);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw error("spec '" + clip(out.name) + "': expected key=value, got '" +
                  clip(item) + "'");
    }
    const std::string key = item.substr(0, eq);
    if (out.params.contains(key)) {
      throw error("spec '" + clip(out.name) + "': duplicate parameter '" +
                  clip(key) + "'");
    }
    out.params.emplace(key, item.substr(eq + 1));
    pos = comma + 1;
  }
  return out;
}

}  // namespace bsched
