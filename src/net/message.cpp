#include "net/message.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"
#include "util/text.hpp"

namespace bsched::net {

std::uint64_t message::u64(const std::string& key) const {
  return parse_u64(str(key), "net: message '" + clip(type) + "' field " + key);
}

const std::string& message::str(const std::string& key) const {
  const auto it = fields.find(key);
  if (it == fields.end()) {
    throw error("net: message '" + clip(type) + "' is missing field '" + key +
                "'");
  }
  return it->second;
}

message make(std::string type) {
  message m;
  m.type = std::move(type);
  return m;
}

namespace {

/// Control bytes (NUL, tabs, CR, DEL, ...) never appear in a valid
/// header; bytes >= 0x80 pass through opaquely (worker names may be
/// UTF-8).
bool is_header_byte(unsigned char c) { return c >= 0x20 && c != 0x7f; }

bool is_token(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (!is_header_byte(static_cast<unsigned char>(c)) || c == ' ' ||
        c == '=') {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string encode(const message& m) {
  require(is_token(m.type), "net: message type must be a non-empty token");
  std::string out = "bsched-msg v" + std::to_string(protocol_version) + " ";
  out += m.type;
  for (const auto& [key, value] : m.fields) {
    if (!is_token(key)) {
      throw error("net: field name '" + key + "' is not a header token");
    }
    const bool clean = std::all_of(value.begin(), value.end(), [](char c) {
      return is_header_byte(static_cast<unsigned char>(c)) && c != ' ';
    });
    if (!clean) {
      throw error("net: field '" + key +
                  "' value contains whitespace or control bytes — bulky "
                  "payloads belong in the body");
    }
    out += ' ';
    out += key;
    out += '=';
    out += value;
  }
  out += '\n';
  out += m.body;
  return out;
}

message decode(std::string_view frame) {
  const std::size_t eol = frame.find('\n');
  require(eol != std::string_view::npos,
          "net: frame has no header line terminator");
  if (eol > max_header_bytes) {
    throw error("net: header line of " + std::to_string(eol) +
                " bytes exceeds the " + std::to_string(max_header_bytes) +
                "-byte limit");
  }
  const std::string_view header = frame.substr(0, eol);
  line_reader r{frame.substr(0, eol + 1), "bsched-msg"};
  (void)r.next();  // the header line, which the frame is known to have
  r.section("header");
  if (!std::all_of(header.begin(), header.end(), [](char c) {
        return is_header_byte(static_cast<unsigned char>(c));
      })) {
    r.fail("header contains control bytes: '" + clip(header) + "'");
  }
  const std::string magic = "bsched-msg v" + std::to_string(protocol_version);
  if (!header.starts_with(magic + ' ')) {
    r.fail("bad message magic '" + clip(header) + "' (this peer speaks '" +
           magic + "')");
  }
  // Tokens 0 and 1 are the magic; then the type and its key=value fields.
  message m;
  m.type = std::string{r.token(2)};
  for (std::size_t i = 3; i < r.size(); ++i) {
    const auto [key, value] = r.field(i);
    if (!m.fields.emplace(std::string{key}, std::string{value}).second) {
      r.fail("repeated key '" + clip(key) + "' in message '" + clip(m.type) +
             "'");
    }
  }
  m.body = std::string{frame.substr(eol + 1)};
  return m;
}

}  // namespace bsched::net
