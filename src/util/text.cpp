#include "util/text.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <sstream>

#include "util/error.hpp"

namespace bsched {

namespace {

/// Bound on a failure's own `why`: a few echoes plus their context.
constexpr std::size_t why_limit = 4 * echo_limit;

template <class T>
bool parse_full(std::string_view text, T& value) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

std::string not_a_number(std::string_view what, std::string_view text) {
  return std::string{what} + ": not a valid number: '" + clip(text) + "'";
}

template <class T>
T parse_or_throw(std::string_view text, const std::string& what) {
  T value{};
  if (!parse_full(text, value)) throw error(not_a_number(what, text));
  return value;
}

}  // namespace

std::string shortest_double(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, ptr);
}

double parse_double(std::string_view text, const std::string& what) {
  return parse_or_throw<double>(text, what);
}

std::uint64_t parse_u64(std::string_view text, const std::string& what) {
  return parse_or_throw<std::uint64_t>(text, what);
}

std::string clip(std::string_view s, std::size_t limit) {
  if (s.size() <= limit) return std::string{s};
  return std::string{s.substr(0, limit)} + "...";
}

std::string read_all(std::istream& in) {
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

bool line_reader::next() {
  if (pos_ >= text_.size()) return false;
  const std::size_t eol = std::min(text_.find('\n', pos_), text_.size());
  line_ = text_.substr(pos_, eol - pos_);
  if (!line_.empty() && line_.back() == '\r') line_.remove_suffix(1);
  pos_ = eol + 1;
  ++line_no_;
  tokens_.clear();
  std::size_t at = 0;
  while (at < line_.size()) {
    const std::size_t end = std::min(line_.find(' ', at), line_.size());
    if (end > at) tokens_.push_back(line_.substr(at, end - at));
    at = end + 1;
  }
  return true;
}

void line_reader::advance(std::string_view wanted) {
  if (!next()) {
    fail("unexpected end of stream (wanted " + std::string{wanted} + ")");
  }
}

void line_reader::expect(std::string_view tag) {
  advance(tag);
  if (this->tag() != tag) {
    fail("expected '" + std::string{tag} + "' record, got '" + clip(line_) +
         "'");
  }
}

std::string line_reader::text_record(std::string_view key) {
  advance(key);
  if (line_.size() <= key.size() || line_.substr(0, key.size()) != key ||
      line_[key.size()] != '=') {
    fail("expected '" + std::string{key} + "=...', got '" + clip(line_) +
         "'");
  }
  return std::string{line_.substr(key.size() + 1)};
}

void line_reader::expect_magic(std::string_view literal) {
  if (!next()) fail("empty stream (wanted the magic line)");
  if (line_ != literal) {
    fail("bad magic '" + clip(line_) + "' (this reader speaks '" +
         std::string{literal} + "')");
  }
}

void line_reader::expect_end() {
  if (line_ != "end") fail("expected 'end', got '" + clip(line_) + "'");
  if (pos_ < text_.size()) {
    ++line_no_;
    fail("trailing content after 'end'");
  }
}

std::string_view line_reader::token(std::size_t i) const {
  if (i >= tokens_.size()) {
    fail("truncated '" + clip(tag()) + "' record: wanted field " +
         std::to_string(i) + ", line has " + std::to_string(tokens_.size()));
  }
  return tokens_[i];
}

std::pair<std::string_view, std::string_view> line_reader::field(
    std::size_t i) const {
  const std::string_view t = token(i);
  const std::size_t eq = t.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    fail("malformed field '" + clip(t) + "' (want key=value)");
  }
  return {t.substr(0, eq), t.substr(eq + 1)};
}

std::string_view line_reader::value(std::string_view key) const {
  std::size_t found = 0;  // token index; 0 is the tag, never a field
  for (std::size_t i = 1; i < tokens_.size(); ++i) {
    const std::string_view t = tokens_[i];
    if (t.size() > key.size() && t[key.size()] == '=' &&
        t.substr(0, key.size()) == key) {
      if (found != 0) fail("repeated key '" + std::string{key} + "'");
      found = i;
    }
  }
  if (found == 0) {
    fail("missing field '" + std::string{key} + "' in '" + clip(line_) +
         "'");
  }
  return tokens_[found].substr(key.size() + 1);
}

std::uint64_t line_reader::to_u64(std::string_view text,
                                  std::string_view what) const {
  std::uint64_t v = 0;
  if (!parse_full(text, v)) fail(not_a_number(what, text));
  return v;
}

double line_reader::to_f64(std::string_view text,
                           std::string_view what) const {
  double v = 0;
  if (!parse_full(text, v)) fail(not_a_number(what, text));
  return v;
}

std::vector<std::pair<double, double>> line_reader::pairs(
    std::string_view count_key) const {
  const std::uint64_t count = u64(count_key);
  std::vector<std::pair<double, double>> out;
  for (std::size_t i = 1; i < tokens_.size(); ++i) {
    const std::string_view t = tokens_[i];
    if (t.find('=') != std::string_view::npos) continue;
    const std::size_t colon = t.find(':');
    std::pair<double, double> p;
    if (colon == std::string_view::npos ||
        !parse_full(t.substr(0, colon), p.first) ||
        !parse_full(t.substr(colon + 1), p.second)) {
      fail("malformed " + std::string{count_key} + " entry '" + clip(t) +
           "' (want number:number)");
    }
    out.push_back(p);
  }
  if (out.size() != count) {
    fail(std::string{count_key} + " count mismatch: header says " +
         std::to_string(count) + ", line carries " +
         std::to_string(out.size()));
  }
  return out;
}

void line_reader::fail(std::string_view why) const {
  std::string msg = std::string{format_} + ": line " + std::to_string(line_no_);
  if (!section_.empty()) msg += " (" + section_ + ")";
  throw error(msg + ": " + clip(why, why_limit));
}

}  // namespace bsched
