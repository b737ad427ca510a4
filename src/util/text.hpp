// Portable number <-> text round-tripping, and the one strict reader of
// bsched's line-oriented text formats.
//
// The sweep codec (dist/codec.hpp) and the declarative spec descriptions
// (load_spec::describe()) both need doubles rendered so that reading the
// text back reproduces the original value bit-exactly on any platform.
// std::to_chars gives the shortest decimal form with that guarantee; the
// parsers here are its strict full-string inverses.
//
// The four versioned wire formats — "bsched-shard" and "bsched-sweep"
// (dist/codec.hpp), "bsched-msg" headers (net/message.hpp) and
// "bsched-telemetry" (obs/telemetry.hpp) — are all decoded through
// line_reader, so they share one policy:
//
//   * Lines end at '\n'; one trailing '\r' per line is dropped, so CRLF
//     documents decode exactly like their LF form.
//   * A record is one line of tokens separated by spaces (runs of spaces
//     count as one separator); its first token is the tag.
//   * Decoding is strict: a wrong magic line (a different version
//     included), truncation, an unexpected or out-of-place record, a
//     missing or repeated key, a malformed number and any content after
//     the closing "end" line all throw bsched::error. There is no silent
//     partial decode.
//   * Every error reads "<format>: line N (section): why", naming the
//     1-based line and the section being decoded, and echoes at most
//     echo_limit bytes of any input it quotes, so a hostile document
//     cannot amplify itself through an error message.
//
// Each format owns its magic literal and version constant; the reader
// only compares against what it is given.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace bsched {

/// Shortest decimal form that parses back to exactly `v` (std::to_chars
/// round-trip guarantee), e.g. "0.1", "5.5", "1e-09".
[[nodiscard]] std::string shortest_double(double v);

/// Parses a full-string double (the shortest_double inverse). Throws
/// bsched::error naming `what` when the text is not exactly one number.
[[nodiscard]] double parse_double(std::string_view text,
                                  const std::string& what);

/// Parses a full-string unsigned 64-bit integer; throws like parse_double.
[[nodiscard]] std::uint64_t parse_u64(std::string_view text,
                                      const std::string& what);

/// Longest stretch of input an error message quotes.
inline constexpr std::size_t echo_limit = 64;

/// `s` clipped to `limit` bytes for an error message ("..." marks a cut).
[[nodiscard]] std::string clip(std::string_view s,
                               std::size_t limit = echo_limit);

/// The rest of `in` (the decoders' istream overloads read through this).
[[nodiscard]] std::string read_all(std::istream& in);

/// Strict decoder of one document under the policy above. Each line is
/// tokenised once when read; the accessors work on that record. Holds
/// `text` by view, so the document must outlive the reader.
class line_reader {
 public:
  /// `format` leads every error message ("bsched-shard", ...).
  line_reader(std::string_view text, std::string_view format)
      : text_(text), format_(format) {}

  /// Advances to the next line; false at the end of the text.
  bool next();
  /// Advances, or fails "unexpected end of stream (wanted <wanted>)".
  void advance(std::string_view wanted);
  /// Advances to a line whose tag must be `tag`.
  void expect(std::string_view tag);
  /// Advances to a line that must be "key=<rest>"; returns the rest
  /// verbatim (free-form strings: labels, specs).
  [[nodiscard]] std::string text_record(std::string_view key);
  /// Reads the first line, which must be exactly `literal`.
  void expect_magic(std::string_view literal);
  /// Requires the current line to be "end" and nothing to follow it.
  void expect_end();

  /// Names the section later errors report ("shard header", "cell 3").
  void section(std::string name) { section_ = std::move(name); }

  [[nodiscard]] std::string_view line() const { return line_; }
  /// The record's first token (empty on a blank line).
  [[nodiscard]] std::string_view tag() const {
    return tokens_.empty() ? std::string_view{} : tokens_.front();
  }
  /// Token count, the tag included.
  [[nodiscard]] std::size_t size() const { return tokens_.size(); }
  /// Token `i` (0 is the tag); fails when the record is shorter.
  [[nodiscard]] std::string_view token(std::size_t i) const;
  /// Token `i` split at its first '='; fails without one or a key.
  [[nodiscard]] std::pair<std::string_view, std::string_view> field(
      std::size_t i) const;
  /// The value of the "key=value" token; fails when missing or repeated.
  [[nodiscard]] std::string_view value(std::string_view key) const;

  /// `text` as a full-string number; fails naming `what`.
  [[nodiscard]] std::uint64_t to_u64(std::string_view text,
                                     std::string_view what) const;
  [[nodiscard]] double to_f64(std::string_view text,
                              std::string_view what) const;
  [[nodiscard]] std::uint64_t u64(std::string_view key) const {
    return to_u64(value(key), key);
  }
  [[nodiscard]] double f64(std::string_view key) const {
    return to_f64(value(key), key);
  }

  /// For "tag count_key=N a:b a:b ...": the N number pairs. Fails when N
  /// disagrees with the line or a pair is malformed; other key=value
  /// tokens are left to value().
  [[nodiscard]] std::vector<std::pair<double, double>> pairs(
      std::string_view count_key) const;

  /// f(), with a bsched::error it throws (a load spec, trace or digest
  /// rejecting decoded values) rethrown through fail().
  template <class F>
  auto guard(F&& f) const -> decltype(f()) {
    try {
      return f();
    } catch (const error& e) {
      fail(e.what());
    }
  }

  /// Throws "<format>: line N (section): why", with `why` itself bounded
  /// so a rethrown nested error cannot carry a whole hostile line.
  [[noreturn]] void fail(std::string_view why) const;

 private:
  std::string_view text_;
  std::string_view format_;
  std::size_t pos_ = 0;
  std::size_t line_no_ = 0;
  std::string_view line_;
  std::vector<std::string_view> tokens_;
  std::string section_;
};

}  // namespace bsched
