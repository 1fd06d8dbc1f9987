#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>

/// The one JSON string writer and the one strict JSON reader of the
/// tree. Every JSON the project emits — metrics and profile sidecars,
/// Chrome traces, table and result-log renderings — quotes its strings
/// through append_json_string, and every JSON it reads back (metrics
/// snapshots, profiles) goes through JsonCursor.
namespace rdv::obs {

/// Appends `s` as a quoted JSON string: `"` and `\` backslash-escaped,
/// \n \r \t as themselves, any other byte below 0x20 as \u00XX, and
/// every other byte (UTF-8 included) verbatim.
void append_json_string(std::string& out, std::string_view s);

/// Strict recursive-descent reader for the integer-and-string JSON the
/// obs sidecars use. Every error throws std::runtime_error reading
/// "<document>: <what> at offset <n>", so a truncated or hand-edited
/// file is diagnosable. Integers must be in range for the requested
/// type (no silent wrap) and carry no leading zeros, strings may use
/// only the escapes append_json_string emits, and object keys must be
/// unique.
class JsonCursor {
 public:
  /// `document` names the input in error messages (e.g. "metrics json").
  JsonCursor(std::string_view document, std::string_view text) noexcept
      : document_(document), text_(text) {}

  [[noreturn]] void fail(const std::string& what) const;

  void skip_ws() noexcept;
  /// Consumes `c` (after whitespace) or fails.
  void expect(char c);
  /// Consumes `c` (after whitespace) when it is next.
  [[nodiscard]] bool try_consume(char c);

  [[nodiscard]] std::string parse_string();
  [[nodiscard]] std::int64_t parse_int();
  [[nodiscard]] std::uint64_t parse_uint();
  [[nodiscard]] bool parse_bool();

  /// Parses {"key": <value>, ...}, calling on_entry(key) with the
  /// cursor positioned at each value; on_entry must consume it.
  template <typename OnEntry>
  void parse_object(const OnEntry& on_entry) {
    expect('{');
    if (try_consume('}')) return;
    std::set<std::string, std::less<>> seen;
    do {
      std::string key = parse_string();
      if (!seen.insert(key).second) fail("duplicate key '" + key + "'");
      expect(':');
      on_entry(std::move(key));
    } while (try_consume(','));
    expect('}');
  }

  /// Parses [<value>, ...], calling on_element() once per element.
  template <typename OnElement>
  void parse_array(const OnElement& on_element) {
    expect('[');
    if (try_consume(']')) return;
    do {
      on_element();
    } while (try_consume(','));
    expect(']');
  }

  /// Fails unless only whitespace remains.
  void finish();

 private:
  /// Decimal digits at the cursor as an unsigned magnitude <= limit.
  std::uint64_t parse_digits(std::uint64_t limit);

  std::string_view document_;
  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace rdv::obs
