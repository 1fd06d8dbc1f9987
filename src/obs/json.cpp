#include "obs/json.hpp"

#include <limits>
#include <stdexcept>

namespace rdv::obs {

namespace {

bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

int hex_value(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void JsonCursor::fail(const std::string& what) const {
  throw std::runtime_error(std::string(document_) + ": " + what +
                           " at offset " + std::to_string(pos_));
}

void JsonCursor::skip_ws() noexcept {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
          text_[pos_] == '\t')) {
    ++pos_;
  }
}

void JsonCursor::expect(char c) {
  skip_ws();
  if (pos_ >= text_.size()) fail("unexpected end of input");
  if (text_[pos_] != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

bool JsonCursor::try_consume(char c) {
  skip_ws();
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

std::string JsonCursor::parse_string() {
  expect('"');
  std::string out;
  for (;;) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_];
    if (c == '"') break;
    if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
    ++pos_;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos_ >= text_.size()) fail("dangling escape");
    const char e = text_[pos_++];
    // Exactly the escapes append_json_string emits.
    switch (e) {
      case '"': case '\\': out += e; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        int code = 0;
        for (int i = 0; i < 4; ++i) {
          const int h = pos_ < text_.size() ? hex_value(text_[pos_]) : -1;
          if (h < 0) fail("bad \\u escape");
          code = code * 16 + h;
          ++pos_;
        }
        if (code >= 0x20) fail("unsupported \\u escape");
        out += static_cast<char>(code);
        break;
      }
      default: fail("unsupported escape");
    }
  }
  ++pos_;
  return out;
}

std::uint64_t JsonCursor::parse_digits(std::uint64_t limit) {
  const std::size_t start = pos_;
  if (pos_ >= text_.size() || !is_digit(text_[pos_])) {
    fail("expected integer");
  }
  std::uint64_t value = 0;
  while (pos_ < text_.size() && is_digit(text_[pos_])) {
    const auto d = static_cast<std::uint64_t>(text_[pos_] - '0');
    if (value > (limit - d) / 10) {
      pos_ = start;
      fail("integer out of range");
    }
    value = value * 10 + d;
    ++pos_;
  }
  if (text_[start] == '0' && pos_ - start > 1) {
    pos_ = start;
    fail("leading zero");
  }
  return value;
}

std::int64_t JsonCursor::parse_int() {
  skip_ws();
  const bool negative = pos_ < text_.size() && text_[pos_] == '-';
  if (negative) ++pos_;
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  const std::uint64_t magnitude = parse_digits(negative ? kMax + 1 : kMax);
  if (!negative || magnitude == 0) return static_cast<std::int64_t>(magnitude);
  return -static_cast<std::int64_t>(magnitude - 1) - 1;
}

std::uint64_t JsonCursor::parse_uint() {
  skip_ws();
  if (pos_ < text_.size() && text_[pos_] == '-') {
    fail("expected non-negative integer");
  }
  return parse_digits(std::numeric_limits<std::uint64_t>::max());
}

bool JsonCursor::parse_bool() {
  skip_ws();
  if (text_.compare(pos_, 4, "true") == 0) {
    pos_ += 4;
    return true;
  }
  if (text_.compare(pos_, 5, "false") == 0) {
    pos_ += 5;
    return false;
  }
  fail("expected boolean");
}

void JsonCursor::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing garbage");
}

}  // namespace rdv::obs
