#include "util/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "util/check.h"

namespace subfed {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue document() {
    JsonValue value = parse_value(0);
    skip_ws();
    SUBFEDAVG_CHECK(pos_ == text_.size(), "trailing JSON content at offset " << pos_);
    return value;
  }

 private:
  char peek() {
    skip_ws();
    SUBFEDAVG_CHECK(pos_ < text_.size(), "unexpected end of JSON");
    return text_[pos_];
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void expect(char c) {
    SUBFEDAVG_CHECK(peek() == c, "expected '" << c << "' at JSON offset " << pos_
                                              << ", got '" << text_[pos_] << "'");
    ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      SUBFEDAVG_CHECK(pos_ < text_.size() && text_[pos_] == *p,
                      "bad JSON literal at offset " << pos_);
      ++pos_;
    }
  }

  JsonValue parse_value(std::size_t depth) {
    const char c = peek();
    JsonValue value;
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"':
        value.kind = JsonValue::Kind::kString;
        value.string = parse_string();
        return value;
      case 't':
        literal("true");
        value.kind = JsonValue::Kind::kBool;
        value.boolean = true;
        return value;
      case 'f':
        literal("false");
        value.kind = JsonValue::Kind::kBool;
        return value;
      case 'n':
        literal("null");
        return value;
      default:
        return parse_number();
    }
  }

  /// `depth` counts the containers enclosing the one about to be parsed.
  void check_depth(std::size_t depth) const {
    SUBFEDAVG_CHECK(depth < kMaxJsonDepth,
                    "JSON nested deeper than " << kMaxJsonDepth << " levels at offset " << pos_);
  }

  JsonValue parse_object(std::size_t depth) {
    check_depth(depth);
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    expect('{');
    if (consume('}')) return value;
    do {
      std::string key = parse_string();
      expect(':');
      value.object.emplace_back(std::move(key), parse_value(depth + 1));
    } while (consume(','));
    expect('}');
    return value;
  }

  JsonValue parse_array(std::size_t depth) {
    check_depth(depth);
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    expect('[');
    if (consume(']')) return value;
    do {
      value.array.push_back(parse_value(depth + 1));
    } while (consume(','));
    expect(']');
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      SUBFEDAVG_CHECK(pos_ < text_.size(), "unterminated JSON string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      SUBFEDAVG_CHECK(pos_ < text_.size(), "unterminated JSON escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          SUBFEDAVG_CHECK(pos_ + 4 <= text_.size(), "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            SUBFEDAVG_CHECK(std::isxdigit(static_cast<unsigned char>(h)),
                            "bad \\u escape at offset " << pos_);
            code = code * 16 +
                   static_cast<unsigned>(h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
          }
          // The writer only emits \u00xx control escapes; encode as UTF-8 for
          // anything else so round-trips stay lossless enough for labels.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          SUBFEDAVG_CHECK(false, "unknown JSON escape '\\" << esc << "'");
      }
    }
  }

  JsonValue parse_number() {
    skip_ws();
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double parsed = std::strtod(begin, &end);
    SUBFEDAVG_CHECK(end != begin, "expected a JSON value at offset " << pos_);
    pos_ += static_cast<std::size_t>(end - begin);
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number = parsed;
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* found = find(key);
  SUBFEDAVG_CHECK(found != nullptr, "JSON object has no member '" << key << "'");
  return *found;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* found = find(key);
  return (found != nullptr && found->is_number()) ? found->number : fallback;
}

std::string JsonValue::string_or(const std::string& key, const std::string& fallback) const {
  const JsonValue* found = find(key);
  return (found != nullptr && found->is_string()) ? found->string : fallback;
}

JsonValue parse_json(const std::string& text) { return Parser(text).document(); }

void write_json_string(std::ostream& os, std::string_view value) {
  os << '"';
  for (const char c : value) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace subfed
