// Minimal JSON reader for the sweep aggregation layer, and the one JSON
// string writer.
//
// The repo writes run results as JSON (fl/experiment.h) and the sweep
// aggregator reads them back to build paper tables; this parser covers the
// full JSON grammar those files use (objects, arrays, strings with escapes,
// numbers, booleans, null) with no external dependency. Object member order
// is preserved so tables render in emission order. Documents may come from
// another process (a sweep worker's result), so nesting is bounded.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace subfed {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const noexcept { return kind == Kind::kObject; }
  bool is_array() const noexcept { return kind == Kind::kArray; }
  bool is_number() const noexcept { return kind == Kind::kNumber; }
  bool is_string() const noexcept { return kind == Kind::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  /// Object member lookup that throws CheckError when absent.
  const JsonValue& at(const std::string& key) const;

  /// The member's number/string when present and of that kind, else fallback.
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key, const std::string& fallback) const;
};

/// Deepest array/object nesting parse_json accepts; the documents the repo
/// writes nest three levels at most.
constexpr std::size_t kMaxJsonDepth = 256;

/// Parses one JSON document (trailing whitespace allowed, nothing else).
/// Throws CheckError with the byte offset on malformed input, including
/// nesting deeper than kMaxJsonDepth.
JsonValue parse_json(const std::string& text);

/// Writes `value` as a quoted JSON string: `"` and `\` escaped, newline,
/// carriage return and tab by name, other control characters as \u00xx.
void write_json_string(std::ostream& os, std::string_view value);

}  // namespace subfed
