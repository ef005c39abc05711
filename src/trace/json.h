// Minimal JSON support for the telemetry layer: a streaming writer used by
// Counters/stats serialization and the bench --stats_json reports, plus a
// small recursive-descent parser used by tests and tools to validate
// round-trips.
//
// Deliberately not a general-purpose JSON library. The one non-obvious design
// point: numbers keep a lossless unsigned-integer fast path (`is_integer`),
// because counter values routinely exceed 2^53 and must survive a
// serialize/parse round-trip exactly.

#ifndef SRC_TRACE_JSON_H_
#define SRC_TRACE_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pmemsim {

// Streaming JSON writer: builds a syntactically valid document in a string,
// tracking commas and nesting so callers only state structure.
//
//   JsonWriter w;
//   w.BeginObject().Key("hits").Value(uint64_t{3}).EndObject();
//   w.str();  // {"hits":3}
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& name);

  JsonWriter& Value(const std::string& s);
  JsonWriter& Value(const char* s);
  JsonWriter& Value(uint64_t v);
  JsonWriter& Value(double v);
  JsonWriter& Value(bool v);
  JsonWriter& Null();
  // Splices `json` — assumed to be one complete, valid JSON value (typically
  // another writer's str()) — in value position. Lets reports embed sections
  // serialized by their owners (sampler arrays, attribution objects) without
  // re-walking them through this writer.
  JsonWriter& Raw(const std::string& json);

  bool complete() const { return depth_ == 0 && started_; }
  const std::string& str() const { return out_; }

 private:
  void BeforeValue();

  std::string out_;
  // Per-nesting-level flag: true once the first element was written (the next
  // element needs a leading comma).
  std::vector<bool> has_element_;
  int depth_ = 0;
  bool started_ = false;
  bool pending_key_ = false;
};

std::string JsonEscape(const std::string& s);

// Parsed JSON value. Objects preserve key order (counters serialize in
// declaration order; tests rely on lookups, not order).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  // Lossless path for non-negative integers (counter values exceed 2^53).
  bool is_integer = false;
  uint64_t integer = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  uint64_t AsUint() const { return is_integer ? integer : static_cast<uint64_t>(number); }
  double AsDouble() const { return is_integer ? static_cast<double>(integer) : number; }

  // Parses `text` into `*out`. On failure returns false and, when `error` is
  // non-null, stores a message with the byte offset.
  static bool Parse(const std::string& text, JsonValue* out, std::string* error = nullptr);
};

}  // namespace pmemsim

#endif  // SRC_TRACE_JSON_H_
