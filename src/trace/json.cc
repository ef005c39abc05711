#include "src/trace/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/common/check.h"

namespace pmemsim {

// --- writer ---

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) {
      out_ += ',';
    }
    has_element_.back() = true;
  }
  started_ = true;
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  has_element_.push_back(false);
  ++depth_;
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  PMEMSIM_CHECK(depth_ > 0 && !pending_key_);
  out_ += '}';
  has_element_.pop_back();
  --depth_;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  has_element_.push_back(false);
  ++depth_;
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  PMEMSIM_CHECK(depth_ > 0 && !pending_key_);
  out_ += ']';
  has_element_.pop_back();
  --depth_;
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& name) {
  PMEMSIM_CHECK(depth_ > 0 && !pending_key_);
  if (has_element_.back()) {
    out_ += ',';
  }
  has_element_.back() = true;
  out_ += '"';
  out_ += JsonEscape(name);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(const std::string& s) {
  BeforeValue();
  out_ += '"';
  out_ += JsonEscape(s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Value(const char* s) { return Value(std::string(s)); }

JsonWriter& JsonWriter::Value(uint64_t v) {
  BeforeValue();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Value(double v) {
  BeforeValue();
  if (!std::isfinite(v)) {
    // JSON has no inf/nan; null is the conventional stand-in.
    out_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  BeforeValue();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Raw(const std::string& json) {
  PMEMSIM_CHECK_MSG(!json.empty(), "Raw() requires a complete JSON value");
  BeforeValue();
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// --- parser ---

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error) : text_(text), error_(error) {}

  bool Run(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) {
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters");
    }
    return true;
  }

 private:
  bool Fail(const char* msg) {
    if (error_ != nullptr) {
      *error_ = std::string(msg) + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string);
      case 't':
      case 'f':
        return ParseLiteral(out);
      case 'n':
        return ParseLiteral(out);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseLiteral(JsonValue* out) {
    auto match = [&](const char* lit) {
      const size_t n = std::strlen(lit);
      if (text_.compare(pos_, n, lit) == 0) {
        pos_ += n;
        return true;
      }
      return false;
    };
    if (match("true")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (match("false")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = false;
      return true;
    }
    if (match("null")) {
      out->type = JsonValue::Type::kNull;
      return true;
    }
    return Fail("invalid literal");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool fractional = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        fractional = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      return Fail("invalid number");
    }
    const std::string token = text_.substr(start, pos_ - start);
    out->type = JsonValue::Type::kNumber;
    if (!fractional && token[0] != '-') {
      // Lossless unsigned-integer path (counters exceed 2^53).
      errno = 0;
      char* end = nullptr;
      const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        out->is_integer = true;
        out->integer = v;
        out->number = static_cast<double>(v);
        return true;
      }
    }
    char* end = nullptr;
    out->number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Fail("invalid number");
    }
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return Fail("expected string");
    }
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        return Fail("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("invalid \\u escape");
            }
          }
          // UTF-8 encode (surrogate pairs are not needed by our emitters).
          if (cp < 0x80) {
            *out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            *out += static_cast<char>(0xC0 | (cp >> 6));
            *out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (cp >> 12));
            *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          return Fail("invalid escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseArray(JsonValue* out) {
    Consume('[');
    out->type = JsonValue::Type::kArray;
    SkipWs();
    if (Consume(']')) {
      return true;
    }
    while (true) {
      JsonValue element;
      SkipWs();
      if (!ParseValue(&element)) {
        return false;
      }
      out->array.push_back(std::move(element));
      SkipWs();
      if (Consume(']')) {
        return true;
      }
      if (!Consume(',')) {
        return Fail("expected ',' or ']'");
      }
    }
  }

  bool ParseObject(JsonValue* out) {
    Consume('{');
    out->type = JsonValue::Type::kObject;
    SkipWs();
    if (Consume('}')) {
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (!Consume(':')) {
        return Fail("expected ':'");
      }
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Consume('}')) {
        return true;
      }
      if (!Consume(',')) {
        return Fail("expected ',' or '}'");
      }
    }
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : object) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

bool JsonValue::Parse(const std::string& text, JsonValue* out, std::string* error) {
  *out = JsonValue();
  return Parser(text, error).Run(out);
}

}  // namespace pmemsim
