#include "json/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/strings.hpp"

namespace sww::json {

using util::Error;
using util::ErrorCode;
using util::Result;

Value::Type Value::type() const {
  switch (data_.index()) {
    case 0: return Type::kNull;
    case 1: return Type::kBool;
    case 2: return Type::kNumber;
    case 3: return Type::kString;
    case 4: return Type::kArray;
    default: return Type::kObject;
  }
}

bool Value::AsBool() const {
  if (!is_bool()) throw std::logic_error("json: AsBool on non-bool");
  return std::get<bool>(data_);
}

double Value::AsNumber() const {
  if (!is_number()) throw std::logic_error("json: AsNumber on non-number");
  return std::get<double>(data_);
}

std::int64_t Value::AsInt() const {
  return static_cast<std::int64_t>(AsNumber());
}

const std::string& Value::AsString() const {
  if (!is_string()) throw std::logic_error("json: AsString on non-string");
  return std::get<std::string>(data_);
}

const Array& Value::AsArray() const {
  if (!is_array()) throw std::logic_error("json: AsArray on non-array");
  return std::get<Array>(data_);
}

Array& Value::AsArray() {
  if (!is_array()) throw std::logic_error("json: AsArray on non-array");
  return std::get<Array>(data_);
}

const Object& Value::AsObject() const {
  if (!is_object()) throw std::logic_error("json: AsObject on non-object");
  return std::get<Object>(data_);
}

Object& Value::AsObject() {
  if (!is_object()) throw std::logic_error("json: AsObject on non-object");
  return std::get<Object>(data_);
}

const Value* Value::Get(std::string_view key) const {
  if (!is_object()) return nullptr;
  const Object& obj = std::get<Object>(data_);
  auto it = obj.find(std::string(key));
  return it == obj.end() ? nullptr : &it->second;
}

std::string Value::GetString(std::string_view key, std::string_view fallback) const {
  const Value* v = Get(key);
  return (v != nullptr && v->is_string()) ? v->AsString() : std::string(fallback);
}

double Value::GetNumber(std::string_view key, double fallback) const {
  const Value* v = Get(key);
  return (v != nullptr && v->is_number()) ? v->AsNumber() : fallback;
}

std::int64_t Value::GetInt(std::string_view key, std::int64_t fallback) const {
  const Value* v = Get(key);
  return (v != nullptr && v->is_number()) ? v->AsInt() : fallback;
}

bool Value::GetBool(std::string_view key, bool fallback) const {
  const Value* v = Get(key);
  return (v != nullptr && v->is_bool()) ? v->AsBool() : fallback;
}

Value& Value::Set(std::string key, Value value) {
  if (is_null()) data_ = Object{};
  if (!is_object()) throw std::logic_error("json: Set on non-object");
  std::get<Object>(data_)[std::move(key)] = std::move(value);
  return *this;
}

std::string EscapeString(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  util::AppendJsonString(out, text);
  return out;
}

namespace {

void AppendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // RFC 8259 has no inf/nan literal; "%.17g" would emit bare `inf` and
    // corrupt the document.  null is the conventional lossy fallback.
    out += "null";
  } else if (v == std::floor(v) && std::fabs(v) < 1e15) {
    // Integral values serialize without a decimal point: {"width":224}.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
  }
}

}  // namespace

void Value::DumpTo(std::string& out, int indent, int depth) const {
  const bool pretty = indent > 0;
  auto newline = [&](int d) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type()) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += std::get<bool>(data_) ? "true" : "false";
      break;
    case Type::kNumber:
      AppendNumber(out, std::get<double>(data_));
      break;
    case Type::kString:
      out += EscapeString(std::get<std::string>(data_));
      break;
    case Type::kArray: {
      const Array& arr = std::get<Array>(data_);
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i != 0) out.push_back(',');
        newline(depth + 1);
        arr[i].DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      const Object& obj = std::get<Object>(data_);
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : obj) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        out += EscapeString(key);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        value.DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Value::Dump() const {
  std::string out;
  DumpTo(out, 0, 0);
  return out;
}

std::string Value::DumpPretty() const {
  std::string out;
  DumpTo(out, 2, 0);
  return out;
}

namespace {

/// Recursive-descent RFC 8259 parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> ParseDocument() {
    SkipWhitespace();
    auto value = ParseValue();
    if (!value) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Error Fail(std::string message) const {
    return Error(ErrorCode::kMalformed,
                 "json at offset " + std::to_string(pos_) + ": " + std::move(message));
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  char Next() { return text_[pos_++]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      char c = Peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Consume(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Result<Value> ParseValue() {
    if (++depth_ > kMaxDepth) return Fail("nesting too deep");
    struct DepthGuard {
      int& d;
      ~DepthGuard() { --d; }
    } guard{depth_};
    if (AtEnd()) return Fail("unexpected end of input");
    switch (Peek()) {
      case 'n':
        if (Consume("null")) return Value(nullptr);
        return Fail("invalid literal (expected null)");
      case 't':
        if (Consume("true")) return Value(true);
        return Fail("invalid literal (expected true)");
      case 'f':
        if (Consume("false")) return Value(false);
        return Fail("invalid literal (expected false)");
      case '"':
        return ParseString();
      case '[':
        return ParseArray();
      case '{':
        return ParseObject();
      default:
        return ParseNumber();
    }
  }

  Result<Value> ParseNumber() {
    const std::size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
      return Fail("invalid number");
    }
    if (Peek() == '0') {
      ++pos_;
      if (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("leading zero in number");
      }
    } else {
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (!AtEnd() && Peek() == '.') {
      ++pos_;
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("digit required after decimal point");
      }
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("digit required in exponent");
      }
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Fail("invalid number");
    return Value(value);
  }

  Result<Value> ParseString() {
    auto s = ParseRawString();
    if (!s) return s.error();
    return Value(std::move(s).value());
  }

  Result<std::string> ParseRawString() {
    if (AtEnd() || Next() != '"') return Fail("expected string");
    std::string out;
    while (true) {
      if (AtEnd()) return Fail("unterminated string");
      char c = Next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (AtEnd()) return Fail("unterminated escape");
      char esc = Next();
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
          auto cp = ParseHex4();
          if (!cp) return cp.error();
          std::uint32_t code = cp.value();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: require a following \uXXXX low surrogate.
            if (!Consume("\\u")) return Fail("lone high surrogate");
            auto low = ParseHex4();
            if (!low) return low.error();
            if (low.value() < 0xDC00 || low.value() > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low.value() - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Fail("lone low surrogate");
          }
          AppendUtf8(out, code);
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
  }

  Result<std::uint32_t> ParseHex4() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      if (AtEnd()) return Fail("truncated \\u escape");
      char c = Next();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return Fail("invalid hex digit in \\u escape");
      }
    }
    return value;
  }

  static void AppendUtf8(std::string& out, std::uint32_t code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Result<Value> ParseArray() {
    ++pos_;  // '['
    Array items;
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      return Value(std::move(items));
    }
    while (true) {
      SkipWhitespace();
      auto item = ParseValue();
      if (!item) return item;
      items.push_back(std::move(item).value());
      SkipWhitespace();
      if (AtEnd()) return Fail("unterminated array");
      char c = Next();
      if (c == ']') return Value(std::move(items));
      if (c != ',') return Fail("expected ',' or ']' in array");
    }
  }

  Result<Value> ParseObject() {
    ++pos_;  // '{'
    Object fields;
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      return Value(std::move(fields));
    }
    while (true) {
      SkipWhitespace();
      auto key = ParseRawString();
      if (!key) return key.error();
      SkipWhitespace();
      if (AtEnd() || Next() != ':') return Fail("expected ':' in object");
      SkipWhitespace();
      auto value = ParseValue();
      if (!value) return value;
      fields[std::move(key).value()] = std::move(value).value();
      SkipWhitespace();
      if (AtEnd()) return Fail("unterminated object");
      char c = Next();
      if (c == '}') return Value(std::move(fields));
      if (c != ',') return Fail("expected ',' or '}' in object");
    }
  }

  static constexpr int kMaxDepth = 256;
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<Value> Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace sww::json
