#include "json/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/logging.h"

namespace ss::json {

const char*
typeName(Type type)
{
    switch (type) {
      case Type::kNull: return "null";
      case Type::kBool: return "bool";
      case Type::kInt: return "int";
      case Type::kUint: return "uint";
      case Type::kFloat: return "float";
      case Type::kString: return "string";
      case Type::kArray: return "array";
      case Type::kObject: return "object";
    }
    return "?";
}

Value
Value::object()
{
    Value v;
    v.type_ = Type::kObject;
    return v;
}

Value
Value::array()
{
    Value v;
    v.type_ = Type::kArray;
    return v;
}

bool
Value::isNumber() const
{
    return type_ == Type::kInt || type_ == Type::kUint ||
           type_ == Type::kFloat;
}

void
Value::requireType(Type type) const
{
    if (type_ != type) {
        fatal("JSON type mismatch: wanted ", typeName(type), ", have ",
              typeName(type_));
    }
}

bool
Value::asBool() const
{
    requireType(Type::kBool);
    return bool_;
}

std::int64_t
Value::asInt() const
{
    switch (type_) {
      case Type::kInt:
        return int_;
      case Type::kUint:
        checkUser(uint_ <= static_cast<std::uint64_t>(
                      std::numeric_limits<std::int64_t>::max()),
                  "JSON uint ", uint_, " does not fit in int64");
        return static_cast<std::int64_t>(uint_);
      case Type::kFloat: {
        auto i = static_cast<std::int64_t>(float_);
        checkUser(static_cast<double>(i) == float_,
                  "JSON float ", float_, " is not an integer");
        return i;
      }
      default:
        fatal("JSON type mismatch: wanted a number, have ",
              typeName(type_));
    }
}

std::uint64_t
Value::asUint() const
{
    switch (type_) {
      case Type::kUint:
        return uint_;
      case Type::kInt:
        checkUser(int_ >= 0, "JSON int ", int_, " is negative, wanted uint");
        return static_cast<std::uint64_t>(int_);
      case Type::kFloat: {
        checkUser(float_ >= 0.0, "JSON float ", float_,
                  " is negative, wanted uint");
        auto u = static_cast<std::uint64_t>(float_);
        checkUser(static_cast<double>(u) == float_,
                  "JSON float ", float_, " is not an integer");
        return u;
      }
      default:
        fatal("JSON type mismatch: wanted a number, have ",
              typeName(type_));
    }
}

double
Value::asFloat() const
{
    switch (type_) {
      case Type::kFloat: return float_;
      case Type::kInt: return static_cast<double>(int_);
      case Type::kUint: return static_cast<double>(uint_);
      default:
        fatal("JSON type mismatch: wanted a number, have ",
              typeName(type_));
    }
}

const std::string&
Value::asString() const
{
    requireType(Type::kString);
    return string_;
}

std::size_t
Value::size() const
{
    if (type_ == Type::kArray) {
        return array_.size();
    }
    if (type_ == Type::kObject) {
        return objectKeys_.size();
    }
    fatal("JSON size() on ", typeName(type_));
}

const Value&
Value::at(std::size_t index) const
{
    requireType(Type::kArray);
    checkUser(index < array_.size(), "JSON array index ", index,
              " out of range (size ", array_.size(), ")");
    return array_[index];
}

Value&
Value::at(std::size_t index)
{
    return const_cast<Value&>(
        static_cast<const Value*>(this)->at(index));
}

void
Value::append(Value value)
{
    if (type_ == Type::kNull) {
        type_ = Type::kArray;
    }
    requireType(Type::kArray);
    array_.push_back(std::move(value));
}

bool
Value::has(const std::string& key) const
{
    if (type_ != Type::kObject) {
        return false;
    }
    for (const auto& k : objectKeys_) {
        if (k == key) {
            return true;
        }
    }
    return false;
}

const Value&
Value::at(const std::string& key) const
{
    requireType(Type::kObject);
    for (std::size_t i = 0; i < objectKeys_.size(); ++i) {
        if (objectKeys_[i] == key) {
            return objectValues_[i];
        }
    }
    fatal("JSON object has no member '", key, "'");
}

Value&
Value::at(const std::string& key)
{
    return const_cast<Value&>(
        static_cast<const Value*>(this)->at(key));
}

Value&
Value::operator[](const std::string& key)
{
    if (type_ == Type::kNull) {
        type_ = Type::kObject;
    }
    requireType(Type::kObject);
    for (std::size_t i = 0; i < objectKeys_.size(); ++i) {
        if (objectKeys_[i] == key) {
            return objectValues_[i];
        }
    }
    objectKeys_.push_back(key);
    objectValues_.emplace_back();
    return objectValues_.back();
}

bool
Value::erase(const std::string& key)
{
    if (type_ != Type::kObject) {
        return false;
    }
    for (std::size_t i = 0; i < objectKeys_.size(); ++i) {
        if (objectKeys_[i] == key) {
            objectKeys_.erase(objectKeys_.begin() + i);
            objectValues_.erase(objectValues_.begin() + i);
            return true;
        }
    }
    return false;
}

const std::vector<std::string>&
Value::keys() const
{
    requireType(Type::kObject);
    return objectKeys_;
}

bool
Value::operator==(const Value& other) const
{
    if (isNumber() && other.isNumber()) {
        // Compare numerics across representations.
        if (type_ == Type::kFloat || other.type_ == Type::kFloat) {
            return asFloat() == other.asFloat();
        }
        if (type_ == Type::kUint || other.type_ == Type::kUint) {
            if ((type_ == Type::kInt && int_ < 0) ||
                (other.type_ == Type::kInt && other.int_ < 0)) {
                return false;
            }
            return asUint() == other.asUint();
        }
        return int_ == other.int_;
    }
    if (type_ != other.type_) {
        return false;
    }
    switch (type_) {
      case Type::kNull: return true;
      case Type::kBool: return bool_ == other.bool_;
      case Type::kString: return string_ == other.string_;
      case Type::kArray: return array_ == other.array_;
      case Type::kObject: {
        // Insertion order is a presentation detail, not content.
        if (objectKeys_.size() != other.objectKeys_.size()) {
            return false;
        }
        for (std::size_t i = 0; i < objectKeys_.size(); ++i) {
            auto it = std::find(other.objectKeys_.begin(),
                                other.objectKeys_.end(), objectKeys_[i]);
            if (it == other.objectKeys_.end()) {
                return false;
            }
            std::size_t j = static_cast<std::size_t>(
                it - other.objectKeys_.begin());
            if (!(objectValues_[i] == other.objectValues_[j])) {
                return false;
            }
        }
        return true;
      }
      default: return false;  // numbers handled above
    }
}

namespace {

void
writeEscaped(std::string* out, const std::string& s)
{
    out->push_back('"');
    for (char c : s) {
        switch (c) {
          case '"': *out += "\\\""; break;
          case '\\': *out += "\\\\"; break;
          case '\n': *out += "\\n"; break;
          case '\t': *out += "\\t"; break;
          case '\r': *out += "\\r"; break;
          case '\b': *out += "\\b"; break;
          case '\f': *out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                *out += buf;
            } else {
                out->push_back(c);
            }
        }
    }
    out->push_back('"');
}

void
writeIndent(std::string* out, int indent, int depth)
{
    if (indent > 0) {
        out->push_back('\n');
        out->append(static_cast<std::size_t>(indent) * depth, ' ');
    }
}

}  // namespace

void
Value::writeTo(std::string* out, int indent, int depth) const
{
    switch (type_) {
      case Type::kNull:
        *out += "null";
        break;
      case Type::kBool:
        *out += bool_ ? "true" : "false";
        break;
      case Type::kInt:
        *out += std::to_string(int_);
        break;
      case Type::kUint:
        *out += std::to_string(uint_);
        break;
      case Type::kFloat: {
        if (std::isfinite(float_)) {
            std::ostringstream oss;
            oss.precision(17);
            oss << float_;
            *out += oss.str();
        } else {
            *out += "null";  // JSON has no inf/nan
        }
        break;
      }
      case Type::kString:
        writeEscaped(out, string_);
        break;
      case Type::kArray: {
        out->push_back('[');
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i > 0) {
                out->push_back(',');
            }
            writeIndent(out, indent, depth + 1);
            array_[i].writeTo(out, indent, depth + 1);
        }
        if (!array_.empty()) {
            writeIndent(out, indent, depth);
        }
        out->push_back(']');
        break;
      }
      case Type::kObject: {
        out->push_back('{');
        for (std::size_t i = 0; i < objectKeys_.size(); ++i) {
            if (i > 0) {
                out->push_back(',');
            }
            writeIndent(out, indent, depth + 1);
            writeEscaped(out, objectKeys_[i]);
            *out += indent > 0 ? ": " : ":";
            objectValues_[i].writeTo(out, indent, depth + 1);
        }
        if (!objectKeys_.empty()) {
            writeIndent(out, indent, depth);
        }
        out->push_back('}');
        break;
      }
    }
}

std::string
Value::toString(int indent) const
{
    std::string out;
    writeTo(&out, indent, 0);
    return out;
}

void
Value::writeCanonicalTo(std::string* out) const
{
    switch (type_) {
      case Type::kNull:
        *out += "null";
        break;
      case Type::kBool:
        *out += bool_ ? "true" : "false";
        break;
      case Type::kInt:
        *out += std::to_string(int_);
        break;
      case Type::kUint:
        *out += std::to_string(uint_);
        break;
      case Type::kFloat: {
        if (!std::isfinite(float_)) {
            *out += "null";  // JSON has no inf/nan
            break;
        }
        // Integral floats print as integers so that 1, 1u, and 1.0 —
        // equal under operator== — share one canonical spelling.
        if (float_ >= 0.0 &&
            float_ <= 18446744073709549568.0 /* largest double < 2^64 */ &&
            static_cast<double>(static_cast<std::uint64_t>(float_)) ==
                float_) {
            *out += std::to_string(static_cast<std::uint64_t>(float_));
            break;
        }
        if (float_ < 0.0 &&
            float_ >= -9223372036854775808.0 &&
            static_cast<double>(static_cast<std::int64_t>(float_)) ==
                float_) {
            *out += std::to_string(static_cast<std::int64_t>(float_));
            break;
        }
        // Shortest round-trip representation.
        char buf[32];
        auto res = std::to_chars(buf, buf + sizeof buf, float_);
        out->append(buf, res.ptr);
        break;
      }
      case Type::kString:
        writeEscaped(out, string_);
        break;
      case Type::kArray: {
        out->push_back('[');
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i > 0) {
                out->push_back(',');
            }
            array_[i].writeCanonicalTo(out);
        }
        out->push_back(']');
        break;
      }
      case Type::kObject: {
        std::vector<std::size_t> order(objectKeys_.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            order[i] = i;
        }
        std::sort(order.begin(), order.end(),
                  [this](std::size_t a, std::size_t b) {
                      return objectKeys_[a] < objectKeys_[b];
                  });
        out->push_back('{');
        bool first = true;
        for (std::size_t i : order) {
            if (!first) {
                out->push_back(',');
            }
            first = false;
            writeEscaped(out, objectKeys_[i]);
            out->push_back(':');
            objectValues_[i].writeCanonicalTo(out);
        }
        out->push_back('}');
        break;
      }
    }
}

std::string
Value::toCanonicalString() const
{
    std::string out;
    writeCanonicalTo(&out);
    return out;
}

namespace {

/** Recursive-descent JSON parser with position tracking. */
class Parser {
  public:
    explicit Parser(const std::string& text) : text_(text) {}

    Value
    parseDocument()
    {
        skipWhitespace();
        Value v = parseValue();
        skipWhitespace();
        if (pos_ != text_.size()) {
            fail("trailing characters after JSON document");
        }
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string& msg)
    {
        std::size_t line = 1;
        std::size_t col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        fatal("JSON parse error at line ", line, " column ", col, ": ",
              msg);
    }

    bool atEnd() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    char
    next()
    {
        if (atEnd()) {
            fail("unexpected end of input");
        }
        return text_[pos_++];
    }

    void
    expect(char c)
    {
        if (atEnd() || text_[pos_] != c) {
            fail(strf("expected '", c, "'"));
        }
        ++pos_;
    }

    void
    skipWhitespace()
    {
        for (;;) {
            while (!atEnd() && (peek() == ' ' || peek() == '\t' ||
                                peek() == '\n' || peek() == '\r')) {
                ++pos_;
            }
            if (!atEnd() && peek() == '/' && pos_ + 1 < text_.size()) {
                if (text_[pos_ + 1] == '/') {
                    while (!atEnd() && peek() != '\n') {
                        ++pos_;
                    }
                    continue;
                }
                if (text_[pos_ + 1] == '*') {
                    pos_ += 2;
                    while (pos_ + 1 < text_.size() &&
                           !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
                        ++pos_;
                    }
                    if (pos_ + 1 >= text_.size()) {
                        fail("unterminated block comment");
                    }
                    pos_ += 2;
                    continue;
                }
            }
            break;
        }
    }

    Value
    parseValue()
    {
        if (atEnd()) {
            fail("unexpected end of input");
        }
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return Value(parseString());
          case 't': parseLiteral("true"); return Value(true);
          case 'f': parseLiteral("false"); return Value(false);
          case 'n': parseLiteral("null"); return Value(nullptr);
          default: return parseNumber();
        }
    }

    void
    parseLiteral(const char* literal)
    {
        for (const char* p = literal; *p; ++p) {
            if (atEnd() || next() != *p) {
                fail(strf("invalid literal, expected '", literal, "'"));
            }
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            char c = next();
            if (c == '"') {
                return out;
            }
            if (c == '\\') {
                char e = next();
                switch (e) {
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/': out.push_back('/'); break;
                  case 'n': out.push_back('\n'); break;
                  case 't': out.push_back('\t'); break;
                  case 'r': out.push_back('\r'); break;
                  case 'b': out.push_back('\b'); break;
                  case 'f': out.push_back('\f'); break;
                  case 'u': {
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = next();
                        code <<= 4;
                        if (h >= '0' && h <= '9') {
                            code |= static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            fail("invalid \\u escape");
                        }
                    }
                    // Encode as UTF-8 (surrogate pairs unsupported; the
                    // basic multilingual plane suffices for config files).
                    if (code < 0x80) {
                        out.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        out.push_back(static_cast<char>(0xc0 | (code >> 6)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3f)));
                    } else {
                        out.push_back(static_cast<char>(0xe0 | (code >> 12)));
                        out.push_back(
                            static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3f)));
                    }
                    break;
                  }
                  default:
                    fail("invalid escape character");
                }
            } else {
                out.push_back(c);
            }
        }
    }

    Value
    parseNumber()
    {
        std::size_t start = pos_;
        bool negative = false;
        bool isFloat = false;
        if (peek() == '-') {
            negative = true;
            ++pos_;
        }
        while (!atEnd() &&
               ((peek() >= '0' && peek() <= '9') || peek() == '.' ||
                peek() == 'e' || peek() == 'E' || peek() == '+' ||
                peek() == '-')) {
            if (peek() == '.' || peek() == 'e' || peek() == 'E') {
                isFloat = true;
            }
            ++pos_;
        }
        std::string token = text_.substr(start, pos_ - start);
        if (token.empty() || token == "-") {
            fail("invalid number");
        }
        errno = 0;
        if (isFloat) {
            char* end = nullptr;
            double d = std::strtod(token.c_str(), &end);
            if (end != token.c_str() + token.size() || errno == ERANGE) {
                fail("invalid number '" + token + "'");
            }
            return Value(d);
        }
        if (negative) {
            char* end = nullptr;
            long long v = std::strtoll(token.c_str(), &end, 10);
            if (end != token.c_str() + token.size() || errno == ERANGE) {
                fail("invalid number '" + token + "'");
            }
            return Value(static_cast<std::int64_t>(v));
        }
        char* end = nullptr;
        unsigned long long v = std::strtoull(token.c_str(), &end, 10);
        if (end != token.c_str() + token.size() || errno == ERANGE) {
            fail("invalid number '" + token + "'");
        }
        if (v <= static_cast<unsigned long long>(
                std::numeric_limits<std::int64_t>::max())) {
            return Value(static_cast<std::int64_t>(v));
        }
        return Value(static_cast<std::uint64_t>(v));
    }

    Value
    parseObject()
    {
        expect('{');
        Value obj = Value::object();
        skipWhitespace();
        if (!atEnd() && peek() == '}') {
            ++pos_;
            return obj;
        }
        for (;;) {
            skipWhitespace();
            if (!atEnd() && peek() == '}') {  // trailing comma
                ++pos_;
                return obj;
            }
            std::string key = parseString();
            skipWhitespace();
            expect(':');
            skipWhitespace();
            obj[key] = parseValue();
            skipWhitespace();
            if (atEnd()) {
                fail("unterminated object");
            }
            char c = next();
            if (c == '}') {
                return obj;
            }
            if (c != ',') {
                fail("expected ',' or '}' in object");
            }
        }
    }

    Value
    parseArray()
    {
        expect('[');
        Value arr = Value::array();
        skipWhitespace();
        if (!atEnd() && peek() == ']') {
            ++pos_;
            return arr;
        }
        for (;;) {
            skipWhitespace();
            if (!atEnd() && peek() == ']') {  // trailing comma
                ++pos_;
                return arr;
            }
            arr.append(parseValue());
            skipWhitespace();
            if (atEnd()) {
                fail("unterminated array");
            }
            char c = next();
            if (c == ']') {
                return arr;
            }
            if (c != ',') {
                fail("expected ',' or ']' in array");
            }
        }
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

}  // namespace

Value
parse(const std::string& text)
{
    return Parser(text).parseDocument();
}

Value
parseFile(const std::string& path)
{
    std::ifstream file(path);
    checkUser(file.good(), "cannot open JSON file: ", path);
    std::ostringstream oss;
    oss << file.rdbuf();
    return parse(oss.str());
}

void
flattenNumbers(const Value& value, const std::string& prefix,
               std::map<std::string, double>* out)
{
    switch (value.type()) {
      case Type::kBool:
        (*out)[prefix] = value.asBool() ? 1.0 : 0.0;
        break;
      case Type::kInt:
      case Type::kUint:
      case Type::kFloat:
        (*out)[prefix] = value.asFloat();
        break;
      case Type::kObject:
        for (const auto& key : value.keys()) {
            flattenNumbers(value.at(key),
                           prefix.empty() ? key : prefix + '.' + key,
                           out);
        }
        break;
      case Type::kArray:
        for (std::size_t i = 0; i < value.size(); ++i) {
            flattenNumbers(value.at(i), prefix + '.' + std::to_string(i),
                           out);
        }
        break;
      default:
        break;  // strings and nulls are not metrics
    }
}

}  // namespace ss::json
