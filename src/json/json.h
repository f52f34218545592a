/**
 * @file
 * A self-contained JSON value model, parser, and serializer.
 *
 * This is the configuration substrate of the framework (paper §III-C):
 * every component receives its own JSON sub-block and passes nested blocks
 * on to the constructors of its children.
 *
 * The parser accepts standard ECMA-404 JSON plus two conveniences that are
 * common in configuration files: // line comments and /" * "/ block
 * comments, and trailing commas in arrays/objects.
 */
#ifndef SS_JSON_JSON_H_
#define SS_JSON_JSON_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ss::json {

class Value;

/** The kind of a JSON value. */
enum class Type {
    kNull,
    kBool,
    kInt,     // signed 64-bit
    kUint,    // unsigned 64-bit (used when the literal doesn't fit i64)
    kFloat,   // double
    kString,
    kArray,
    kObject,
};

const char* typeName(Type type);

/** A JSON value (object keys keep insertion order). */
class Value {
  public:
    Value() : type_(Type::kNull) {}
    Value(std::nullptr_t) : type_(Type::kNull) {}
    Value(bool b) : type_(Type::kBool), bool_(b) {}
    Value(int i) : type_(Type::kInt), int_(i) {}
    Value(std::int64_t i) : type_(Type::kInt), int_(i) {}
    Value(std::uint64_t u) : type_(Type::kUint), uint_(u) {}
    Value(double d) : type_(Type::kFloat), float_(d) {}
    Value(const char* s) : type_(Type::kString), string_(s) {}
    Value(const std::string& s) : type_(Type::kString), string_(s) {}
    Value(std::string&& s) : type_(Type::kString), string_(std::move(s)) {}

    /** Creates an empty object/array. */
    static Value object();
    static Value array();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::kNull; }
    bool isBool() const { return type_ == Type::kBool; }
    bool isNumber() const;
    bool isString() const { return type_ == Type::kString; }
    bool isArray() const { return type_ == Type::kArray; }
    bool isObject() const { return type_ == Type::kObject; }

    /** Typed accessors; fatal() on a type mismatch. Numeric accessors
     *  convert between numeric representations when lossless. */
    bool asBool() const;
    std::int64_t asInt() const;
    std::uint64_t asUint() const;
    double asFloat() const;
    const std::string& asString() const;

    // ----- array interface -----
    std::size_t size() const;
    const Value& at(std::size_t index) const;
    Value& at(std::size_t index);
    void append(Value value);

    // ----- object interface -----
    bool has(const std::string& key) const;
    /** Returns the member or fatal()s if absent. */
    const Value& at(const std::string& key) const;
    Value& at(const std::string& key);
    /** Returns the member, inserting null if absent (object only). */
    Value& operator[](const std::string& key);
    /** Removes a member if present; returns true if removed. */
    bool erase(const std::string& key);
    const std::vector<std::string>& keys() const;

    /** Semantic equality: numbers compare across representations
     *  (3 == 3.0) and object key order is ignored. */
    bool operator==(const Value& other) const;

    /** Serializes; @p indent > 0 pretty-prints. */
    std::string toString(int indent = 0) const;

    /**
     * Serializes to the canonical form used for content hashing: object
     * keys sorted lexicographically, no whitespace, and normalized number
     * formatting (a float holding an integral value prints as that
     * integer; other floats print with the shortest round-trip
     * representation). Two values that compare equal with operator==
     * produce identical canonical strings.
     */
    std::string toCanonicalString() const;

  private:
    void writeTo(std::string* out, int indent, int depth) const;
    void writeCanonicalTo(std::string* out) const;
    void requireType(Type type) const;

    Type type_;
    bool bool_ = false;
    std::int64_t int_ = 0;
    std::uint64_t uint_ = 0;
    double float_ = 0.0;
    std::string string_;
    std::vector<Value> array_;
    // Object storage: insertion-ordered keys plus a parallel value vector.
    std::vector<std::string> objectKeys_;
    std::vector<Value> objectValues_;
};

/** Parses a JSON document from text; fatal() with line/column on error. */
Value parse(const std::string& text);

/** Parses a JSON document from a file; fatal() if unreadable/invalid. */
Value parseFile(const std::string& path);

/** Flattens numeric (and bool, as 0/1) leaves of a JSON tree into dotted
 *  names: {"latency":{"total":{"mean":3}}} -> {"latency.total.mean":3}. */
void flattenNumbers(const Value& value, const std::string& prefix,
                    std::map<std::string, double>* out);

}  // namespace ss::json

#endif  // SS_JSON_JSON_H_
