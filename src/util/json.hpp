// Minimal JSON value + recursive-descent parser, no dependencies — just
// enough for the observability tooling (gtopktop, the telemetry tests) to
// read back what the exporters write: objects, arrays, strings with the
// escapes our writers emit, and doubles. Not a general-purpose validator;
// it accepts all JSON this repo produces and rejects garbage with a typed
// error naming the offset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gtopk::util {

class JsonError : public std::runtime_error {
public:
    JsonError(const std::string& what, std::size_t offset)
        : std::runtime_error(what + " at offset " + std::to_string(offset)),
          offset_(offset) {}
    std::size_t offset() const { return offset_; }

private:
    std::size_t offset_;
};

class JsonValue {
public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    using Array = std::vector<JsonValue>;
    using Object = std::map<std::string, JsonValue>;

    JsonValue() = default;  // null

    /// Parse one complete JSON document (throws JsonError).
    static JsonValue parse(std::string_view text);

    Type type() const { return type_; }
    bool is_null() const { return type_ == Type::Null; }
    bool is_object() const { return type_ == Type::Object; }
    bool is_array() const { return type_ == Type::Array; }
    bool is_number() const { return type_ == Type::Number; }

    /// Typed accessors; throw JsonError(offset 0) on type mismatch.
    bool as_bool() const;
    double as_number() const;
    std::int64_t as_int() const;
    const std::string& as_string() const;
    const Array& as_array() const;
    const Object& as_object() const;

    /// Object member lookup; nullptr when absent or not an object.
    const JsonValue* find(const std::string& key) const;
    /// Member value with default (numbers only).
    double number_or(const std::string& key, double dflt) const;

    /// Internal construction hook for the parser (json.cpp only).
    struct Builder;

private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::shared_ptr<Array> array_;
    std::shared_ptr<Object> object_;
};

}  // namespace gtopk::util
