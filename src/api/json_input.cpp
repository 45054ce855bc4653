#include "api/json_input.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace btwc {

bool
JsonValue::is_integer_token() const
{
    if (kind != Kind::Number || raw.empty()) {
        return false;
    }
    for (const char c : raw) {
        if (c == '.' || c == 'e' || c == 'E') {
            return false;
        }
    }
    return true;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object) {
        return nullptr;
    }
    for (const auto &member : object) {
        if (member.first == key) {
            return &member.second;
        }
    }
    return nullptr;
}

const JsonValue *
JsonValue::find_path(const std::string &dotted_path) const
{
    const JsonValue *cur = this;
    size_t start = 0;
    while (start < dotted_path.size()) {
        size_t end = dotted_path.find('.', start);
        if (end == std::string::npos) {
            end = dotted_path.size();
        }
        cur = cur->find(dotted_path.substr(start, end - start));
        if (cur == nullptr) {
            return nullptr;
        }
        start = end + 1;
    }
    return cur;
}

const char *
JsonValue::kind_name(Kind kind)
{
    switch (kind) {
      case Kind::Null:
        return "null";
      case Kind::Bool:
        return "bool";
      case Kind::Number:
        return "number";
      case Kind::String:
        return "string";
      case Kind::Array:
        return "array";
      case Kind::Object:
        return "object";
    }
    return "?";
}

namespace {

/**
 * Deepest array/object nesting accepted. The parser recurses once per
 * level, so without a cap a long run of '[' would overflow the stack;
 * the deepest Report or benchmark artifact nests 5 levels.
 */
constexpr int kMaxJsonDepth = 64;

/** Value of one hex digit, or -1. */
int
hex_digit(char c)
{
    if (c >= '0' && c <= '9') {
        return c - '0';
    }
    if (c >= 'a' && c <= 'f') {
        return c - 'a' + 10;
    }
    if (c >= 'A' && c <= 'F') {
        return c - 'A' + 10;
    }
    return -1;
}

/** Recursive-descent parser over the whole document. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool parse(JsonValue *out)
    {
        skip_ws();
        if (!parse_value(out)) {
            return false;
        }
        skip_ws();
        if (pos_ != text_.size()) {
            return fail("trailing content after JSON document");
        }
        return true;
    }

  private:
    bool fail(const std::string &message)
    {
        if (error_ != nullptr) {
            size_t line = 1;
            for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
                line += text_[i] == '\n' ? 1 : 0;
            }
            std::ostringstream out;
            out << "JSON parse error at line " << line << ": " << message;
            *error_ = out.str();
        }
        return false;
    }

    void skip_ws()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool parse_value(JsonValue *out)
    {
        if (pos_ >= text_.size()) {
            return fail("unexpected end of input");
        }
        const char c = text_[pos_];
        if (c == '{' || c == '[') {
            if (depth_ == kMaxJsonDepth) {
                return fail("nesting deeper than " +
                            std::to_string(kMaxJsonDepth) + " levels");
            }
            ++depth_;
            const bool ok = c == '{' ? parse_object(out) : parse_array(out);
            --depth_;
            return ok;
        }
        if (c == '"') {
            out->kind = JsonValue::Kind::String;
            return parse_string(&out->s);
        }
        if (c == 't' || c == 'f') {
            return parse_keyword(c == 't' ? "true" : "false", out);
        }
        if (c == 'n') {
            return parse_keyword("null", out);
        }
        return parse_number(out);
    }

    bool parse_keyword(const std::string &word, JsonValue *out)
    {
        if (text_.compare(pos_, word.size(), word) != 0) {
            return fail("unrecognized literal");
        }
        pos_ += word.size();
        if (word == "null") {
            out->kind = JsonValue::Kind::Null;
        } else {
            out->kind = JsonValue::Kind::Bool;
            out->b = word == "true";
        }
        return true;
    }

    bool parse_number(JsonValue *out)
    {
        const size_t start = pos_;
        if (consume('-')) {
        }
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start) {
            return fail("expected a value");
        }
        out->kind = JsonValue::Kind::Number;
        out->raw = text_.substr(start, pos_ - start);
        char *end = nullptr;
        out->number = std::strtod(out->raw.c_str(), &end);
        if (end == nullptr || *end != '\0') {
            return fail("malformed number '" + out->raw + "'");
        }
        return true;
    }

    bool parse_string(std::string *out)
    {
        if (!consume('"')) {
            return fail("expected '\"'");
        }
        out->clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"') {
                return true;
            }
            if (c != '\\') {
                out->push_back(c);
                continue;
            }
            if (pos_ >= text_.size()) {
                break;
            }
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                out->push_back(esc);
                break;
              case 'b':
                out->push_back('\b');
                break;
              case 'f':
                out->push_back('\f');
                break;
              case 'n':
                out->push_back('\n');
                break;
              case 'r':
                out->push_back('\r');
                break;
              case 't':
                out->push_back('\t');
                break;
              case 'u': {
                // Report emitters never produce \u escapes; decode the
                // code point naively as UTF-8 for completeness. Exactly
                // four hex digits: no sign, space or 0x prefix.
                if (pos_ + 4 > text_.size()) {
                    return fail("truncated \\u escape");
                }
                long cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const int digit = hex_digit(text_[pos_++]);
                    if (digit < 0) {
                        return fail("malformed \\u escape; expected four "
                                    "hex digits");
                    }
                    cp = cp * 16 + digit;
                }
                if (cp < 0x80) {
                    out->push_back(static_cast<char>(cp));
                } else if (cp < 0x800) {
                    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
                    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
                } else {
                    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
                    out->push_back(
                        static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
                    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
                }
                break;
              }
              default:
                return fail("unknown escape sequence");
            }
        }
        return fail("unterminated string");
    }

    bool parse_object(JsonValue *out)
    {
        consume('{');
        out->kind = JsonValue::Kind::Object;
        skip_ws();
        if (consume('}')) {
            return true;
        }
        for (;;) {
            skip_ws();
            std::string key;
            if (!parse_string(&key)) {
                return false;
            }
            skip_ws();
            if (!consume(':')) {
                return fail("expected ':' after object key");
            }
            skip_ws();
            JsonValue value;
            if (!parse_value(&value)) {
                return false;
            }
            out->object.emplace_back(std::move(key), std::move(value));
            skip_ws();
            if (consume(',')) {
                continue;
            }
            if (consume('}')) {
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool parse_array(JsonValue *out)
    {
        consume('[');
        out->kind = JsonValue::Kind::Array;
        skip_ws();
        if (consume(']')) {
            return true;
        }
        for (;;) {
            skip_ws();
            JsonValue value;
            if (!parse_value(&value)) {
                return false;
            }
            out->array.push_back(std::move(value));
            skip_ws();
            if (consume(',')) {
                continue;
            }
            if (consume(']')) {
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    const std::string &text_;
    std::string *error_;
    size_t pos_ = 0;
    int depth_ = 0;  ///< arrays and objects open at pos_
};

} // namespace

bool
json_parse(const std::string &text, JsonValue *out, std::string *error)
{
    JsonValue value;
    JsonParser parser(text, error);
    if (!parser.parse(&value)) {
        return false;
    }
    *out = std::move(value);
    return true;
}

bool
json_parse_file(const std::string &path, JsonValue *out,
                std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error != nullptr) {
            *error = "cannot open '" + path + "'";
        }
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!in.good() && !in.eof()) {
        if (error != nullptr) {
            *error = "read error on '" + path + "'";
        }
        return false;
    }
    return json_parse(buffer.str(), out, error);
}

} // namespace btwc
