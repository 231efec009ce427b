#include "support/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "support/string_utils.hpp"

namespace hipacc::support {

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  for (Member& member : members_)
    if (member.first == key) return member.second;
  members_.emplace_back(key, Json());
  return members_.back().second;
}

const Json* Json::Find(const std::string& key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const Member& member : members_)
    if (member.first == key) return &member.second;
  return nullptr;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return number_ == other.number_;
    case Type::kString: return string_ == other.string_;
    case Type::kArray: return elements_ == other.elements_;
    case Type::kObject: return members_ == other.members_;
  }
  return false;
}

std::string Json::Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += StrFormat("\\u%04x", c);
        else
          out += c;
    }
  }
  out += '"';
  return out;
}

namespace {

std::string FormatNumber(double value, bool integral) {
  if (integral) return StrFormat("%lld", static_cast<long long>(value));
  if (!std::isfinite(value)) return "null";  // JSON has no Inf/NaN
  // Whole numbers print without an exponent (10, not 1e+01) below 1e21,
  // where JavaScript's Number formatting switches to exponents too.
  if (value == std::trunc(value) && std::fabs(value) < 1e21)
    return StrFormat("%.0f", value);
  std::string s = StrFormat("%.17g", value);
  // Prefer the shortest representation that round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    std::string candidate = StrFormat("%.*g", precision, value);
    if (std::strtod(candidate.c_str(), nullptr) == value) {
      s = candidate;
      break;
    }
  }
  return s;
}

}  // namespace

void Json::DumpTo(std::string* out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const std::string pad =
      pretty ? "\n" + std::string(static_cast<size_t>(indent) * (depth + 1), ' ')
             : "";
  const std::string close_pad =
      pretty ? "\n" + std::string(static_cast<size_t>(indent) * depth, ' ') : "";
  const char* colon = pretty ? ": " : ":";
  switch (type_) {
    case Type::kNull: *out += "null"; break;
    case Type::kBool: *out += bool_ ? "true" : "false"; break;
    case Type::kNumber: *out += FormatNumber(number_, integral_); break;
    case Type::kString: *out += Quote(string_); break;
    case Type::kArray: {
      if (elements_.empty()) {
        *out += "[]";
        break;
      }
      *out += '[';
      for (size_t i = 0; i < elements_.size(); ++i) {
        if (i) *out += pretty ? "," : ",";
        *out += pad;
        elements_[i].DumpTo(out, indent, depth + 1);
      }
      *out += close_pad;
      *out += ']';
      break;
    }
    case Type::kObject: {
      if (members_.empty()) {
        *out += "{}";
        break;
      }
      *out += '{';
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i) *out += ",";
        *out += pad;
        *out += Quote(members_[i].first);
        *out += colon;
        members_[i].second.DumpTo(out, indent, depth + 1);
      }
      *out += close_pad;
      *out += '}';
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent JSON parser over the raw text. Position-tracked so
/// errors name the offending offset.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Json> Run() {
    Json value;
    HIPACC_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size())
      return Error("trailing characters after top-level value");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::Parse(
        StrFormat("JSON parse error at offset %zu: %s", pos_, what.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ConsumeLiteral(const char* literal) {
    for (const char* p = literal; *p; ++p)
      if (pos_ >= text_.size() || text_[pos_++] != *p)
        return Error(StrFormat("expected '%s'", literal));
    return Status::Ok();
  }

  Status ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case 'n': HIPACC_RETURN_IF_ERROR(ConsumeLiteral("null")); *out = Json(); return Status::Ok();
      case 't': HIPACC_RETURN_IF_ERROR(ConsumeLiteral("true")); *out = Json(true); return Status::Ok();
      case 'f': HIPACC_RETURN_IF_ERROR(ConsumeLiteral("false")); *out = Json(false); return Status::Ok();
      case '"': return ParseString(out);
      case '[': return ParseArray(out, depth);
      case '{': return ParseObject(out, depth);
      default: return ParseNumber(out);
    }
  }

  Status ParseString(Json* out) {
    std::string value;
    HIPACC_RETURN_IF_ERROR(ParseRawString(&value));
    *out = Json(std::move(value));
    return Status::Ok();
  }

  Status ParseRawString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (static_cast<unsigned char>(c) < 0x20)
        return Error("unescaped control character in string");
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size()) return Error("truncated \\u escape");
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("invalid hex digit in \\u escape");
          }
          // Encode the code point as UTF-8 (surrogate pairs unsupported —
          // the writer never emits them; reject rather than corrupt).
          if (code >= 0xD800 && code <= 0xDFFF)
            return Error("surrogate \\u escapes are not supported");
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return Error("invalid escape sequence");
      }
    }
    return Error("unterminated string");
  }

  static bool MatchesNumberGrammar(const std::string& token) {
    size_t i = 0;
    const auto digits = [&](size_t* count) {
      const size_t first = i;
      while (i < token.size() &&
             std::isdigit(static_cast<unsigned char>(token[i])))
        ++i;
      *count = i - first;
    };
    if (i < token.size() && token[i] == '-') ++i;
    size_t int_digits = 0;
    const size_t int_start = i;
    digits(&int_digits);
    if (int_digits == 0 || (int_digits > 1 && token[int_start] == '0'))
      return false;
    if (i < token.size() && token[i] == '.') {
      ++i;
      size_t frac_digits = 0;
      digits(&frac_digits);
      if (frac_digits == 0) return false;
    }
    if (i < token.size() && (token[i] == 'e' || token[i] == 'E')) {
      ++i;
      if (i < token.size() && (token[i] == '+' || token[i] == '-')) ++i;
      size_t exp_digits = 0;
      digits(&exp_digits);
      if (exp_digits == 0) return false;
    }
    return i == token.size();
  }

  Status ParseNumber(Json* out) {
    const size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return Error("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    // Enforce the JSON number grammar -?(0|[1-9][0-9]*)(.[0-9]+)?(e...)?;
    // strtod alone is laxer (it accepts "+1", "1.", ".5", "01", hex floats).
    if (!MatchesNumberGrammar(token))
      return Error("malformed number '" + token + "'");
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size())
      return Error("malformed number '" + token + "'");
    const bool integral = token.find_first_of(".eE") == std::string::npos &&
                          value >= -9.007199254740992e15 &&
                          value <= 9.007199254740992e15;
    *out = integral ? Json(static_cast<long long>(value)) : Json(value);
    return Status::Ok();
  }

  Status ParseArray(Json* out, int depth) {
    ++pos_;  // '['
    *out = Json::Array();
    SkipWhitespace();
    if (Consume(']')) return Status::Ok();
    while (true) {
      Json element;
      HIPACC_RETURN_IF_ERROR(ParseValue(&element, depth + 1));
      out->push_back(std::move(element));
      SkipWhitespace();
      if (Consume(']')) return Status::Ok();
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Status ParseObject(Json* out, int depth) {
    ++pos_;  // '{'
    *out = Json::Object();
    SkipWhitespace();
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipWhitespace();
      std::string key;
      HIPACC_RETURN_IF_ERROR(ParseRawString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      Json value;
      HIPACC_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      (*out)[key] = std::move(value);
      SkipWhitespace();
      if (Consume('}')) return Status::Ok();
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Json> Json::Parse(const std::string& text) {
  return Parser(text).Run();
}

Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Invalid("cannot open for writing: " + path);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.flush();
  if (!out) return Status::Internal("short write to " + path);
  return Status::Ok();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Invalid("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace hipacc::support
