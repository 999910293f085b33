#include "serve/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dpf::serve {
namespace {

/// Parser over a string_view with a depth cap (hostile clients must not be
/// able to stack-overflow the daemon with ~[[[[...).
constexpr int kMaxDepth = 64;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string err{};

  [[nodiscard]] bool at_end() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }

  void fail(const char* what) {
    if (err.empty()) {
      err = std::string(what) + " at byte " + std::to_string(pos);
    }
  }

  void skip_ws() {
    while (!at_end()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  bool consume(char c) {
    if (at_end() || text[pos] != c) return false;
    ++pos;
    return true;
  }

  bool literal(std::string_view word) {
    if (text.size() - pos < word.size() ||
        text.substr(pos, word.size()) != word) {
      return false;
    }
    pos += word.size();
    return true;
  }

  bool parse_hex4(std::uint32_t* out) {
    if (text.size() - pos < 4) return false;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else return false;
    }
    pos += 4;
    *out = v;
    return true;
  }

  static void append_utf8(std::string& s, std::uint32_t cp) {
    if (cp < 0x80) {
      s.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      s.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      s.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      s.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) {
      fail("expected string");
      return false;
    }
    out->clear();
    while (!at_end()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (at_end()) break;
      const char e = text[pos++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!parse_hex4(&cp)) {
            fail("bad \\u escape");
            return false;
          }
          // Fold a UTF-16 surrogate pair into one code point.
          if (cp >= 0xD800 && cp <= 0xDBFF && text.size() - pos >= 6 &&
              text[pos] == '\\' && text[pos + 1] == 'u') {
            pos += 2;
            std::uint32_t lo = 0;
            if (!parse_hex4(&lo) || lo < 0xDC00 || lo > 0xDFFF) {
              fail("bad surrogate pair");
              return false;
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          }
          append_utf8(*out, cp);
          break;
        }
        default:
          fail("bad escape");
          return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  bool parse_number(Json* out) {
    const std::size_t start = pos;
    if (!at_end() && peek() == '-') ++pos;
    while (!at_end() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                         peek() == '.' || peek() == 'e' || peek() == 'E' ||
                         peek() == '+' || peek() == '-')) {
      ++pos;
    }
    if (pos == start) {
      fail("expected number");
      return false;
    }
    const std::string tok(text.substr(start, pos - start));
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) {
      fail("malformed number");
      return false;
    }
    *out = Json(v);
    return true;
  }

  bool parse_value(Json* out, int depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return false;
    }
    skip_ws();
    if (at_end()) {
      fail("unexpected end of input");
      return false;
    }
    const char c = peek();
    if (c == 'n') {
      if (!literal("null")) { fail("bad literal"); return false; }
      *out = Json();
      return true;
    }
    if (c == 't') {
      if (!literal("true")) { fail("bad literal"); return false; }
      *out = Json(true);
      return true;
    }
    if (c == 'f') {
      if (!literal("false")) { fail("bad literal"); return false; }
      *out = Json(false);
      return true;
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(&s)) return false;
      *out = Json(std::move(s));
      return true;
    }
    if (c == '[') {
      ++pos;
      Json::Array arr;
      skip_ws();
      if (consume(']')) {
        *out = Json(std::move(arr));
        return true;
      }
      for (;;) {
        Json v;
        if (!parse_value(&v, depth + 1)) return false;
        arr.push_back(std::move(v));
        skip_ws();
        if (consume(']')) break;
        if (!consume(',')) { fail("expected ',' or ']'"); return false; }
      }
      *out = Json(std::move(arr));
      return true;
    }
    if (c == '{') {
      ++pos;
      Json::Object obj;
      skip_ws();
      if (consume('}')) {
        *out = Json(std::move(obj));
        return true;
      }
      for (;;) {
        skip_ws();
        std::string key;
        if (!parse_string(&key)) return false;
        skip_ws();
        if (!consume(':')) { fail("expected ':'"); return false; }
        Json v;
        if (!parse_value(&v, depth + 1)) return false;
        obj[std::move(key)] = std::move(v);
        skip_ws();
        if (consume('}')) break;
        if (!consume(',')) { fail("expected ',' or '}'"); return false; }
      }
      *out = Json(std::move(obj));
      return true;
    }
    return parse_number(out);
  }
};

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::Null:
      out += "null";
      return;
    case Type::Bool:
      out += bool_ ? "true" : "false";
      return;
    case Type::Number: {
      char buf[40];
      // Integers within the double-exact range print without a decimal
      // point so params and counters stay readable; everything else uses
      // %.17g, the shortest form that reconstructs the exact double.
      const auto ll = static_cast<long long>(num_);
      if (static_cast<double>(ll) == num_ && num_ >= -9.0e15 &&
          num_ <= 9.0e15) {
        std::snprintf(buf, sizeof buf, "%lld", ll);
      } else {
        std::snprintf(buf, sizeof buf, "%.17g", num_);
      }
      out += buf;
      return;
    }
    case Type::String:
      dump_string(str_, out);
      return;
    case Type::Array: {
      out.push_back('[');
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i != 0) out.push_back(',');
        arr_[i].dump_to(out);
      }
      out.push_back(']');
      return;
    }
    case Type::Object: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out.push_back(',');
        first = false;
        dump_string(k, out);
        out.push_back(':');
        v.dump_to(out);
      }
      out.push_back('}');
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

Json Json::parse(std::string_view text, std::string* err) {
  Parser p{text};
  Json v;
  if (!p.parse_value(&v, 0)) {
    if (err != nullptr) *err = p.err;
    return Json();
  }
  p.skip_ws();
  if (!p.at_end()) {
    if (err != nullptr) {
      *err = "trailing bytes at byte " + std::to_string(p.pos);
    }
    return Json();
  }
  if (err != nullptr) err->clear();
  return v;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

bool parse_hex64(std::string_view s, std::uint64_t* out) {
  if (s.size() >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    s.remove_prefix(2);
  }
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint64_t>(c - 'A' + 10);
    else return false;
  }
  *out = v;
  return true;
}

std::string double_to_hex(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return hex64(bits);
}

bool double_from_hex(std::string_view s, double* out) {
  std::uint64_t bits = 0;
  if (!parse_hex64(s, &bits)) return false;
  std::memcpy(out, &bits, sizeof bits);
  return true;
}

}  // namespace dpf::serve
