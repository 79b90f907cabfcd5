#include "harness/json.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace perfbench {
namespace {

bool IsSpace(char c) { return c == ' ' || c == '\n' || c == '\r' || c == '\t'; }

// Recursive-descent syntax check; keeps nothing it reads.
class Validator {
 public:
  explicit Validator(std::string_view text) : text_(text) {}

  bool Object() {
    Space();
    if (!Peek('{') || !Value(0)) {
      return false;
    }
    Space();
    return pos_ == text_.size();
  }

 private:
  void Space() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) {
      ++pos_;
    }
  }
  bool Peek(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
  bool Take(char c) {
    Space();
    if (!Peek(c)) {
      return false;
    }
    ++pos_;
    return true;
  }
  bool Word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }
  bool String() {
    if (!Take('"')) {
      return false;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return false;
        }
        const char e = text_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i, ++pos_) {
            if (pos_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) == std::string_view::npos) {
          return false;
        }
      }
    }
    return false;
  }
  bool Number() {
    const char* begin = text_.data() + pos_;
    const std::string token(begin, std::min<size_t>(text_.size() - pos_, 64));
    char* end = nullptr;
    std::strtod(token.c_str(), &end);
    if (end == token.c_str() || !(std::isdigit(static_cast<unsigned char>(token[0])) ||
                                  token[0] == '-')) {
      return false;
    }
    pos_ += static_cast<size_t>(end - token.c_str());
    return true;
  }
  bool Value(int depth) {
    Space();
    if (depth > 64 || pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      ++pos_;
      const char close = c == '{' ? '}' : ']';
      if (Take(close)) {
        return true;
      }
      do {
        if (c == '{' && (!String() || !Take(':'))) {
          return false;
        }
        if (!Value(depth + 1)) {
          return false;
        }
      } while (Take(','));
      return Take(close);
    }
    if (c == '"') {
      return String();
    }
    if (c == 't' || c == 'f' || c == 'n') {
      return Word(c == 't' ? "true" : c == 'f' ? "false" : "null");
    }
    return Number();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

bool IsJsonObject(std::string_view text) { return Validator(text).Object(); }

size_t FindMember(std::string_view text, std::string_view key, size_t from) {
  const std::string quoted = "\"" + std::string(key) + "\"";
  for (size_t at = text.find(quoted, from); at != std::string_view::npos;
       at = text.find(quoted, at + 1)) {
    size_t p = at + quoted.size();
    while (p < text.size() && IsSpace(text[p])) {
      ++p;
    }
    if (p < text.size() && text[p] == ':') {
      ++p;
      while (p < text.size() && IsSpace(text[p])) {
        ++p;
      }
      return p;
    }
  }
  return std::string_view::npos;
}

std::optional<double> NumberAt(std::string_view text, size_t at) {
  if (at >= text.size()) {
    return std::nullopt;
  }
  const std::string token(text.substr(at, 64));
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str()) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::string> StringAt(std::string_view text, size_t at) {
  if (at >= text.size() || text[at] != '"') {
    return std::nullopt;
  }
  std::string out;
  for (size_t p = at + 1; p < text.size(); ++p) {
    if (text[p] == '"') {
      return out;
    }
    if (text[p] == '\\' && p + 1 < text.size()) {
      out.push_back(text[p++]);
    }
    out.push_back(text[p]);
  }
  return std::nullopt;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace perfbench
