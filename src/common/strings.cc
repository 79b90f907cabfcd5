#include "src/common/strings.h"

#include <cctype>

namespace fbdetect {

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::vector<std::string> TokenizeIdentifier(std::string_view text) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&tokens, &current]() {
    if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  };
  for (size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (std::isalpha(c)) {
      // A transition from lower to upper case starts a new camelCase token.
      if (std::isupper(c) && !current.empty() &&
          std::islower(static_cast<unsigned char>(current.back()))) {
        flush();
      }
      current.push_back(static_cast<char>(std::tolower(c)));
    } else if (std::isdigit(c)) {
      current.push_back(static_cast<char>(c));
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

}  // namespace fbdetect
