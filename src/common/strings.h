// Small string utilities shared across modules: prefix tests and
// identifier tokenization (camelCase / snake_case aware).
#ifndef FBDETECT_SRC_COMMON_STRINGS_H_
#define FBDETECT_SRC_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace fbdetect {

// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

// Tokenizes an identifier or free text into lower-case word tokens.
// Understands camelCase, snake_case, ::, ., /, and whitespace boundaries, so
// "TaoClient::fetchUserById" -> {"tao", "client", "fetch", "user", "by", "id"}.
std::vector<std::string> TokenizeIdentifier(std::string_view text);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_COMMON_STRINGS_H_
