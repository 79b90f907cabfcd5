// What the benchmark reads from the service's JSON: GET /stats, GET
// /telemetry, ingest acks and served NDJSON report lines. The service
// renders each of them with unique member names, so a member is found by
// name without building a document.
#ifndef PERFBENCH_HARNESS_JSON_H_
#define PERFBENCH_HARNESS_JSON_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace perfbench {

// True when `text` is exactly one JSON object (surrounding whitespace
// allowed): a syntax check, strict enough to reject a truncated or garbled
// line.
bool IsJsonObject(std::string_view text);

// Offset of the value of the first member named `key` at or after `from`;
// npos when there is none.
size_t FindMember(std::string_view text, std::string_view key, size_t from = 0);

// The number / string that starts at offset `at` (npos allowed); nullopt
// when there is none. Strings keep their escapes.
std::optional<double> NumberAt(std::string_view text, size_t at);
std::optional<std::string> StringAt(std::string_view text, size_t at);

// The value of the first member named `key` at or after `from`.
inline std::optional<double> JsonNumber(std::string_view text, std::string_view key,
                                        size_t from = 0) {
  return NumberAt(text, FindMember(text, key, from));
}
inline std::optional<std::string> JsonString(std::string_view text, std::string_view key,
                                             size_t from = 0) {
  return StringAt(text, FindMember(text, key, from));
}

// Escapes `text` for use inside a JSON string literal.
std::string JsonEscape(std::string_view text);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_JSON_H_
