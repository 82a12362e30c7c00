// strings.hpp — string utilities used across HTML parsing, prompt handling
// and metric tokenization.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sww::util {

/// Split on a single character; empty fields are kept.
std::vector<std::string> Split(std::string_view text, char sep);

/// Split on any whitespace run; empty fields are dropped.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Trim ASCII whitespace from both ends.
std::string_view Trim(std::string_view text);

/// ASCII lowercase copy (locale-independent).
std::string ToLower(std::string_view text);

/// Append `text` to `out` as a quoted RFC 8259 string: quote, backslash
/// and the \b \f \n \r \t controls in short form, other control bytes
/// as \u00XX, everything else verbatim.  The one JSON string escaper:
/// json::EscapeString and the logger's JSON lines both use it.
void AppendJsonString(std::string& out, std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Join with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Replace all occurrences of `from` with `to`.
std::string ReplaceAll(std::string_view text, std::string_view from,
                       std::string_view to);

/// Count whitespace-separated words — the unit §6.3.2's overshoot metric uses.
std::size_t CountWords(std::string_view text);

/// Lowercased alphanumeric tokens (punctuation stripped) — the tokenizer used
/// by the CLIP/SBERT metric simulators and prompt feature extraction.
std::vector<std::string> Tokenize(std::string_view text);

/// The whole of `text` as a decimal int in [min, max]; nullopt when it is
/// empty, holds anything but digits after an optional leading '-', or lies
/// outside the range.  The command-line tools parse counts with it.
std::optional<int> ParseIntInRange(std::string_view text, int min, int max);

/// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace sww::util
