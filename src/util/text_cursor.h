#ifndef SIMGRAPH_UTIL_TEXT_CURSOR_H_
#define SIMGRAPH_UTIL_TEXT_CURSOR_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "util/status.h"

namespace simgraph {

/// Reads the whole file at `path` into one string with a single read.
/// A missing, unreadable or non-regular file is an IoError.
StatusOr<std::string> ReadTextFile(const std::string& path);

/// A forward cursor over whitespace-separated numeric fields, the format
/// of every text file the loaders read (graph.txt, tweets.txt,
/// retweets.txt). Fields are parsed in place with std::from_chars, so a
/// multi-megabyte file parses without a stream or a per-field copy.
///
/// A field is a maximal run of non-whitespace bytes and must parse in full:
/// "12x", "+5", "0x1f", an integer outside T's range and a non-finite
/// floating-point value ("nan", "inf", "1e999") all fail. Whitespace is
/// the C locale's set (space, \t, \n, \v, \f, \r), so CRLF files parse.
/// The cursor does not own `text`, which must outlive it.
class TextCursor {
 public:
  explicit TextCursor(std::string_view text) : text_(text) {}

  /// Parses the next field into `*value`. Returns false, leaving the
  /// cursor where it was, at end of text or when the field is malformed.
  template <typename T>
  bool Next(T* value) {
    static_assert(std::is_arithmetic_v<T>);
    size_t pos = pos_;
    while (pos < text_.size() && IsSpace(text_[pos])) ++pos;
    const char* const begin = text_.data() + pos;
    const char* const end = text_.data() + text_.size();
    T parsed{};
    const auto [stop, ec] = std::from_chars(begin, end, parsed);
    if (ec != std::errc() || (stop != end && !IsSpace(*stop))) return false;
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(parsed)) return false;
    }
    *value = parsed;
    pos_ = static_cast<size_t>(stop - text_.data());
    return true;
  }

  /// Upper bound on how many records of `fields_per_record` fields the
  /// text can hold: every field takes at least one character and one
  /// separator, except that the last field may lack its separator.
  /// Loaders check header counts against it before allocating, so a
  /// forged count fails cleanly.
  int64_t MaxRecords(int fields_per_record) const {
    return (static_cast<int64_t>(text_.size()) + 1) / (2 * fields_per_record);
  }

 private:
  static bool IsSpace(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace simgraph

#endif  // SIMGRAPH_UTIL_TEXT_CURSOR_H_
