// Shared JSON-flattening helper for the snapshot-diff gates
// (tools/metrics_diff.cc, tools/timeseries_diff.cc).
//
// Minimal recursive-descent JSON reader, sufficient for the snapshots we
// produce ourselves: objects, arrays, numbers, strings, literals. Numeric
// leaves are kept, flattened to dotted paths (array elements index as
// .0, .1, ...), e.g. histograms.serve.request.seconds.p99 or
// legs.clean.summary.p99_us.max; string leaves are kept the same way
// only when the caller asks for them.
//
// Header-only and dependency-free on purpose: the diff tools are
// standalone gate binaries that must not pull in the simgraph libraries.
#ifndef SIMGRAPH_TOOLS_JSON_FLATTEN_H_
#define SIMGRAPH_TOOLS_JSON_FLATTEN_H_

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace jsonflat {

class FlattenParser {
 public:
  explicit FlattenParser(std::string text) : text_(std::move(text)) {}

  bool Parse(std::map<std::string, double>* out,
             std::map<std::string, std::string>* strings = nullptr) {
    out_ = out;
    strings_ = strings;
    SkipSpace();
    if (!ParseValue("")) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool ParseValue(const std::string& path) {
    SkipSpace();
    const char c = Peek();
    if (c == '{') return ParseObject(path);
    if (c == '[') return ParseArray(path);
    if (c == '"') {
      std::string text;
      if (!ParseString(&text)) return false;
      if (strings_ != nullptr) (*strings_)[path] = std::move(text);
      return true;
    }
    if (c == 't') return ConsumeWord("true");
    if (c == 'f') return ConsumeWord("false");
    if (c == 'n') return ConsumeWord("null");
    return ParseNumber(path);
  }

  bool ParseObject(const std::string& path) {
    if (!Consume('{')) return false;
    SkipSpace();
    if (Consume('}')) return true;
    while (true) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (!Consume(':')) return false;
      const std::string child = path.empty() ? key : path + "." + key;
      if (!ParseValue(child)) return false;
      SkipSpace();
      if (Consume(',')) continue;
      return Consume('}');
    }
  }

  bool ParseArray(const std::string& path) {
    if (!Consume('[')) return false;
    SkipSpace();
    if (Consume(']')) return true;
    int index = 0;
    while (true) {
      if (!ParseValue(path + "." + std::to_string(index++))) return false;
      SkipSpace();
      if (Consume(',')) continue;
      return Consume(']');
    }
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'u':
            // Snapshot producers never emit \u escapes; skip the four
            // digits and substitute '?' so parsing can continue.
            if (pos_ + 4 > text_.size()) return false;
            pos_ += 4;
            out->push_back('?');
            break;
          default: return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return false;
  }

  bool ParseNumber(const std::string& path) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            std::strchr("+-.eE", text_[pos_]) != nullptr)) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return false;
    (*out_)[path] = value;
    return true;
  }

  bool ConsumeWord(const char* word) {
    const size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  std::string text_;
  size_t pos_ = 0;
  std::map<std::string, double>* out_ = nullptr;
  std::map<std::string, std::string>* strings_ = nullptr;
};

inline bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

/// Reads `path` and flattens its numeric leaves into `out` (and, when
/// `strings` is set, its string leaves into `strings`). Returns false
/// (with a one-line diagnostic on stderr, prefixed with `tool`) when the
/// file is unreadable or not valid JSON.
inline bool LoadFlattened(const char* tool, const std::string& path,
                          std::map<std::string, double>* out,
                          std::map<std::string, std::string>* strings =
                              nullptr) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "%s: cannot read %s\n", tool, path.c_str());
    return false;
  }
  FlattenParser parser(std::move(text));
  if (!parser.Parse(out, strings)) {
    std::fprintf(stderr, "%s: %s is not valid JSON\n", tool, path.c_str());
    return false;
  }
  return true;
}

}  // namespace jsonflat

#endif  // SIMGRAPH_TOOLS_JSON_FLATTEN_H_
