#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// Named metrics with units, printed as one JSON object for run.py.

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "bench_math.h"

namespace perfbench {

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {std::isfinite(value) ? value : 0.0, unit};
  }
  /// `<name>.p50` and `<name>.p99` (the maximum when p99 is unsupported)
  /// plus `<name>.n`, the sample count.
  void SetSummary(const std::string& name, const Summary& s,
                  const std::string& unit) {
    Set(name + ".p50", s.p50, unit);
    Set(name + ".p99", s.p99, unit);
    Set(name + ".n", static_cast<double>(s.n), "count");
    if (s.n > 0 && !s.p99_supported) unsupported_ += name + ".p99 ";
  }
  void Note(const std::string& key, const std::string& text) {
    notes_[key] = text;
  }
  /// {"metrics": {...}, "notes": {...}, "unsupported_p99": "..."}
  void Print(FILE* out) const {
    std::fprintf(out, "{\"metrics\": {");
    bool first = true;
    for (const auto& [name, v] : metrics_) {
      std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   first ? "" : ", ", name.c_str(), v.first, v.second.c_str());
      first = false;
    }
    std::fprintf(out, "}, \"notes\": {");
    first = true;
    for (const auto& [key, text] : notes_) {
      std::fprintf(out, "%s\"%s\": \"%s\"", first ? "" : ", ", key.c_str(),
                   text.c_str());
      first = false;
    }
    std::fprintf(out, "}, \"unsupported_p99\": \"%s\"}\n", unsupported_.c_str());
    std::fflush(out);
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> notes_;
  std::string unsupported_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
