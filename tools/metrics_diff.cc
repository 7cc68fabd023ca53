// metrics_diff: regression gate over two metrics JSON snapshots.
//
//   metrics_diff BASELINE.json CANDIDATE.json [--threshold=0.10]
//                [--threshold=METRIC_SUBSTR:0.05 ...]
//                [--slack=METRIC_SUBSTR:ABS ...]
//                [--allow-new-keys] [--allow-missing-keys]
//
// Both files are registry snapshots (metrics::Registry::WriteJson) or
// bench summaries (bench_serving_load's BENCH_serving.json): arbitrary
// JSON objects whose numeric leaves are flattened to dotted paths, e.g.
// histograms.serve.request.seconds.p99. Each numeric leaf present in
// both snapshots is compared by how many times worse the candidate is
// in the leaf's *bad* direction: cand/base - 1 for lower-is-better,
// base/cand - 1 for higher-is-better. Past the metric's threshold it is
// a regression, so --threshold=2.0 fails a latency that triples and a
// throughput that falls to a third alike.
//
// --slack=METRIC_SUBSTR:ABS adds an absolute allowance in the metric's
// own unit: a leaf regresses only when it is past its ratio threshold
// AND it moved more than ABS in the bad direction. That is for tails
// whose committed value sits near zero, where any ratio fails an
// ordinary run: with --slack=lag_ms.p99:5 a lag tail of 0.07 ms may
// grow to 5.07 ms before the ratio counts. The last matching slack
// wins; metrics no slack matches get none.
//
// The key sets must match: every baseline key missing from the
// candidate and every candidate key absent from the baseline is
// reported (all of them, in one pass — not just the first) and fails
// the gate, because a silently vanished metric is how a regression gate
// rots. `--allow-missing-keys` waives baseline-only keys (e.g. a
// candidate that swept fewer shard counts than the committed baseline);
// `--allow-new-keys` waives candidate-only keys (a candidate from a
// newer build that grew metrics the baseline predates).
//
// A leaf whose enclosing object carries "better": "lower" or "higher"
// (as BENCH_perfbench.json's {"value": ..., "better": ...} metrics do)
// takes that direction, as declared in the baseline. Otherwise the
// direction is inferred from the metric name:
//   * lower is better:  latency/duration quantiles and sums
//     (.p50/.p95/.p99/.max/.mean, *seconds*, *latency*, *_us), and
//     sizes in megabytes (*_mb)
//   * higher is better: *per_s, *throughput*, *hit_rate*, *qps*
//   * everything else is neutral — reported informationally, never a
//     regression (counters like requests served depend on run length).
//
// Exit codes: 0 no regression, 1 at least one regression or key-set
// mismatch, 2 usage or parse error. scripts/verify.sh runs the identity
// diff as a self-check and CI diffs fresh bench snapshots against the
// committed baselines.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "json_flatten.h"

namespace {

enum class Direction { kLowerIsBetter, kHigherIsBetter, kNeutral };

bool ContainsAny(const std::string& name,
                 const std::vector<const char*>& needles) {
  for (const char* needle : needles) {
    if (name.find(needle) != std::string::npos) return true;
  }
  return false;
}

bool EndsWith(const std::string& name, const char* suffix) {
  const size_t len = std::strlen(suffix);
  return name.size() >= len &&
         name.compare(name.size() - len, len, suffix) == 0;
}

Direction DirectionOf(const std::string& name,
                      const std::map<std::string, std::string>& strings) {
  const size_t dot = name.rfind('.');
  const auto declared = strings.find(
      dot == std::string::npos ? "better" : name.substr(0, dot) + ".better");
  if (declared != strings.end()) {
    if (declared->second == "lower") return Direction::kLowerIsBetter;
    if (declared->second == "higher") return Direction::kHigherIsBetter;
  }
  if (ContainsAny(name, {"per_s", "throughput", "hit_rate", "qps"})) {
    return Direction::kHigherIsBetter;
  }
  const bool latency_like =
      ContainsAny(name, {"seconds", "latency"}) || EndsWith(name, "_us");
  const bool quantile_like =
      EndsWith(name, ".p50") || EndsWith(name, ".p95") ||
      EndsWith(name, ".p99") || EndsWith(name, ".max") ||
      EndsWith(name, ".mean") || EndsWith(name, ".sum") ||
      EndsWith(name, "_p50") || EndsWith(name, "_p95") ||
      EndsWith(name, "_p99");
  if (latency_like && quantile_like) return Direction::kLowerIsBetter;
  if (EndsWith(name, "_mb")) return Direction::kLowerIsBetter;
  return Direction::kNeutral;
}

struct Rule {
  std::string substring;  // empty matches every metric
  double value;
};

double RuleFor(const std::string& name, const std::vector<Rule>& rules,
               double fallback) {
  // Last matching rule wins, so later flags override earlier ones.
  double value = fallback;
  for (const Rule& rule : rules) {
    if (rule.substring.empty() ||
        name.find(rule.substring) != std::string::npos) {
      value = rule.value;
    }
  }
  return value;
}

/// Parses "SUBSTR:VALUE" (VALUE >= 0) into `rule`.
bool ParseRule(const std::string& spec, Rule* rule) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos) return false;
  rule->substring = spec.substr(0, colon);
  const std::string value = spec.substr(colon + 1);
  char* end = nullptr;
  rule->value = std::strtod(value.c_str(), &end);
  return !value.empty() && end == value.c_str() + value.size() &&
         rule->value >= 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: metrics_diff BASELINE.json CANDIDATE.json\n"
      "       [--threshold=REL] [--threshold=METRIC_SUBSTR:REL ...]\n"
      "       [--slack=METRIC_SUBSTR:ABS ...]\n"
      "       [--allow-new-keys] [--allow-missing-keys]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::vector<Rule> rules;
  std::vector<Rule> slacks;
  double default_threshold = 0.10;
  bool allow_new_keys = false;
  bool allow_missing_keys = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threshold=", 0) == 0) {
      const std::string spec = arg.substr(std::strlen("--threshold="));
      if (spec.find(':') == std::string::npos) {
        char* end = nullptr;
        default_threshold = std::strtod(spec.c_str(), &end);
        if (end != spec.c_str() + spec.size() || default_threshold < 0) {
          return Usage();
        }
      } else {
        Rule rule;
        if (!ParseRule(spec, &rule)) return Usage();
        rules.push_back(std::move(rule));
      }
    } else if (arg.rfind("--slack=", 0) == 0) {
      Rule rule;
      if (!ParseRule(arg.substr(std::strlen("--slack=")), &rule)) {
        return Usage();
      }
      slacks.push_back(std::move(rule));
    } else if (arg == "--allow-new-keys") {
      allow_new_keys = true;
    } else if (arg == "--allow-missing-keys") {
      allow_missing_keys = true;
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) return Usage();

  std::map<std::string, double> baseline;
  std::map<std::string, double> candidate;
  std::map<std::string, std::string> baseline_strings;
  if (!jsonflat::LoadFlattened("metrics_diff", paths[0], &baseline,
                               &baseline_strings) ||
      !jsonflat::LoadFlattened("metrics_diff", paths[1], &candidate)) {
    return 2;
  }

  // One pass over each snapshot reports every key-set difference at
  // once, so a rename that drops ten metrics shows all ten.
  int missing = 0;
  int extra = 0;
  for (const auto& [name, value] : baseline) {
    (void)value;
    if (candidate.find(name) == candidate.end()) {
      ++missing;
      std::fprintf(stderr, "%s %s: in baseline only\n",
                   allow_missing_keys ? "missing (allowed)" : "MISSING",
                   name.c_str());
    }
  }
  for (const auto& [name, value] : candidate) {
    (void)value;
    if (baseline.find(name) == baseline.end()) {
      ++extra;
      std::fprintf(stderr, "%s %s: in candidate only\n",
                   allow_new_keys ? "new (allowed)" : "NEW",
                   name.c_str());
    }
  }

  int regressions = 0;
  int compared = 0;
  for (const auto& [name, base] : baseline) {
    const auto it = candidate.find(name);
    if (it == candidate.end()) continue;
    const double cand = it->second;
    ++compared;
    const Direction direction = DirectionOf(name, baseline_strings);
    if (direction == Direction::kNeutral) continue;
    if (base == 0.0) {
      // No meaningful relative change from zero; a candidate that is
      // also ~0 is fine, anything else is only reported.
      continue;
    }
    const double rel = (cand - base) / base;
    // How much worse the candidate is, as a ratio in the bad direction:
    // cand/base - 1 for lower-is-better, base/cand - 1 for
    // higher-is-better. A relative drop never passes -100%, so judging a
    // throughput leaf by `rel` would let no threshold >= 1 catch it.
    const double worse =
        direction == Direction::kLowerIsBetter
            ? rel
            : (cand > 0.0 ? base / cand - 1.0
                          : std::numeric_limits<double>::infinity());
    const double threshold = RuleFor(name, rules, default_threshold);
    // How far the candidate moved in the bad direction, in the metric's
    // own unit; a metric no --slack matches has no allowance at all.
    const double moved =
        direction == Direction::kLowerIsBetter ? cand - base : base - cand;
    const double slack =
        RuleFor(name, slacks, -std::numeric_limits<double>::infinity());
    if (worse > threshold && moved > slack) {
      ++regressions;
      std::fprintf(stderr,
                   "REGRESSION %s: %.6g -> %.6g (%+.1f%%, %.3gx worse, "
                   "threshold %.3gx, %s is better)\n",
                   name.c_str(), base, cand, rel * 100.0, 1.0 + worse,
                   1.0 + threshold,
                   direction == Direction::kLowerIsBetter ? "lower"
                                                          : "higher");
    }
  }
  const int key_failures = (allow_missing_keys ? 0 : missing) +
                           (allow_new_keys ? 0 : extra);
  std::fprintf(stderr,
               "metrics_diff: %d metric(s) compared, %d regression(s), "
               "%d missing, %d new\n",
               compared, regressions, missing, extra);
  if (compared == 0) {
    std::fprintf(stderr,
                 "metrics_diff: snapshots share no numeric metrics\n");
    return 2;
  }
  return regressions > 0 || key_failures > 0 ? 1 : 0;
}
