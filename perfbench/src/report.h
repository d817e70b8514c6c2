#ifndef QENS_PERFBENCH_REPORT_H_
#define QENS_PERFBENCH_REPORT_H_

/// \file report.h
/// The raw record one workload process prints: flat named scalars, named
/// sample arrays and named output checks, as one JSON object on one line.
/// All summary math (percentiles, shares, fractions) happens in
/// perfbench/summary.py, which reads this record.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace qens::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class Report {
 public:
  using Scalars = std::map<std::string, double>;

  void Set(const std::string& key, double value) { scalars_[key] = value; }
  const Scalars& scalars() const { return scalars_; }
  void Add(const std::string& key, double value) { scalars_[key] += value; }
  std::vector<double>& Samples(const std::string& key) { return arrays_[key]; }

  /// Record an output check; a failed check fails the whole run.
  bool Check(const std::string& name, bool ok, const std::string& detail = "") {
    if (!ok) failures_.push_back(name + (detail.empty() ? "" : ": " + detail));
    return ok;
  }
  bool all_ok() const { return failures_.empty(); }

  void Print(std::FILE* out) const {
    std::fprintf(out, "{\"failures\": [");
    for (size_t i = 0; i < failures_.size(); ++i) {
      std::fprintf(out, "%s", i ? ", " : "");
      PrintString(out, failures_[i]);
    }
    std::fprintf(out, "], \"scalars\": {");
    const char* sep = "";
    for (const auto& [key, value] : scalars_) {
      std::fprintf(out, "%s\"%s\": ", sep, key.c_str());
      PrintNumber(out, value);
      sep = ", ";
    }
    std::fprintf(out, "}, \"samples\": {");
    sep = "";
    for (const auto& [key, values] : arrays_) {
      std::fprintf(out, "%s\"%s\": [", sep, key.c_str());
      for (size_t i = 0; i < values.size(); ++i) {
        if (i) std::fprintf(out, ",");
        PrintNumber(out, values[i]);
      }
      std::fprintf(out, "]");
      sep = ", ";
    }
    std::fprintf(out, "}}\n");
  }

 private:
  static void PrintNumber(std::FILE* out, double v) {
    if (std::isfinite(v)) {
      std::fprintf(out, "%.17g", v);
    } else {
      std::fprintf(out, "null");
    }
  }
  static void PrintString(std::FILE* out, const std::string& s) {
    std::fputc('"', out);
    for (char c : s) {
      if (c == '"' || c == '\\') std::fputc('\\', out);
      std::fputc(c == '\n' ? ' ' : c, out);
    }
    std::fputc('"', out);
  }

  Scalars scalars_;
  std::map<std::string, std::vector<double>> arrays_;
  std::vector<std::string> failures_;
};

}  // namespace qens::perfbench

#endif  // QENS_PERFBENCH_REPORT_H_
