// Bookkeeping shared by every workload: percentiles with the sample-count
// rule, the attempted/failed tally, the machine fingerprint, and the JSON
// lines a run prints.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile (q in [0, 1]) of unsorted samples; the
/// same definition as numpy's default. Empty input gives 0.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// A percentile q is reportable only when at least ten samples lie beyond
/// it, i.e. n * (1 - q) >= 10 (p90 needs 100 samples, p50 needs 20).
[[nodiscard]] bool percentile_supported(std::size_t n, double q);

/// Smallest sample count for which percentile_supported(n, q) holds.
[[nodiscard]] std::size_t min_samples_for(double q);

/// Attempted/failed operations of a run. An operation is one sweep or one
/// job; it fails on any failed check, exception, refused or failed job, or
/// socket error. Frame errors from the physics are not failures.
class Tally {
 public:
  /// Count one operation; a failure keeps its reason for the report.
  void record(bool ok, const std::string& what);
  /// Count a failed check that belongs to no single operation.
  void fail(const std::string& what) { record(false, what); }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] double failed_ratio() const;
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< first few reasons only
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/// Adds a metric unless `m` already has one of that name: the first
/// writer wins, so a workload's own measurement beats a filler probe's.
void put(Metrics& m, const std::string& name, double value,
         const std::string& unit);

/// {"<name>":{"value":v,"unit":u},...}
[[nodiscard]] std::string metrics_json(const Metrics& metrics);

/// The result line: {"correct","attempted","failed","metrics"}.
[[nodiscard]] std::string result_line(bool correct, const Tally& tally,
                                      const Metrics& metrics);

/// Cores, CPU model, compiler and build type, as a JSON object.
[[nodiscard]] std::string fingerprint_json();

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Seconds since an arbitrary fixed point (steady clock).
[[nodiscard]] double now_s();

}  // namespace perfbench
