// The machine-speed yardstick. On a shared host the speed of the same
// code drifts by tens of percent within minutes (a vCPU whose core a busy
// neighbour shares runs up to ~2x slower), which would swamp any bound a
// benchmark can hold. So a run also times a fixed compute kernel at
// intervals, on as many threads as the workload uses, and reports its
// timings scaled to a nominal machine on which one kernel run takes
// kNominalYardstickMs: value * kNominalYardstickMs / yardstick median.
// The kernel lives in the benchmark, not in the simulator, so no change to
// the simulator can move it. Raw timings stay in the report line.
#pragma once

#include <cstddef>
#include <vector>

#include "report.hpp"

namespace perfbench {

/// About what one kernel run takes on the 4-core Xeon VM the benchmark
/// was tuned on.
inline constexpr double kNominalYardstickMs = 2.0;

/// One run of the kernel on `threads` concurrent threads, in ms.
[[nodiscard]] double yardstick_ms(std::size_t threads);

/// Periodic yardstick samples over a run.
class Yardstick {
 public:
  /// Samples every `interval_s` seconds, each on `threads` threads.
  Yardstick(std::size_t threads, double interval_s)
      : threads_(threads), interval_s_(interval_s) {}

  /// Takes a sample once `elapsed` (seconds into the run) reaches the next
  /// interval.
  void tick(double elapsed);

  /// Median sample in ms; takes one sample if none was taken yet.
  [[nodiscard]] double median_ms();

 private:
  std::size_t threads_;
  double interval_s_;
  double next_s_ = 0.0;
  std::vector<double> samples_ms_;
};

/// Scales every timing in `m` to the nominal machine: times (s, ms, us,
/// ns) by `kNominalYardstickMs / yardstick`, rates (1/s) by its inverse.
void scale_to_nominal(Metrics& m, double yardstick);

}  // namespace perfbench
