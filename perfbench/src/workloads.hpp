// The four workloads and the run that measures one of them.
//
//   lora_per          Fig. 10: LoRa SF8/BW125 packet PER sweeps
//   ble_ber           Fig. 12: BLE beacon BER sweeps
//   coexist_impaired  Zigbee/Sigfox/NB-IoT victims with a jammer and
//                     TX/RX impairments, calibrated and raw receivers
//   serve_campaigns   jobs through an in-process campaign server
//
// A run with tracing off measures the end-to-end metrics. A traced run
// of the same workload gives the per-layer metrics; layers the workload
// does not run are filled from a short fixed-size pass of the workload
// that does (see README.md for the layer -> metric -> workload map).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "report.hpp"
#include "sweep.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// exec worker count of every sweep and of the server's engine: at most
  /// the 4 cores of the box it was tuned on, leaving headroom on a shared
  /// host.
  std::size_t threads = 2;
  /// Directory for the server's socket; created and removed by the run.
  std::string scratch;
};

[[nodiscard]] std::span<const char* const> workload_names();

/// One kind of sweep a workload repeats.
struct SweepKind {
  std::string label;
  Pipeline pipe;
  std::vector<double> grid;
  std::vector<phy::SweepPoint> points;
  /// A calibrated receiver and the raw receiver inside it, for the
  /// phy.calibrate probe on this kind's captures; null when not probed.
  const phy::PhyRx* calibrated_rx = nullptr;
  const phy::PhyRx* raw_rx = nullptr;
};

/// A sweep workload's PHYs, jammers and impairment blocks, and the sweep
/// kinds built from them (which borrow the owned objects).
struct SweepSet {
  std::vector<std::unique_ptr<phy::PhyTx>> txs;
  std::vector<std::unique_ptr<phy::PhyRx>> rxs;
  std::vector<std::unique_ptr<phy::Interferer>> jammers;
  std::vector<std::unique_ptr<impair::Impairment>> blocks;
  std::vector<SweepKind> kinds;
};

[[nodiscard]] std::unique_ptr<SweepSet> make_lora_per();
[[nodiscard]] std::unique_ptr<SweepSet> make_ble_ber();
[[nodiscard]] std::unique_ptr<SweepSet> make_coexist_impaired();

/// Replays `untraced` (LinkSimulator::sweep's output for `base_seed`)
/// through traced_sweep() on one thread and records whether the two agree.
void check_traced_equal(const SweepKind& kind, std::uint64_t base_seed,
                        std::span<const phy::PointResult> untraced,
                        Tally& tally);

/// Measures one workload and prints the report line and then the result
/// line. Returns the process exit code.
int run_workload(const Options& options);

}  // namespace perfbench
