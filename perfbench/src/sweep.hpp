// One LinkSimulator configuration, and a traced replay of its trial loop.
//
// traced_sweep() re-runs phy::LinkSimulator::run_point's pipeline from the
// outside, calling the same public layer entry points with the same RNG
// streams, and times each call: PhyTx::modulate, Interferer::emit,
// channel::superpose, impair::apply_stage, AwgnChannel::apply and
// PhyRx::demodulate. Its PointResults must equal LinkSimulator::sweep's
// byte for byte; that equality is what shows the stage times describe the
// real pipeline (points_equal() is the check).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "exec/policy.hpp"
#include "impair/impair.hpp"
#include "phy/link_sim.hpp"

namespace perfbench {

namespace phy = tinysdr::phy;
namespace impair = tinysdr::impair;
namespace dsp = tinysdr::dsp;

/// An interferer slot at a fixed receive power.
struct JamSlot {
  const phy::Interferer* source = nullptr;
  tinysdr::Dbm power{0.0};
};

/// Everything a LinkSimulator sweep is built from (all borrowed).
struct Pipeline {
  const phy::PhyTx* tx = nullptr;
  const phy::PhyRx* rx = nullptr;
  phy::TrialPlan plan;
  std::vector<JamSlot> jammers;
  impair::Chain chain;

  /// The simulator for one sweep rooted at `base_seed`.
  [[nodiscard]] phy::LinkSimulator simulator(std::uint64_t base_seed) const;
};

enum Stage : std::size_t {
  kModulate = 0,  ///< payload + padding + PhyTx::modulate
  kEmit,          ///< Interferer::emit
  kSuperpose,     ///< channel::superpose
  kImpairTx,      ///< impair::apply_stage(kTx), including its copy
  kAwgn,          ///< AwgnChannel construction + apply
  kImpairRx,      ///< impair::apply_stage(kRx)
  kDemod,         ///< PhyRx::demodulate
  kStageCount
};

/// A noisy capture as the receiver saw it, kept for sub-stage probes.
struct Capture {
  dsp::Samples iq;
  std::vector<std::uint8_t> payload;
};

/// Time spent in one traced sweep.
struct SweepTrace {
  std::array<double, kStageCount> stage_ns{};
  std::uint64_t trials = 0;
  double busy_ns = 0.0;           ///< summed per-point run time
  double wall_ns = 0.0;           ///< summed parallel-region wall time
  std::vector<double> imbalance;  ///< per sweep: slowest / median point
  std::vector<Capture> captures;  ///< trial 0 of each point, if asked

  void add(const SweepTrace& other);
};

/// Replays the sweep with spans around every layer call. With
/// `keep_captures`, trial 0's capture of every point is kept in `trace`.
[[nodiscard]] std::vector<phy::PointResult> traced_sweep(
    const Pipeline& pipeline, std::uint64_t base_seed,
    std::span<const phy::SweepPoint> points,
    const tinysdr::exec::ExecPolicy& policy, SweepTrace& trace,
    bool keep_captures = false);

/// True when both lists hold the same points, field for field.
[[nodiscard]] bool points_equal(std::span<const phy::PointResult> a,
                                std::span<const phy::PointResult> b);

[[nodiscard]] std::vector<phy::SweepPoint> grid_points(
    std::span<const double> rssi_dbm);

}  // namespace perfbench
