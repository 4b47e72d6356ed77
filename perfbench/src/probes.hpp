// Per-layer timings that a trial's own spans cannot give: the LoRa
// receiver's sub-stages and the calibration decorator, both timed on
// captures the traced sweep kept, and the DSP kernels beneath the stages,
// timed at the sizes the workloads use.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "lora/demodulator.hpp"
#include "phy/phy.hpp"
#include "report.hpp"
#include "sweep.hpp"

namespace perfbench {

/// lora.{condition,sync,decode}.ns_per_trial: condition(), synchronize()
/// and receive() on the same captures; decode is receive minus the other
/// two.
void probe_lora_stages(const tinysdr::lora::Demodulator& demod,
                       std::span<const Capture> captures, Metrics& out);

/// phy.calibrate.ns_per_trial: the calibrated receiver minus its inner
/// receiver, both run on the same captures.
void probe_calibration(const phy::PhyRx& calibrated, const phy::PhyRx& inner,
                       std::span<const Capture> captures, Metrics& out);

/// Kernel timings (dsp.fft, dsp.fir, lora.chirp, radio.quantizer,
/// common.rng.gaussian, channel.awgn, ble.gfsk). Returns a JSON object of
/// the sizes used and the computed operation and byte counts.
[[nodiscard]] std::string probe_kernels(std::uint64_t seed, Metrics& out);

}  // namespace perfbench
