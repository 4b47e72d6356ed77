#include "probes.hpp"

#include <chrono>
#include <cmath>
#include <sstream>
#include <vector>

#include "ble/gfsk.hpp"
#include "ble/packet.hpp"
#include "channel/noise.hpp"
#include "common/rng.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "lora/chirp.hpp"
#include "radio/quantizer.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

/// Keeps kernel outputs observable so the calls are not optimised away.
float g_sink = 0.0f;

/// Median over `reps` repetitions of the mean time of one of `calls`
/// back-to-back calls of `fn`.
template <typename Fn>
double median_ns_per_call(std::size_t reps, std::size_t calls, Fn&& fn) {
  fn();  // warm caches and lazy state
  std::vector<double> per_call;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    for (std::size_t c = 0; c < calls; ++c) fn();
    per_call.push_back(ns_since(start) / static_cast<double>(calls));
  }
  return percentile(per_call, 0.5);
}

dsp::Samples random_samples(std::size_t n, tinysdr::Rng& rng) {
  dsp::Samples out(n);
  for (auto& s : out)
    s = {static_cast<float>(rng.next_gaussian()),
         static_cast<float>(rng.next_gaussian())};
  return out;
}

}  // namespace

void probe_lora_stages(const tinysdr::lora::Demodulator& demod,
                       std::span<const Capture> captures, Metrics& out) {
  double condition_ns = 0.0, sync_ns = 0.0, receive_ns = 0.0;
  for (const Capture& cap : captures) {
    auto start = Clock::now();
    const auto conditioned = demod.condition(cap.iq);
    condition_ns += ns_since(start);
    start = Clock::now();
    const auto sync = demod.synchronize(conditioned);
    sync_ns += ns_since(start);
    start = Clock::now();
    const auto received = demod.receive(cap.iq);
    receive_ns += ns_since(start);
    g_sink += static_cast<float>(sync.has_value()) +
              static_cast<float>(received.has_value());
  }
  const auto n = static_cast<double>(captures.size());
  put(out, "lora.condition.ns_per_trial", condition_ns / n, "ns");
  put(out, "lora.sync.ns_per_trial", sync_ns / n, "ns");
  put(out, "lora.decode.ns_per_trial",
      (receive_ns - condition_ns - sync_ns) / n, "ns");
}

void probe_calibration(const phy::PhyRx& calibrated, const phy::PhyRx& inner,
                       std::span<const Capture> captures, Metrics& out) {
  double calibrated_ns = 0.0, inner_ns = 0.0;
  for (const Capture& cap : captures) {
    auto start = Clock::now();
    const auto a = calibrated.demodulate(cap.iq, cap.payload);
    calibrated_ns += ns_since(start);
    start = Clock::now();
    const auto b = inner.demodulate(cap.iq, cap.payload);
    inner_ns += ns_since(start);
    g_sink += static_cast<float>(a.bit_errors + b.bit_errors);
  }
  put(out, "phy.calibrate.ns_per_trial",
      (calibrated_ns - inner_ns) / static_cast<double>(captures.size()), "ns");
}

std::string probe_kernels(std::uint64_t seed, Metrics& out) {
  namespace lora = tinysdr::lora;
  namespace ble = tinysdr::ble;
  constexpr std::size_t kReps = 5;
  tinysdr::Rng rng{seed, 0x6b};

  // LoRa SF8/BW125 at critical sampling: 256-point FFT and chirps, and a
  // packet capture of about 10.8k samples through the DAC and AWGN.
  constexpr std::size_t kFftSize = 256;
  constexpr std::size_t kCapture = 10816;
  constexpr std::size_t kFirTaps = 14;
  constexpr std::size_t kFirBlock = 4096;

  // Each kernel: median ns per call over kReps batches of `calls` calls,
  // divided by the items (samples, bits) one call processes.
  auto time = [&](const char* name, std::size_t calls, double items,
                  auto&& fn) {
    put(out, name, median_ns_per_call(kReps, calls, fn) / items, "ns");
  };

  const dsp::FftPlan fft{kFftSize};
  const dsp::Samples fft_input = random_samples(kFftSize, rng);
  dsp::Samples fft_work = fft_input;
  time("dsp.fft.ns_per_call", 2000, 1.0, [&] {
    fft_work = fft_input;
    fft.forward(fft_work);
    g_sink += fft_work[1].real();
  });

  const dsp::Samples fir_input = random_samples(kFirBlock, rng);
  dsp::FirFilter fir{dsp::design_lowpass(kFirTaps, 0.175)};
  time("dsp.fir.ns_per_sample", 40, kFirBlock, [&] {
    const auto y = fir.filter(fir_input);
    g_sink += y.back().real();
  });

  const lora::ChirpGenerator chirps{lora::LoraParams{},
                                    tinysdr::Hertz::from_kilohertz(125.0)};
  std::uint32_t value = 0;
  time("lora.chirp.ns_per_symbol", 1000, 1.0, [&] {
    const auto sym = chirps.symbol(value++ & 0xFFu, lora::ChirpDirection::kUp);
    g_sink += sym[7].imag();
  });

  const tinysdr::radio::IqQuantizer dac{13, 1.0f};
  const dsp::Samples capture = random_samples(kCapture, rng);
  time("radio.quantizer.ns_per_sample", 20, kCapture, [&] {
    const auto q = dac.roundtrip(capture);
    g_sink += q[3].real();
  });

  tinysdr::Rng gauss{seed, 0x6c};
  time("common.rng.gaussian.ns_per_sample", 200000, 1.0, [&] {
    g_sink += static_cast<float>(gauss.next_gaussian());
  });

  tinysdr::channel::AwgnChannel awgn{tinysdr::Hertz::from_kilohertz(125.0),
                                     11.5, tinysdr::Rng{seed, 0x6d}};
  dsp::Samples noisy = capture;
  time("channel.awgn.ns_per_sample", 20, kCapture, [&] {
    awgn.add_noise(noisy, 3.0);
    g_sink += noisy[5].real();
  });

  // BLE: the fixed 11-byte beacon of the ble_ber workload.
  ble::AdvPacket packet;
  packet.adv_address = {0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC};
  packet.adv_data = {0x02, 0x01, 0x06, 0x0B, 0xFF, 0x4C,
                     0x00, 0x02, 0x15, 0xAA, 0xBB};
  const auto bits = ble::assemble_air_bits(packet, 37);
  const ble::GfskModulator mod{};
  const ble::GfskDemodulator demod{};
  const auto nbits = static_cast<double>(bits.size());
  time("ble.gfsk.modulate.ns_per_bit", 200, nbits, [&] {
    const auto w = mod.modulate(bits);
    g_sink += w[2].real();
  });
  const dsp::Samples wave = mod.modulate(bits);
  time("ble.gfsk.demod.ns_per_bit", 200, nbits, [&] {
    const auto rx = demod.demodulate(wave, 0);
    g_sink += static_cast<float>(rx.size());
  });

  // Operation and byte counts are computed from the kernel sizes, not
  // measured: radix-2 FFT 5*N*log2(N) flops; a real-tap complex FIR 4
  // flops per tap and output; complex<float> is 8 bytes, read + written.
  const double log2n = std::log2(static_cast<double>(kFftSize));
  std::ostringstream json;
  json << "{\"computed\":true"
       << ",\"dsp.fft\":{\"size\":" << kFftSize
       << ",\"flop_per_call\":" << 5.0 * kFftSize * log2n
       << ",\"bytes_per_call\":" << 2 * 8 * kFftSize << "}"
       << ",\"dsp.fir\":{\"taps\":" << kFirTaps << ",\"block\":" << kFirBlock
       << ",\"flop_per_sample\":" << 4 * kFirTaps
       << ",\"bytes_per_sample\":16}"
       << ",\"lora.chirp\":{\"samples_per_symbol\":"
       << chirps.samples_per_symbol()
       << ",\"bytes_per_symbol\":" << 8 * chirps.samples_per_symbol() << "}"
       << ",\"radio.quantizer\":{\"bits\":13,\"block\":" << kCapture
       << ",\"bytes_per_sample\":16}"
       << ",\"channel.awgn\":{\"block\":" << kCapture
       << ",\"gaussians_per_sample\":2,\"bytes_per_sample\":16}"
       << ",\"ble.gfsk\":{\"bits\":" << bits.size()
       << ",\"samples_per_bit\":4}"
       << ",\"sink_finite\":" << (std::isfinite(g_sink) ? "true" : "false")
       << "}";
  return json.str();
}

}  // namespace perfbench
