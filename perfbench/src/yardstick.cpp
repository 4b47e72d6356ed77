#include "yardstick.hpp"

#include <cmath>
#include <cstdint>

#include "exec/parallel_for.hpp"

namespace perfbench {

namespace {

/// About 2 ms of the float work the simulator's trials are made of:
/// complex rotations over an L2-sized buffer (like a packet capture), a
/// PCG-style integer RNG and a log/sqrt per pair of samples, as in
/// Box-Muller noise.
float kernel(std::uint64_t seed) {
  constexpr std::size_t kSize = 16384;
  constexpr int kPasses = 15;
  std::vector<float> re(kSize), im(kSize);
  std::uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (std::size_t i = 0; i < kSize; ++i) {
    re[i] = static_cast<float>(i % 7) * 0.1f;
    im[i] = static_cast<float>(i % 5) * 0.1f;
  }
  const float c = 0.99995f, s = 0.0099998f;
  float acc = 0.0f;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::size_t i = 0; i < kSize; i += 2) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const float u = static_cast<float>((state >> 40) + 1) * 0x1p-24f;
      const float noise = std::sqrt(-2.0f * std::log(u)) * 1e-3f;
      for (std::size_t j = i; j < i + 2; ++j) {
        const float r = re[j] * c - im[j] * s + noise;
        const float q = re[j] * s + im[j] * c - noise;
        re[j] = r;
        im[j] = q;
        acc += r * q;
      }
    }
  }
  return acc;
}

}  // namespace

double yardstick_ms(std::size_t threads) {
  std::vector<float> sinks(threads);
  const double t0 = now_s();
  if (threads == 1) {
    sinks[0] = kernel(1);
  } else {
    // On the exec pool, so the kernel runs where the workload's sweeps do.
    tinysdr::exec::ExecPolicy policy = tinysdr::exec::ExecPolicy::with_threads(threads);
    policy.grain = 1;
    (void)tinysdr::exec::parallel_for(
        threads, policy, [&](std::size_t t, std::size_t) { sinks[t] = kernel(t + 1); });
  }
  const double ms = (now_s() - t0) * 1e3;
  volatile float sink = 0.0f;
  for (float v : sinks) sink = sink + v;
  return ms;
}

void Yardstick::tick(double elapsed) {
  if (elapsed < next_s_) return;
  samples_ms_.push_back(yardstick_ms(threads_));
  next_s_ = elapsed + interval_s_;
}

double Yardstick::median_ms() {
  if (samples_ms_.empty()) samples_ms_.push_back(yardstick_ms(threads_));
  return percentile(samples_ms_, 0.5);
}

void scale_to_nominal(Metrics& m, double yardstick) {
  const double scale = kNominalYardstickMs / yardstick;
  for (auto& [name, metric] : m) {
    const std::string& u = metric.unit;
    if (u == "s" || u == "ms" || u == "us" || u == "ns") metric.value *= scale;
    if (u == "1/s") metric.value /= scale;
  }
}

}  // namespace perfbench
