#include "sweep.hpp"

#include <algorithm>
#include <chrono>

#include "channel/noise.hpp"
#include "exec/parallel_for.hpp"
#include "exec/seed.hpp"
#include "report.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// One point of LinkSimulator::run_point, spanned per layer call. The
/// statement order, buffers and RNG streams follow run_point exactly.
phy::PointResult traced_point(const Pipeline& p, std::uint64_t base_seed,
                              const phy::SweepPoint& point, SweepTrace& tr,
                              Capture* capture) {
  using Sim = phy::LinkSimulator;
  const phy::TrialPlan& plan = p.plan;
  phy::PointResult acc;
  acc.rssi_dbm = point.rssi.value();

  const tinysdr::Hertz rate = plan.channel_rate.value_or(p.rx->sample_rate());
  const std::uint64_t pseed = Sim::point_seed(base_seed, acc.rssi_dbm);

  dsp::Samples wave, interferer_wave;
  std::vector<std::uint8_t> payload;
  bool has_tx_impair = false;
  bool has_rx_impair = false;
  for (const auto& slot : p.chain) {
    if (slot.stage == impair::Stage::kTx) has_tx_impair = true;
    if (slot.stage == impair::Stage::kRx) has_rx_impair = true;
  }

  for (std::size_t t = 0; t < plan.trials; ++t) {
    const auto t0 = Clock::now();
    const std::uint64_t tseed = tinysdr::exec::stream_seed(pseed, t);
    if (plan.fixed_payload) {
      payload = *plan.fixed_payload;
    } else {
      tinysdr::Rng payload_rng{tseed, Sim::kPayloadStream};
      payload.resize(std::min(plan.payload_bytes, p.tx->max_payload()));
      for (auto& b : payload) b = payload_rng.next_byte();
    }
    wave.clear();
    wave.insert(wave.end(), plan.pad_samples, dsp::Complex{0.0f, 0.0f});
    p.tx->modulate(payload, wave);
    wave.insert(wave.end(), plan.pad_samples, dsp::Complex{0.0f, 0.0f});
    auto mark = Clock::now();
    tr.stage_ns[kModulate] += ns_between(t0, mark);

    const dsp::Samples* signal = &wave;
    dsp::Samples combined;
    for (std::size_t k = 0; k < p.jammers.size(); ++k) {
      const JamSlot& slot = p.jammers[k];
      tinysdr::Rng interferer_rng{
          tseed, k == 0 ? Sim::kInterfererStream
                        : Sim::kExtraInterfererBase + k};
      interferer_wave.clear();
      slot.source->emit(wave, interferer_wave, interferer_rng);
      auto emitted = Clock::now();
      tr.stage_ns[kEmit] += ns_between(mark, emitted);
      mark = emitted;
      if (interferer_wave.empty()) continue;
      combined = tinysdr::channel::superpose(
          *signal, interferer_wave, slot.power.value() - point.rssi.value());
      signal = &combined;
      auto mixed = Clock::now();
      tr.stage_ns[kSuperpose] += ns_between(mark, mixed);
      mark = mixed;
    }

    if (has_tx_impair) {
      if (signal != &combined) {
        combined.assign(signal->begin(), signal->end());
        signal = &combined;
      }
      impair::apply_stage(p.chain, impair::Stage::kTx, combined, tseed,
                          Sim::kImpairStreamBase);
      auto done = Clock::now();
      tr.stage_ns[kImpairTx] += ns_between(mark, done);
      mark = done;
    }

    tinysdr::channel::AwgnChannel channel{
        rate, plan.noise_figure_db, tinysdr::Rng{tseed, Sim::kChannelStream}};
    auto noisy = channel.apply(*signal, point.rssi);
    auto noised = Clock::now();
    tr.stage_ns[kAwgn] += ns_between(mark, noised);
    mark = noised;

    if (has_rx_impair) {
      impair::apply_stage(p.chain, impair::Stage::kRx, noisy, tseed,
                          Sim::kImpairStreamBase);
      auto done = Clock::now();
      tr.stage_ns[kImpairRx] += ns_between(mark, done);
      mark = done;
    }

    const phy::FrameResult r = p.rx->demodulate(noisy, payload);
    const auto t1 = Clock::now();
    tr.stage_ns[kDemod] += ns_between(mark, t1);

    acc.frames += 1;
    acc.frame_errors += r.frame_ok ? 0 : 1;
    acc.bits += r.bits;
    acc.bit_errors += r.bit_errors;
    acc.symbols += r.symbols;
    acc.symbol_errors += r.symbol_errors;
    tr.trials += 1;
    if (capture != nullptr && t == 0) {
      capture->iq = std::move(noisy);
      capture->payload = payload;
    }
  }
  return acc;
}

}  // namespace

phy::LinkSimulator Pipeline::simulator(std::uint64_t base_seed) const {
  phy::TrialPlan p = plan;
  p.base_seed = base_seed;
  phy::LinkSimulator sim{*tx, *rx, p};
  for (const JamSlot& slot : jammers) sim.add_interferer(*slot.source, slot.power);
  for (const impair::ChainSlot& slot : chain)
    sim.add_impairment(*slot.impairment, slot.stage);
  return sim;
}

void SweepTrace::add(const SweepTrace& other) {
  for (std::size_t s = 0; s < kStageCount; ++s) stage_ns[s] += other.stage_ns[s];
  trials += other.trials;
  busy_ns += other.busy_ns;
  wall_ns += other.wall_ns;
  imbalance.insert(imbalance.end(), other.imbalance.begin(),
                   other.imbalance.end());
}

std::vector<phy::PointResult> traced_sweep(
    const Pipeline& pipeline, std::uint64_t base_seed,
    std::span<const phy::SweepPoint> points,
    const tinysdr::exec::ExecPolicy& policy, SweepTrace& trace,
    bool keep_captures) {
  std::vector<phy::PointResult> results(points.size());
  std::vector<SweepTrace> shards(points.size());
  std::vector<double> point_ns(points.size());
  std::vector<Capture> captures(keep_captures ? points.size() : 0);

  tinysdr::exec::ExecPolicy p = policy;
  if (p.grain == 0) p.grain = 1;  // as LinkSimulator::sweep
  const auto start = Clock::now();
  (void)tinysdr::exec::parallel_for(
      points.size(), p, [&](std::size_t i, std::size_t) {
        const auto t0 = Clock::now();
        results[i] = traced_point(pipeline, base_seed, points[i], shards[i],
                                  keep_captures ? &captures[i] : nullptr);
        point_ns[i] = ns_between(t0, Clock::now());
      });
  const double wall = ns_between(start, Clock::now());

  SweepTrace sweep;
  for (const SweepTrace& shard : shards) sweep.add(shard);
  for (double ns : point_ns) sweep.busy_ns += ns;
  sweep.wall_ns = wall;
  if (!point_ns.empty()) {
    const double slowest = *std::max_element(point_ns.begin(), point_ns.end());
    const double median = percentile(point_ns, 0.5);
    if (median > 0.0) sweep.imbalance.push_back(slowest / median);
  }
  trace.add(sweep);
  for (Capture& c : captures) trace.captures.push_back(std::move(c));
  return results;
}

bool points_equal(std::span<const phy::PointResult> a,
                  std::span<const phy::PointResult> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

std::vector<phy::SweepPoint> grid_points(std::span<const double> rssi_dbm) {
  std::vector<phy::SweepPoint> points;
  points.reserve(rssi_dbm.size());
  for (double rssi : rssi_dbm) points.push_back({tinysdr::Dbm{rssi}, std::nullopt});
  return points;
}

}  // namespace perfbench
