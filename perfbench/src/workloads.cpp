#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>

#include "adversary/jammer.hpp"
#include "exec/seed.hpp"
#include "lora/demodulator.hpp"
#include "obs/json.hpp"
#include "phy/ble_phy.hpp"
#include "phy/calibrated_rx.hpp"
#include "phy/lora_phy.hpp"
#include "phy/registry.hpp"
#include "probes.hpp"
#include "serve/protocol.hpp"
#include "serve_client.hpp"
#include "testbed/phy_campaign.hpp"
#include "yardstick.hpp"

namespace perfbench {

namespace {

using tinysdr::Dbm;
using tinysdr::exec::ExecPolicy;
using tinysdr::obs::json_number;
using tinysdr::obs::json_quote;

constexpr std::array<const char*, 4> kWorkloads = {
    "lora_per", "ble_ber", "coexist_impaired", "serve_campaigns"};

/// Set-up repetitions per run (see SetupSampler). Each server repetition
/// stays alive to the end of the run, so it gets fewer.
constexpr std::size_t kSweepSetupReps = 51;
constexpr std::size_t kServeSetupReps = 9;
/// Whatever --seconds says, stop measuring here (the run must end < 180 s).
constexpr double kMaxMeasureSeconds = 120.0;
/// Seconds between yardstick samples during the measuring window.
constexpr double kYardstickIntervalS = 0.25;
/// Captures kept per sweep kind for the sub-stage probes.
constexpr std::size_t kCapturesPerKind = 40;
/// Operations needed for a p90 with ten samples beyond it.
const std::size_t kMinOps = min_samples_for(0.9);

// Physics guards: the repo's Fig. 10 tinySDR SF8/BW125 PER=50% crossing
// and the Fig. 12 BLE BER<=1e-3 knee.
constexpr double kLoraPer50Dbm = -122.0;
constexpr double kLoraPer50TolDb = 2.0;
constexpr double kBleKneeDbm = -94.0;
constexpr double kBleKneeTolDb = 3.0;

std::uint64_t sweep_seed(std::uint64_t run_seed, std::uint64_t op) {
  return tinysdr::exec::stream_seed(run_seed, op);
}

std::vector<double> grid(double lo, double hi, double step) {
  std::vector<double> g;
  for (double r = lo; r <= hi + 1e-9; r += step) g.push_back(r);
  return g;
}

SweepKind make_kind(std::string label, Pipeline pipe, std::vector<double> g) {
  SweepKind kind{std::move(label), std::move(pipe), std::move(g), {}};
  kind.points = grid_points(kind.grid);
  return kind;
}

tinysdr::lora::Demodulator lora_demod() {
  const phy::LoraPhyConfig cfg{};
  return tinysdr::lora::Demodulator{cfg.params, cfg.rate(), cfg.fir_taps};
}

/// Times `reps` set-ups per run, spread evenly over the measuring window
/// so that their median sees the same mix of machine states the operations
/// see. Set-up runs on one thread, so each repetition is scaled to the
/// nominal machine by a one-thread yardstick run just before it.
template <typename T>
class SetupSampler {
 public:
  using Make = std::function<std::unique_ptr<T>()>;

  /// With `keep_all`, repetitions stay alive until the sampler dies (a
  /// server's teardown waits up to 100 ms for its runner thread).
  SetupSampler(std::size_t reps, double seconds, Make make, bool keep_all)
      : reps_(reps), seconds_(seconds), make_(std::move(make)),
        keep_all_(keep_all) {}

  /// The first repetition, which the run then uses.
  std::unique_ptr<T> first() { return timed(); }

  /// Runs the next repetition once `elapsed` seconds reach its turn.
  void tick(double elapsed) {
    if (done_ < reps_ && elapsed >= static_cast<double>(done_) * seconds_ /
                                         static_cast<double>(reps_))
      rep();
  }

  /// Medians over all repetitions (running any still due), in seconds:
  /// scaled to the nominal machine, and as measured.
  double scaled_median() {
    finish();
    return percentile(scaled_, 0.5);
  }
  double raw_median() {
    finish();
    return percentile(raw_, 0.5);
  }

 private:
  std::unique_ptr<T> timed() {
    const double yardstick = yardstick_ms(1);
    const double t0 = now_s();
    auto made = make_();
    const double dt = now_s() - t0;
    raw_.push_back(dt);
    scaled_.push_back(dt * kNominalYardstickMs / yardstick);
    ++done_;
    return made;
  }
  void rep() {
    auto made = timed();
    if (keep_all_) kept_.push_back(std::move(made));
  }
  void finish() {
    while (done_ < reps_) rep();
  }

  std::size_t reps_;
  double seconds_;
  Make make_;
  bool keep_all_;
  std::size_t done_ = 0;
  std::vector<double> raw_, scaled_;
  std::vector<std::unique_ptr<T>> kept_;
};

/// Stage, exec and coverage metrics of a traced sweep total.
void put_trace_metrics(Metrics& m, const SweepTrace& tr, std::size_t threads) {
  static constexpr std::array<const char*, kStageCount> kNames = {
      "phy.modulate.ns_per_trial",   "adversary.emit.ns_per_trial",
      "channel.superpose.ns_per_trial", "impair.tx.ns_per_trial",
      "channel.awgn.ns_per_trial",   "impair.rx.ns_per_trial",
      "phy.demod.ns_per_trial"};
  if (tr.trials == 0) return;
  double stages = 0.0;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    stages += tr.stage_ns[s];
    if (tr.stage_ns[s] > 0.0)
      put(m, kNames[s], tr.stage_ns[s] / static_cast<double>(tr.trials), "ns");
  }
  // Spans cover a point's trials; the gap is the loop's own work.
  put(m, "trace.coverage", stages / tr.busy_ns, "ratio");
  put(m, "exec.busy_ratio",
      tr.busy_ns / (tr.wall_ns * static_cast<double>(threads)), "ratio");
  put(m, "exec.point_imbalance", percentile(tr.imbalance, 0.5), "ratio");
}

// ------------------------------------------------------------ sweeps

/// Pooled outcomes per sweep kind and grid point.
using Pool = std::vector<std::vector<phy::PointResult>>;

void pool_add(Pool& pool, std::size_t kind,
              std::span<const phy::PointResult> results) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    phy::PointResult& p = pool[kind][i];
    p.rssi_dbm = results[i].rssi_dbm;
    p.frames += results[i].frames;
    p.frame_errors += results[i].frame_errors;
    p.bits += results[i].bits;
    p.bit_errors += results[i].bit_errors;
  }
}

bool sweep_complete(const SweepKind& kind,
                    std::span<const phy::PointResult> results) {
  if (results.size() != kind.points.size()) return false;
  for (const auto& r : results)
    if (r.frames != kind.pipe.plan.trials) return false;
  return true;
}

struct SweepLoop {
  std::vector<double> op_ms;  ///< untraced sweeps
  std::uint64_t ops = 0;
  std::uint64_t trials = 0;   ///< untraced trials
  double wall_s = 0.0;
  double untraced_s = 0.0;    ///< summed untraced sweep time
  double traced_s = 0.0;      ///< summed traced sweep time (trace only)
  std::vector<SweepTrace> traces;  ///< per kind (trace only)
  std::vector<phy::PointResult> first;  ///< op 0's results
};

/// Sweeps the kinds round-robin until `seconds` have passed and at least
/// kMinOps sweeps ran, stopping only after a whole round. With `traced`,
/// every sweep is also replayed through traced_sweep() on the same seed,
/// and the two results must agree.
SweepLoop sweep_loop(const SweepSet& set, const Options& o, bool traced,
                     Tally& tally, Pool& pool,
                     const std::function<void(double)>& tick) {
  const ExecPolicy policy = ExecPolicy::with_threads(o.threads);
  const std::size_t kinds = set.kinds.size();
  SweepLoop loop;
  loop.traces.resize(kinds);
  const double start = now_s();
  for (std::uint64_t op = 0;; ++op) {
    const double elapsed = now_s() - start;
    if (op % kinds == 0 && ((elapsed >= o.seconds && op >= kMinOps) ||
                            elapsed >= kMaxMeasureSeconds))
      break;
    tick(elapsed);
    const std::size_t k = op % kinds;
    const SweepKind& kind = set.kinds[k];
    const std::uint64_t seed = sweep_seed(o.seed, op);
    bool ok = true;
    std::string what = kind.label + " sweep";
    try {
      const double t0 = now_s();
      const auto results = kind.pipe.simulator(seed).sweep(kind.points, policy);
      const double t1 = now_s();
      loop.op_ms.push_back((t1 - t0) * 1e3);
      loop.untraced_s += t1 - t0;
      loop.trials += kind.pipe.plan.trials * kind.points.size();
      ok = sweep_complete(kind, results);
      if (traced) {
        SweepTrace& tr = loop.traces[k];
        const bool keep = kind.calibrated_rx != nullptr &&
                          tr.captures.size() < kCapturesPerKind;
        const double t2 = now_s();
        const auto replay =
            traced_sweep(kind.pipe, seed, kind.points, policy, tr, keep);
        loop.traced_s += now_s() - t2;
        if (!points_equal(results, replay)) {
          ok = false;
          what += ": traced replay differs from LinkSimulator::sweep";
        }
      }
      if (ok) pool_add(pool, k, results);
      if (op == 0) loop.first = results;
    } catch (const std::exception& e) {
      ok = false;
      what += ": " + std::string(e.what());
    }
    tally.record(ok, what);
    ++loop.ops;
  }
  loop.wall_s = now_s() - start;
  return loop;
}

void check_threads1(const SweepSet& set, const Options& o,
                    std::span<const phy::PointResult> first, Tally& tally) {
  const SweepKind& kind = set.kinds[0];
  const std::size_t idx = o.seed % kind.points.size();
  const auto rerun = kind.pipe.simulator(sweep_seed(o.seed, 0))
                         .sweep(std::span{&kind.points[idx], 1},
                                ExecPolicy::serial());
  tally.record(first.size() == kind.points.size() && rerun.size() == 1 &&
                   rerun[0] == first[idx],
               kind.label + ": threads=1 re-run of a point differs");
}

/// LoRa: pooled PER=50% crossing, interpolated on the grid.
std::string guard_lora(const Pool& pool, Tally& tally) {
  const auto& pts = pool[0];
  std::optional<double> crossing;
  for (std::size_t i = 1; i < pts.size() && !crossing; ++i) {
    const double a = pts[i - 1].per(), b = pts[i].per();
    if (a >= 0.5 && b < 0.5)
      crossing = pts[i - 1].rssi_dbm + (a - 0.5) / (a - b) *
                                           (pts[i].rssi_dbm - pts[i - 1].rssi_dbm);
  }
  const bool ok =
      crossing && std::abs(*crossing - kLoraPer50Dbm) <= kLoraPer50TolDb;
  tally.record(ok, "lora_per: PER=50% crossing off the Fig. 10 curve");
  return "{\"per50_dbm\":" + (crossing ? json_number(*crossing) : "null") +
         ",\"expected_dbm\":" + json_number(kLoraPer50Dbm) +
         ",\"tolerance_db\":" + json_number(kLoraPer50TolDb) +
         ",\"trials_per_point\":" + std::to_string(pts[0].frames) + "}";
}

/// BLE: first grid RSSI whose pooled BER is at most 1e-3.
std::string guard_ble(const Pool& pool, Tally& tally) {
  const auto& pts = pool[0];
  std::optional<double> knee;
  for (const auto& p : pts)
    if (!knee && p.bits > 0 && p.ber() <= 1e-3) knee = p.rssi_dbm;
  const bool ok = knee && std::abs(*knee - kBleKneeDbm) <= kBleKneeTolDb;
  tally.record(ok, "ble_ber: BER<=1e-3 knee off the Fig. 12 curve");
  return "{\"knee_dbm\":" + (knee ? json_number(*knee) : "null") +
         ",\"expected_dbm\":" + json_number(kBleKneeDbm) +
         ",\"tolerance_db\":" + json_number(kBleKneeTolDb) +
         ",\"trials_per_point\":" + std::to_string(pts[0].frames) + "}";
}

/// Coexistence: each victim's calibrated PER, pooled over its grid, is no
/// worse than its raw PER and below one half. Kinds come in (cal, raw)
/// pairs.
std::string guard_coexist(const SweepSet& set, const Pool& pool,
                          Tally& tally) {
  auto pooled_per = [&](std::size_t k) {
    std::uint64_t frames = 0, errors = 0;
    for (const auto& p : pool[k]) {
      frames += p.frames;
      errors += p.frame_errors;
    }
    return frames == 0 ? 1.0 : static_cast<double>(errors) /
                                   static_cast<double>(frames);
  };
  std::ostringstream json;
  json << "{";
  for (std::size_t k = 0; k + 1 < set.kinds.size(); k += 2) {
    const double cal = pooled_per(k), raw = pooled_per(k + 1);
    tally.record(cal <= raw && cal < 0.5,
                 set.kinds[k].label + ": calibrated PER worse than raw");
    json << (k > 0 ? "," : "") << json_quote(set.kinds[k].label)
         << ":{\"per_calibrated\":" << json_number(cal)
         << ",\"per_raw\":" << json_number(raw) << "}";
  }
  json << "}";
  return json.str();
}

// ------------------------------------------------------------ serve

struct ServeLoop {
  std::vector<double> job_ms;
  std::uint64_t jobs = 0;
  std::uint64_t trials = 0;
  double wall_s = 0.0;
  // Spans of the traced half.
  std::uint64_t traced_jobs = 0;
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;
  std::uint64_t untraced_jobs = 0;
  double submit_us = 0.0, result_us = 0.0;
  double protocol_us = 0.0;
  std::uint64_t protocol_calls = 0;
  double hits = 0.0, misses = 0.0, computed = 0.0;
  std::optional<StreamJob> first_job;
  std::string first_result;
  std::vector<serve::FleetSpec> fleets;
};

/// Replays a finished job's status and result requests through
/// serve::handle_line in-process: the protocol layer without the socket.
void time_protocol(serve::Engine& engine, std::uint64_t id, ServeLoop& loop) {
  const std::string sid = std::to_string(id);
  for (const std::string& line :
       {"{\"type\":\"status\",\"id\":" + sid + "}",
        "{\"type\":\"result\",\"id\":" + sid + "}"}) {
    const double t0 = now_s();
    const auto response = serve::handle_line(engine, line);
    loop.protocol_us += (now_s() - t0) * 1e6;
    loop.protocol_calls += response.lines.empty() ? 0 : 1;
  }
}

/// Sends the stream's jobs one at a time (a closed loop with one client).
/// Untraced for `seconds`, then, with `traced`, as long again with
/// per-request spans and protocol replays. Each phase stops only after a
/// whole cycle of the stream and after at least `min_jobs` jobs.
ServeLoop serve_loop(ServerHost& host, JobStream& stream, double seconds,
                     std::size_t min_jobs, bool traced, Tally& tally,
                     const std::function<void(double)>& tick) {
  ServeLoop loop;
  const StreamJob priming = stream.priming();
  const JobOutcome primed = run_job(host.socket_path(), priming.text);
  tally.record(primed.ok, "priming job: " + primed.error);
  const auto before = host.engine().stats();

  std::map<std::size_t, std::string> to_repeat;
  std::size_t index = 0;
  const double start = now_s();
  for (int phase = 0; phase < (traced ? 2 : 1); ++phase) {
    const bool spans = phase == 1;
    const double phase_start = now_s();
    std::uint64_t phase_jobs = 0;
    for (;; ++index, ++phase_jobs) {
      const double elapsed = now_s() - phase_start;
      if (index % JobStream::kCycle == 0 &&
          ((elapsed >= seconds && phase_jobs >= min_jobs) ||
           elapsed >= kMaxMeasureSeconds / 2))
        break;
      tick(now_s() - start);
      const StreamJob job = stream.next();
      const JobOutcome out = run_job(host.socket_path(), job.text);
      bool ok = out.ok;
      std::string what = job.spec.name + ": " + out.error;
      if (ok && job.repeat_of) {
        ok = out.result == to_repeat[*job.repeat_of];
        to_repeat.erase(*job.repeat_of);
        what = job.spec.name + ": resubmitted job's result bytes differ";
      }
      tally.record(ok, what);
      if (!out.ok) continue;
      loop.job_ms.push_back(out.timing.total_us / 1e3);
      loop.trials += job.trials_computed;
      if (index % JobStream::kCycle == 1) to_repeat[index] = out.result;
      if (!loop.first_job) {
        loop.first_job = job;
        loop.first_result = out.result;
      }
      if (spans) {
        loop.submit_us += out.timing.submit_us;
        loop.result_us += out.timing.result_us;
        time_protocol(host.engine(), out.id, loop);
        if (!job.spec.fleets.empty() && loop.fleets.size() < 4)
          loop.fleets.push_back(job.spec.fleets[0]);
      }
    }
    const double phase_wall = now_s() - phase_start;
    if (spans) {
      loop.traced_wall_s = phase_wall;
      loop.traced_jobs = phase_jobs;
    } else {
      loop.untraced_wall_s = phase_wall;
      loop.untraced_jobs = phase_jobs;
    }
  }
  loop.wall_s = now_s() - start;
  loop.jobs = index;

  auto after = host.engine().stats();
  loop.hits = after["serve.cache.hits"] - before.at("serve.cache.hits");
  loop.misses = after["serve.cache.misses"] - before.at("serve.cache.misses");
  loop.computed =
      after["serve.points.computed"] - before.at("serve.points.computed");
  return loop;
}

/// A job's fleet campaign run in-process, as serve::Engine runs it.
tinysdr::testbed::PhyCampaignResult run_fleet(const serve::FleetSpec& f,
                                              const ExecPolicy& policy) {
  tinysdr::testbed::PhyCampaignConfig cfg;
  cfg.trials_per_node = f.trials_per_node;
  cfg.payload_bytes = f.payload_bytes;
  cfg.base_seed = f.base_seed;
  cfg.only_protocol = f.phy;
  tinysdr::Rng deploy_rng{f.deployment_seed};
  const auto deployment =
      tinysdr::testbed::Deployment::campus(deploy_rng, Dbm{14.0}, f.nodes);
  return tinysdr::testbed::run_phy_campaign(
      deployment, phy::Registry::builtin(), cfg, policy);
}

/// Recomputes the first measured job in-process — sweeps through the
/// traced replay on one thread, fleets through testbed::run_phy_campaign —
/// and checks the served result bytes against it.
void check_direct_job(const ServeLoop& loop, SweepTrace& trace,
                      std::vector<Capture>& lora_captures, Tally& tally) {
  if (!loop.first_job) {
    tally.fail("serve: no job finished");
    return;
  }
  const auto& registry = phy::Registry::builtin();
  serve::JobResult expected;
  // The server echoes the job as parsed, with registry defaults resolved.
  std::string error;
  auto parsed = serve::parse_job(loop.first_job->text, error);
  if (!parsed) {
    tally.fail("serve: stream job does not parse: " + error);
    return;
  }
  expected.job = std::move(*parsed);
  for (const serve::SweepSpec& s : expected.job.sweeps) {
    const phy::RegisteredPhy& entry = registry.at(s.phy);
    const auto tx = entry.make_tx();
    const auto rx = entry.make_rx();
    Pipeline pipe;
    pipe.tx = tx.get();
    pipe.rx = rx.get();
    pipe.plan.trials = s.trials;
    pipe.plan.payload_bytes = s.payload_bytes;
    pipe.plan.pad_samples = s.pad_samples.value_or(entry.pad_samples);
    pipe.plan.noise_figure_db =
        s.noise_figure_db.value_or(entry.system_noise_figure_db);
    const bool lora = s.phy == phy::Protocol::kLora;
    SweepTrace local;
    serve::SweepResult sweep;
    sweep.points = traced_sweep(pipe, s.base_seed, grid_points(s.rssi_dbm),
                                ExecPolicy::serial(), local, lora);
    expected.sweeps.push_back(std::move(sweep));
    for (Capture& c : local.captures) lora_captures.push_back(std::move(c));
    local.captures.clear();
    trace.add(local);
  }
  for (const serve::FleetSpec& f : expected.job.fleets)
    expected.fleets.push_back({run_fleet(f, ExecPolicy::serial()).per_node});
  tally.record(expected.json() == loop.first_result,
               "serve: served result differs from the in-process "
               "LinkSimulator/campaign result");
}

void put_serve_metrics(Metrics& m, const ServeLoop& loop,
                       std::size_t threads) {
  const double traced = static_cast<double>(loop.traced_jobs);
  put(m, "serve.submit_us", loop.submit_us / traced, "us");
  put(m, "serve.result_us", loop.result_us / traced, "us");
  put(m, "serve.protocol_us",
      loop.protocol_us / static_cast<double>(loop.protocol_calls), "us");
  put(m, "serve.cache.hit_ratio", loop.hits / (loop.hits + loop.misses),
      "ratio");
  put(m, "serve.points_computed_per_job",
      loop.computed / static_cast<double>(loop.jobs), "count");

  std::vector<double> fleet_ms;
  for (const serve::FleetSpec& f : loop.fleets) {
    const double t0 = now_s();
    (void)run_fleet(f, ExecPolicy::with_threads(threads));
    fleet_ms.push_back((now_s() - t0) * 1e3);
  }
  put(m, "testbed.fleet_ms", percentile(fleet_ms, 0.5), "ms");
}

// ------------------------------------------------- layers not run

/// A server on its own socket in the scratch directory.
std::unique_ptr<ServerHost> make_host(const Options& o) {
  static std::size_t count = 0;
  return std::make_unique<ServerHost>(
      o.scratch + "/serve-" + std::to_string(count++) + ".sock",
      ExecPolicy::with_threads(o.threads));
}

/// LoRa receiver sub-stages from a short lora_per pass.
void probe_lora_pass(const Options& o, Metrics& m) {
  auto set = make_lora_per();
  SweepKind kind = set->kinds[0];
  kind.pipe.plan.trials = 2;
  SweepTrace tr;
  (void)traced_sweep(kind.pipe, sweep_seed(o.seed, 0), kind.points,
                     ExecPolicy::with_threads(o.threads), tr, true);
  probe_lora_stages(lora_demod(), tr.captures, m);
}

/// Jammer, superposition, impairment and calibration stages from a short
/// pass of coexist_impaired's first (calibrated) kind.
void probe_coexist_pass(const Options& o, Metrics& m) {
  auto set = make_coexist_impaired();
  SweepKind kind = set->kinds[0];
  kind.pipe.plan.trials = 4;
  SweepTrace tr;
  (void)traced_sweep(kind.pipe, sweep_seed(o.seed, 0), kind.points,
                     ExecPolicy::with_threads(o.threads), tr, true);
  const double n = static_cast<double>(tr.trials);
  put(m, "adversary.emit.ns_per_trial", tr.stage_ns[kEmit] / n, "ns");
  put(m, "channel.superpose.ns_per_trial", tr.stage_ns[kSuperpose] / n, "ns");
  put(m, "impair.tx.ns_per_trial", tr.stage_ns[kImpairTx] / n, "ns");
  put(m, "impair.rx.ns_per_trial", tr.stage_ns[kImpairRx] / n, "ns");
  probe_calibration(*kind.calibrated_rx, *kind.raw_rx, tr.captures, m);
}

/// Serve-layer metrics from a short session of one stream cycle.
void probe_serve_pass(const Options& o, Metrics& m, Tally& tally) {
  auto host = make_host(o);
  JobStream stream{o.seed};
  const ServeLoop loop =
      serve_loop(*host, stream, 0.0, JobStream::kCycle, true, tally,
                 [](double) {});
  put_serve_metrics(m, loop, o.threads);
}

// ------------------------------------------------------------ runs

struct RunOutput {
  Metrics metrics;      ///< as measured
  double setup_s = 0.0;  ///< scaled to the nominal machine
  double setup_raw_s = 0.0;
  std::string report;   ///< extra members of the report line
};

RunOutput run_sweeps(const Options& o,
                     const std::function<std::unique_ptr<SweepSet>()>& make,
                     Yardstick& yardstick, Tally& tally) {
  SetupSampler<SweepSet> setup{kSweepSetupReps, o.seconds, make, false};
  const std::unique_ptr<SweepSet> set = setup.first();
  Pool pool(set->kinds.size());
  for (std::size_t k = 0; k < set->kinds.size(); ++k)
    pool[k].resize(set->kinds[k].points.size());

  SweepLoop loop = sweep_loop(*set, o, o.trace, tally, pool, [&](double t) {
    setup.tick(t);
    yardstick.tick(t);
  });
  if (!o.trace) check_traced_equal(set->kinds[0], sweep_seed(o.seed, 0),
                                   loop.first, tally);
  check_threads1(*set, o, loop.first, tally);

  std::string physics;
  if (o.workload == "lora_per") physics = guard_lora(pool, tally);
  if (o.workload == "ble_ber") physics = guard_ble(pool, tally);
  if (o.workload == "coexist_impaired")
    physics = guard_coexist(*set, pool, tally);

  RunOutput out;
  Metrics& m = out.metrics;
  if (!o.trace) {
    put(m, "trials_per_s", static_cast<double>(loop.trials) / loop.wall_s,
        "1/s");
    put(m, "ops_per_s", static_cast<double>(loop.ops) / loop.wall_s, "1/s");
    put(m, "op_ms_p50", percentile(loop.op_ms, 0.5), "ms");
    put(m, "op_ms_p90", percentile(loop.op_ms, 0.9), "ms");
  } else {
    SweepTrace total;
    for (const SweepTrace& tr : loop.traces) total.add(tr);
    put_trace_metrics(m, total, o.threads);
    put(m, "trace.overhead", loop.traced_s / loop.untraced_s, "ratio");
    for (std::size_t k = 0; k < set->kinds.size(); ++k) {
      const SweepKind& kind = set->kinds[k];
      const auto& caps = loop.traces[k].captures;
      if (caps.empty()) continue;
      if (kind.pipe.tx->protocol() == phy::Protocol::kLora)
        probe_lora_stages(lora_demod(), caps, m);
      probe_calibration(*kind.calibrated_rx, *kind.raw_rx, caps, m);
    }
  }
  out.setup_s = setup.scaled_median();
  out.setup_raw_s = setup.raw_median();
  out.report = "\"samples\":{\"ops\":" + std::to_string(loop.op_ms.size()) +
               ",\"op_ms_p50\":" + std::to_string(loop.op_ms.size()) +
               ",\"op_ms_p90\":" + std::to_string(loop.op_ms.size()) +
               "},\"physics\":" + physics;
  return out;
}

RunOutput run_serve(const Options& o, Yardstick& yardstick, Tally& tally) {
  SetupSampler<ServerHost> setup{kServeSetupReps, o.seconds,
                                  [&] { return make_host(o); }, true};
  const std::unique_ptr<ServerHost> host = setup.first();
  JobStream stream{o.seed};
  const double seconds = o.trace ? o.seconds / 2 : o.seconds;
  const std::size_t min_jobs = o.trace ? JobStream::kCycle : kMinOps;
  ServeLoop loop = serve_loop(*host, stream, seconds, min_jobs, o.trace, tally,
                              [&](double t) {
                                setup.tick(t);
                                yardstick.tick(t);
                              });

  SweepTrace trace;
  std::vector<Capture> lora_captures;
  check_direct_job(loop, trace, lora_captures, tally);

  RunOutput out;
  Metrics& m = out.metrics;
  if (!o.trace) {
    put(m, "trials_per_s", static_cast<double>(loop.trials) / loop.wall_s,
        "1/s");
    put(m, "ops_per_s", static_cast<double>(loop.jobs) / loop.wall_s, "1/s");
    put(m, "op_ms_p50", percentile(loop.job_ms, 0.5), "ms");
    put(m, "op_ms_p90", percentile(loop.job_ms, 0.9), "ms");
  } else {
    put(m, "trace.overhead",
        (static_cast<double>(loop.untraced_jobs) / loop.untraced_wall_s) /
            (static_cast<double>(loop.traced_jobs) / loop.traced_wall_s),
        "ratio");
    put_serve_metrics(m, loop, o.threads);
    put_trace_metrics(m, trace, 1);
    if (!lora_captures.empty()) probe_lora_stages(lora_demod(), lora_captures, m);
  }
  out.setup_s = setup.scaled_median();
  out.setup_raw_s = setup.raw_median();
  out.report = "\"samples\":{\"ops\":" + std::to_string(loop.job_ms.size()) +
               ",\"op_ms_p50\":" + std::to_string(loop.job_ms.size()) +
               ",\"op_ms_p90\":" + std::to_string(loop.job_ms.size()) +
               "},\"serve\":{\"jobs\":" + std::to_string(loop.jobs) +
               ",\"cache_hit_ratio\":" +
               json_number(loop.hits / (loop.hits + loop.misses)) + "}";
  return out;
}

}  // namespace

std::span<const char* const> workload_names() { return kWorkloads; }

namespace {

/// Appends the registry entry's calibrated receiver around `raw` (built in
/// set-up, as the figure benches do for their ablations; the traced run
/// times it on the sweep's captures) and records both on `kind`.
void add_calibration(SweepSet& set, SweepKind& kind, phy::Protocol id) {
  const phy::RegisteredPhy& entry = phy::Registry::builtin().at(id);
  set.rxs.push_back(std::make_unique<phy::CalibratedRx>(
      *kind.pipe.rx, phy::default_calibration(entry)));
  kind.calibrated_rx = set.rxs.back().get();
  kind.raw_rx = kind.pipe.rx;
}

}  // namespace

std::unique_ptr<SweepSet> make_lora_per() {
  auto set = std::make_unique<SweepSet>();
  const phy::LoraPhyConfig cfg{};  // SF8/BW125, tinySDR TX, 13-bit DAC
  set->txs.push_back(std::make_unique<phy::LoraPacketTx>(cfg));
  set->rxs.push_back(std::make_unique<phy::LoraPacketRx>(cfg));
  Pipeline pipe;
  pipe.tx = set->txs[0].get();
  pipe.rx = set->rxs[0].get();
  pipe.plan.trials = 8;
  pipe.plan.fixed_payload = std::vector<std::uint8_t>{0xA5, 0x5A, 0x3C};
  pipe.plan.pad_samples = 300;
  pipe.plan.noise_figure_db = phy::kLoraSystemNf;
  set->kinds.push_back(make_kind("lora", pipe, grid(-130.0, -112.0, 2.0)));
  add_calibration(*set, set->kinds.back(), phy::Protocol::kLora);
  return set;
}

std::unique_ptr<SweepSet> make_ble_ber() {
  auto set = std::make_unique<SweepSet>();
  set->txs.push_back(std::make_unique<phy::BleBeaconTx>());
  set->rxs.push_back(std::make_unique<phy::BleBeaconRx>());
  Pipeline pipe;
  pipe.tx = set->txs[0].get();
  pipe.rx = set->rxs[0].get();
  pipe.plan.trials = 40;
  pipe.plan.fixed_payload = std::vector<std::uint8_t>{
      0x02, 0x01, 0x06, 0x0B, 0xFF, 0x4C, 0x00, 0x02, 0x15, 0xAA, 0xBB};
  pipe.plan.noise_figure_db = phy::kBleSystemNf;
  set->kinds.push_back(make_kind("ble", pipe, grid(-100.0, -55.0, 3.0)));
  add_calibration(*set, set->kinds.back(), phy::Protocol::kBle);
  return set;
}

std::unique_ptr<SweepSet> make_coexist_impaired() {
  struct Victim {
    phy::Protocol phy;
    double rssi_dbm;  ///< grid centre; the jammer sits 10 dB below it
    std::size_t trials;
    double cfo;
    dsp::Complex dc;
    double iq_gain_db;
    double iq_phase_deg;
  };
  // Front-end defects at the magnitudes bench_impairments pins: enough to
  // break the raw receiver, within reach of the calibrated one.
  static constexpr std::array<Victim, 3> kVictims = {{
      {phy::Protocol::kZigbee, -88.0, 12, 0.005, {0.3f, -0.2f}, 1.5, 8.0},
      {phy::Protocol::kSigfox, -120.0, 24, 0.03, {0.5f, -0.3f}, 2.0, 10.0},
      {phy::Protocol::kNbiot, -110.0, 16, 0.004, {0.3f, -0.2f}, 1.5, 8.0},
  }};
  auto set = std::make_unique<SweepSet>();
  const auto& registry = phy::Registry::builtin();
  set->jammers.push_back(std::make_unique<tinysdr::adversary::PulsedJammer>(
      tinysdr::adversary::PulsedJammerConfig{2048, 0.25}));
  for (const Victim& v : kVictims) {
    const phy::RegisteredPhy& entry = registry.at(v.phy);
    set->txs.push_back(entry.make_tx());
    set->rxs.push_back(entry.make_rx());
    const phy::PhyRx* raw = set->rxs.back().get();
    set->rxs.push_back(std::make_unique<phy::CalibratedRx>(
        *raw, phy::default_calibration(entry)));
    const phy::PhyRx* cal = set->rxs.back().get();

    auto block = [&](auto impairment) {
      set->blocks.push_back(
          std::make_unique<decltype(impairment)>(std::move(impairment)));
      return set->blocks.back().get();
    };
    Pipeline pipe;
    pipe.tx = set->txs.back().get();
    pipe.rx = cal;
    pipe.plan.trials = v.trials;
    pipe.plan.payload_bytes = 12;
    pipe.plan.pad_samples = entry.pad_samples;
    pipe.plan.noise_figure_db = entry.system_noise_figure_db;
    pipe.jammers.push_back({set->jammers[0].get(), Dbm{v.rssi_dbm - 10.0}});
    pipe.chain = {
        {block(impair::PaClip{1.5}), impair::Stage::kTx},
        {block(impair::IqImbalance{v.iq_gain_db, v.iq_phase_deg}),
         impair::Stage::kTx},
        {block(impair::CfoDrift{v.cfo}), impair::Stage::kRx},
        {block(impair::PhaseNoise{0.002}), impair::Stage::kRx},
        {block(impair::DcOffset{v.dc}), impair::Stage::kRx},
    };
    const auto g = grid(v.rssi_dbm - 6.0, v.rssi_dbm + 3.0, 3.0);
    set->kinds.push_back(make_kind(entry.name + ".calibrated", pipe, g));
    set->kinds.back().calibrated_rx = cal;
    set->kinds.back().raw_rx = raw;
    pipe.rx = raw;
    set->kinds.push_back(make_kind(entry.name + ".raw", pipe, g));
  }
  return set;
}

void check_traced_equal(const SweepKind& kind, std::uint64_t base_seed,
                        std::span<const phy::PointResult> untraced,
                        Tally& tally) {
  SweepTrace scratch;
  const auto traced = traced_sweep(kind.pipe, base_seed, kind.points,
                                   ExecPolicy::serial(), scratch);
  tally.record(points_equal(traced, untraced),
               kind.label + ": traced replay differs from LinkSimulator::sweep");
}

int run_workload(const Options& o) {
  const auto names = workload_names();
  if (std::find_if(names.begin(), names.end(), [&](const char* n) {
        return o.workload == n;
      }) == names.end()) {
    std::cerr << "perfbench: unknown workload '" << o.workload << "'\n";
    return 2;
  }
  std::filesystem::create_directories(o.scratch);

  Tally tally;
  RunOutput out;
  Yardstick yardstick{o.threads, kYardstickIntervalS};
  std::string kernels = "null";
  std::string raw = "null";
  try {
    if (o.workload == "serve_campaigns") {
      out = run_serve(o, yardstick, tally);
    } else {
      const auto make = o.workload == "lora_per" ? make_lora_per
                        : o.workload == "ble_ber" ? make_ble_ber
                                                  : make_coexist_impaired;
      out = run_sweeps(o, make, yardstick, tally);
    }
    Metrics& m = out.metrics;
    if (o.trace) {
      if (!m.count("lora.sync.ns_per_trial")) probe_lora_pass(o, m);
      if (!m.count("adversary.emit.ns_per_trial")) probe_coexist_pass(o, m);
      if (!m.count("serve.submit_us")) probe_serve_pass(o, m, tally);
      kernels = probe_kernels(o.seed, m);
    } else {
      put(m, "setup_s", out.setup_raw_s, "s");
      put(m, "peak_rss_mb", peak_rss_mb(), "MB");
      put(m, "ok_ratio", 1.0 - tally.failed_ratio(), "ratio");
    }
    raw = metrics_json(m);
    scale_to_nominal(m, yardstick.median_ms());
    if (!o.trace) m["setup_s"].value = out.setup_s;  // scaled per repetition
  } catch (const std::exception& e) {
    tally.fail(std::string("run aborted: ") + e.what());
  }
  std::error_code ignored;
  std::filesystem::remove_all(o.scratch, ignored);

  std::ostringstream report;
  report << "{\"schema\":\"tinysdr-perfbench-v1\",\"workload\":"
         << json_quote(o.workload) << ",\"seed\":" << o.seed
         << ",\"trace\":" << (o.trace ? 1 : 0) << ",\"config\":{\"threads\":"
         << o.threads << ",\"seconds\":" << json_number(o.seconds)
         << ",\"setup_reps\":"
         << (o.workload == "serve_campaigns" ? kServeSetupReps
                                              : kSweepSetupReps)
         << "},\"fingerprint\":" << fingerprint_json() << ","
         << (out.report.empty() ? "\"samples\":null" : out.report)
         << ",\"yardstick_ms\":" << json_number(yardstick.median_ms())
         << ",\"raw_metrics\":" << raw << ",\"kernels\":" << kernels
         << ",\"failures\":[";
  for (std::size_t i = 0; i < tally.failures().size(); ++i)
    report << (i > 0 ? "," : "") << json_quote(tally.failures()[i]);
  report << "],\"failed_ratio\":" << json_number(tally.failed_ratio()) << "}";
  std::cout << report.str() << "\n"
            << result_line(tally.failed() == 0, tally, out.metrics)
            << std::endl;
  return 0;
}

}  // namespace perfbench
