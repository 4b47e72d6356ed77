// The serve_campaigns side: an in-process campaign server on a Unix
// socket, a client that speaks the NDJSON protocol the way
// `tinysdr_submit --wait` does, and the seeded job stream it sends.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "serve/engine.hpp"
#include "serve/job.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace serve = tinysdr::serve;

/// serve::Engine + serve::Server (journals off) listening on a Unix socket,
/// with serve_forever() on its own thread.
class ServerHost {
 public:
  /// @throws std::runtime_error when the server cannot start.
  ServerHost(std::string socket_path, const tinysdr::exec::ExecPolicy& policy);
  ~ServerHost();

  ServerHost(const ServerHost&) = delete;
  ServerHost& operator=(const ServerHost&) = delete;

  [[nodiscard]] const std::string& socket_path() const { return socket_; }
  [[nodiscard]] serve::Engine& engine() { return engine_; }

 private:
  std::string socket_;
  serve::Engine engine_;
  serve::Server server_;
  std::thread thread_;  ///< runs serve_forever(); joined in the destructor
};

/// Client-side spans of one job, in microseconds.
struct JobTiming {
  double submit_us = 0.0;  ///< submit request round trip
  double result_us = 0.0;  ///< result request to its last byte
  double total_us = 0.0;   ///< submit sent to the last result byte
};

struct JobOutcome {
  bool ok = false;
  std::string error;   ///< why it failed: refused, failed, socket error
  std::uint64_t id = 0;
  std::string result;  ///< the tinysdr-result-v1 line, verbatim
  JobTiming timing;
};

/// Connect, submit `job_json`, poll `status` every millisecond until the
/// job is done, fetch its result, hang up.
[[nodiscard]] JobOutcome run_job(const std::string& socket_path,
                                 const std::string& job_json);

/// One job of the stream. Jobs come in cycles of four: three new jobs,
/// the first of which carries a fleet campaign, then an exact resubmission
/// of the cycle's second job.
struct StreamJob {
  serve::JobSpec spec;
  std::string text;                     ///< canonical tinysdr-job-v1
  std::optional<std::size_t> repeat_of; ///< stream index it resubmits
  std::uint64_t trials_computed = 0;    ///< trials the server must run
};

/// Seeded job generator. Each new job has one LoRa, one BLE and one Zigbee
/// sweep of five points: three repeat points of earlier jobs (cache hits)
/// and two are new. A priming job sent before the measured jobs makes
/// every repeat available from the first job on, so the measured hit
/// ratio is fixed at (3 * 3/5 + 1) / 4 = 0.7 for any seed.
class JobStream {
 public:
  static constexpr std::size_t kCycle = 4;

  explicit JobStream(std::uint64_t seed);

  /// Three new points for every (sweep template, base seed) pair.
  [[nodiscard]] StreamJob priming();
  [[nodiscard]] StreamJob next();

 private:
  struct Template {
    tinysdr::phy::Protocol phy;
    double rssi_lo;
    double rssi_hi;
    std::size_t trials;
    std::size_t payload_bytes;
  };
  static constexpr std::size_t kSeedsPerTemplate = 4;

  double fresh_rssi(std::size_t tmpl, std::size_t seed_index);
  serve::SweepSpec sweep_spec(std::size_t tmpl, std::size_t seed_index) const;
  StreamJob finish(serve::JobSpec spec, std::uint64_t trials) const;

  tinysdr::Rng rng_;
  std::vector<Template> templates_;
  std::vector<std::vector<std::uint64_t>> seeds_;  ///< [template][k]
  std::vector<std::vector<std::vector<double>>> used_;  ///< [template][k]
  std::size_t next_index_ = 0;
  StreamJob to_repeat_;  ///< this cycle's second job
};

}  // namespace perfbench
