#include "serve_client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "exec/seed.hpp"
#include "obs/json.hpp"
#include "phy/registry.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Blocking line client over one Unix-socket connection.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool connect(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    return fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                 sizeof(addr)) == 0;
  }

  bool send_line(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool read_line(std::string& line) {
    for (;;) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        line.assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::optional<tinysdr::obs::JsonValue> request(LineClient& client,
                                               const std::string& line) {
  std::string reply;
  if (!client.send_line(line) || !client.read_line(reply)) return std::nullopt;
  return tinysdr::obs::JsonValue::parse(reply);
}

serve::EngineConfig engine_config(const tinysdr::exec::ExecPolicy& policy) {
  serve::EngineConfig config;  // journals off
  config.policy = policy;
  return config;
}

bool reply_ok(const tinysdr::obs::JsonValue& doc) {
  return doc.bool_or("ok", false);
}

}  // namespace

ServerHost::ServerHost(std::string socket_path,
                       const tinysdr::exec::ExecPolicy& policy)
    : socket_(std::move(socket_path)),
      engine_(tinysdr::phy::Registry::builtin(), engine_config(policy)),
      server_(engine_, serve::ServerConfig{.unix_socket = socket_}) {
  std::string error;
  if (!server_.start(error)) throw std::runtime_error("serve: " + error);
  thread_ = std::thread([this] { server_.serve_forever(); });
}

ServerHost::~ServerHost() {
  server_.stop();
  thread_.join();
}

JobOutcome run_job(const std::string& socket_path,
                   const std::string& job_json) {
  JobOutcome out;
  LineClient client;
  if (!client.connect(socket_path)) {
    out.error = "socket: connect failed: " + std::string(std::strerror(errno));
    return out;
  }
  const auto t0 = Clock::now();
  auto submitted =
      request(client, "{\"type\":\"submit\",\"job\":" + job_json + "}");
  const auto t1 = Clock::now();
  if (!submitted) {
    out.error = "socket: submit lost";
    return out;
  }
  if (!reply_ok(*submitted)) {
    out.error = "refused: " + std::string(submitted->string_or("error", "?"));
    return out;
  }
  out.id = static_cast<std::uint64_t>(submitted->number_or("id", 0.0));
  const std::string id = std::to_string(out.id);

  const std::string status_line = "{\"type\":\"status\",\"id\":" + id + "}";
  for (;;) {
    auto status = request(client, status_line);
    if (!status || !reply_ok(*status)) {
      out.error = "socket: status lost";
      return out;
    }
    const std::string_view state = status->string_or("state", "");
    if (state == "done") break;
    if (state == "failed") {
      out.error = "job failed: " + std::string(status->string_or("error", "?"));
      return out;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto t2 = Clock::now();

  std::string header;
  if (!client.send_line("{\"type\":\"result\",\"id\":" + id + "}") ||
      !client.read_line(header) || !client.read_line(out.result)) {
    out.error = "socket: result lost";
    return out;
  }
  const auto t3 = Clock::now();
  auto head = tinysdr::obs::JsonValue::parse(header);
  if (!head || !reply_ok(*head)) {
    out.error = "result refused: " + header;
    return out;
  }
  out.timing.submit_us = us_between(t0, t1);
  out.timing.result_us = us_between(t2, t3);
  out.timing.total_us = us_between(t0, t3);
  out.ok = true;
  return out;
}

JobStream::JobStream(std::uint64_t seed)
    : rng_(seed, 0x5e),
      templates_{{tinysdr::phy::Protocol::kLora, -126.0, -110.0, 8, 8},
                 {tinysdr::phy::Protocol::kBle, -100.0, -80.0, 60, 12},
                 {tinysdr::phy::Protocol::kZigbee, -100.0, -85.0, 30, 12}} {
  for (std::size_t t = 0; t < templates_.size(); ++t) {
    seeds_.emplace_back();
    used_.emplace_back(kSeedsPerTemplate);
    for (std::size_t k = 0; k < kSeedsPerTemplate; ++k)
      // Job seeds ride in JSON numbers: keep them exact below 2^53.
      seeds_[t].push_back(tinysdr::exec::stream_seed(seed, 16 * t + k) >> 12);
  }
}

double JobStream::fresh_rssi(std::size_t tmpl, std::size_t seed_index) {
  const Template& t = templates_[tmpl];
  auto& used = used_[tmpl][seed_index];
  // 0.01 dB steps: a point is new when its (seed, rssi) was never sent.
  const auto steps =
      static_cast<std::uint32_t>(std::lround((t.rssi_hi - t.rssi_lo) * 100.0));
  for (;;) {
    const double rssi =
        t.rssi_lo + static_cast<double>(rng_.next_below(steps + 1)) / 100.0;
    if (std::find(used.begin(), used.end(), rssi) == used.end()) {
      used.push_back(rssi);
      return rssi;
    }
  }
}

serve::SweepSpec JobStream::sweep_spec(std::size_t tmpl,
                                       std::size_t seed_index) const {
  serve::SweepSpec sweep;
  sweep.phy = templates_[tmpl].phy;
  sweep.trials = templates_[tmpl].trials;
  sweep.payload_bytes = templates_[tmpl].payload_bytes;
  sweep.base_seed = seeds_[tmpl][seed_index];
  return sweep;
}

StreamJob JobStream::finish(serve::JobSpec spec, std::uint64_t trials) const {
  StreamJob job;
  job.text = spec.canonical_json();
  job.spec = std::move(spec);
  job.trials_computed = trials;
  return job;
}

StreamJob JobStream::priming() {
  serve::JobSpec spec;
  spec.name = "priming";
  std::uint64_t trials = 0;
  for (std::size_t t = 0; t < templates_.size(); ++t) {
    for (std::size_t k = 0; k < kSeedsPerTemplate; ++k) {
      serve::SweepSpec sweep = sweep_spec(t, k);
      for (int i = 0; i < 3; ++i) sweep.rssi_dbm.push_back(fresh_rssi(t, k));
      trials += 3 * templates_[t].trials;
      spec.sweeps.push_back(std::move(sweep));
    }
  }
  return finish(std::move(spec), trials);
}

StreamJob JobStream::next() {
  const std::size_t index = next_index_++;
  const std::size_t position = index % kCycle;
  if (position == kCycle - 1) {
    StreamJob repeat = to_repeat_;
    repeat.repeat_of = index - 2;
    repeat.trials_computed = 0;  // every point is cached, no fleet
    return repeat;
  }

  serve::JobSpec spec;
  spec.name = "campaign-" + std::to_string(index);
  std::uint64_t trials = 0;
  for (std::size_t t = 0; t < templates_.size(); ++t) {
    const auto k = rng_.next_below(kSeedsPerTemplate);
    serve::SweepSpec sweep = sweep_spec(t, k);
    // Three distinct earlier points of this (template, seed), two new.
    std::vector<double> earlier = used_[t][k];
    for (int i = 0; i < 3; ++i) {
      const auto pick =
          rng_.next_below(static_cast<std::uint32_t>(earlier.size()));
      sweep.rssi_dbm.push_back(earlier[pick]);
      earlier.erase(earlier.begin() + pick);
    }
    for (int i = 0; i < 2; ++i) sweep.rssi_dbm.push_back(fresh_rssi(t, k));
    std::sort(sweep.rssi_dbm.begin(), sweep.rssi_dbm.end());
    trials += 2 * templates_[t].trials;
    spec.sweeps.push_back(std::move(sweep));
  }
  if (position == 0) {
    serve::FleetSpec fleet;
    fleet.nodes = 8;
    fleet.trials_per_node = 8;
    fleet.payload_bytes = 8;
    fleet.base_seed = rng_.next_u32();
    fleet.deployment_seed = rng_.next_u32();
    trials += fleet.nodes * fleet.trials_per_node;
    spec.fleets.push_back(fleet);
  }
  StreamJob job = finish(std::move(spec), trials);
  if (position == 1) to_repeat_ = job;
  return job;
}

}  // namespace perfbench
