#include "report.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {
#if defined(__clang__)
constexpr const char* kCompiler = "clang " __VERSION__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif
}  // namespace

using tinysdr::obs::json_number;
using tinysdr::obs::json_quote;

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

bool percentile_supported(std::size_t n, double q) {
  // Rounded so that 100 * (1 - 0.9) counts as the 10 it is.
  return std::round(static_cast<double>(n) * (1.0 - q) * 1e6) >= 10.0 * 1e6;
}

std::size_t min_samples_for(double q) {
  std::size_t n = 1;
  while (!percentile_supported(n, q)) ++n;
  return n;
}

void Tally::record(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what);
}

double Tally::failed_ratio() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

void put(Metrics& m, const std::string& name, double value,
         const std::string& unit) {
  m.emplace(name, Metric{value, unit});
}

std::string metrics_json(const Metrics& metrics) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out << ",";
    first = false;
    out << json_quote(name) << ":{\"value\":" << json_number(m.value)
        << ",\"unit\":" << json_quote(m.unit) << "}";
  }
  out << "}";
  return out.str();
}

std::string result_line(bool correct, const Tally& tally,
                        const Metrics& metrics) {
  std::ostringstream out;
  out << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << tally.attempted()
      << ",\"failed\":" << tally.failed()
      << ",\"metrics\":" << metrics_json(metrics) << "}";
  return out.str();
}

std::string fingerprint_json() {
  std::string model = "unknown";
  std::ifstream cpuinfo{"/proc/cpuinfo"};
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
      }
      break;
    }
  }
  std::ostringstream out;
  out << "{\"cores\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":" << json_quote(model)
      << ",\"compiler\":" << json_quote(kCompiler)
      << ",\"build_type\":" << json_quote(PERFBENCH_BUILD_TYPE) << "}";
  return out.str();
}

double peak_rss_mb() {
  // VmHWM, not getrusage(): ru_maxrss also counts the memory of the parent
  // this process was forked from before it exec'd.
  std::ifstream status{"/proc/self/status"};
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
