// perfbench: measures one workload of the simulator and prints a report
// line and the result line (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>]
#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--scratch <dir>]\nworkloads:";
  for (const char* name : perfbench::workload_names()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

bool parse_uint(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  o.scratch = ".bench_build/perfbench-scratch-" + std::to_string(::getpid());
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed" && parse_uint(value, n)) {
      o.seed = n;
    } else if (arg == "--seconds" && parse_uint(value, n) && n > 0) {
      o.seconds = static_cast<double>(n);
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      o.trace = value == "1";
    } else if (arg == "--scratch" && !value.empty()) {
      o.scratch = value;
    } else {
      return usage();
    }
  }
  if (o.workload.empty()) return usage();
  return perfbench::run_workload(o);
}
