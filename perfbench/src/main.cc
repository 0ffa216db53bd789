// perfbench: the crew benchmark binary. perfbench/run.py builds and runs
// it; see perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload grid-mlp --seed 1 --seconds 20 --trace 0
//             --workdir DIR
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "crew/common/thread_pool.h"
#include "crew/eval/runner.h"
#include "support.h"

namespace {

// Scoring threads: fixed, and never more than the machine has.
constexpr unsigned kScoringThreads = 4;

bool ParseArgs(int argc, char** argv, perfbench::Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (!(options->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (key == "--workdir") {
      options->workdir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !options->workload.empty() &&
         !options->workdir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n");
    return 2;
  }
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  crew::SetScoringThreads(static_cast<int>(std::min(kScoringThreads,
                                                    hardware)));
  crew::SetProgressInterval(0.0);
  perfbench::Report report;
  const crew::Status status = perfbench::RunWorkload(options, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  report.Print();
  return 0;
}
