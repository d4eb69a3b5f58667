// frapp_perfbench: runs one workload of the repo benchmark and prints its
// result as the last line of standard output (see README.md).
//
//   frapp_perfbench --workload mine_census --seed 1 --seconds 25 --trace 0
//                   [--work-dir .bench_work]

#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads_common.h"

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (!have_workload || argc % 2 == 0 || !(options.seconds > 0.0)) {
    std::cerr << "usage: frapp_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n";
    return 2;
  }
  return perfbench::RunBenchmark(options);
}
