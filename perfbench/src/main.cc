// mixbench: the single end-to-end benchmark of the MIX mediator stack.
//
//   mixbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// perfbench/run.py builds this binary and runs it. Each workload's settings
// are constants in its own source file.
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.h"

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.seconds <= 0) {
    std::cerr << "usage: mixbench --workload <name> --seed <n> --seconds <s>"
                 " --trace <0|1>\n";
    return 2;
  }
  return perfbench::RunBenchmark(options);
}
