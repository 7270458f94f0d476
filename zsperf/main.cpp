// zsperf — the benchmark's binary.
//
//   zsperf generate --workload W --seed N [--cache DIR]
//       simulates (or finds cached) the workload's seeded inputs
//   zsperf run --workload W --seed N --seconds S --trace 0|1
//              [--cache DIR] [--out DIR]
//       runs the workload on cached inputs; prints one line per metric
//       and, as the last line, the JSON result. Exits 1 when the
//       oracle fails.
//
// run.py builds this binary and calls both subcommands.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: zsperf generate --workload W --seed N [--cache DIR]\n"
               "       zsperf run --workload W --seed N --seconds S --trace 0|1 "
               "[--cache DIR] [--out DIR]\n");
  std::exit(2);
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  zsperf::RunOptions options;
  bool have_seed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (arg == "--workload") options.workload = value;
    else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") options.seconds = std::atof(value.c_str());
    else if (arg == "--trace") options.trace = value == "1";
    else if (arg == "--cache") options.cache_dir = value;
    else if (arg == "--out") options.out_dir = value;
    else usage();
  }
  if (!have_seed || options.workload.empty() || options.seconds <= 0) usage();
  try {
    if (command == "generate") {
      const auto paths = zsperf::ensure_input(
          options.cache_dir, zsperf::input_for(options.workload), options.seed);
      const auto meta = zsperf::read_meta(paths.meta);
      std::fprintf(stderr,
                   "[zsperf] inputs %s: %llu records, %zu beacon events, digest %016llx "
                   "(simulated in %.1f s)\n",
                   paths.archive.c_str(), static_cast<unsigned long long>(meta.records),
                   meta.events.size(), static_cast<unsigned long long>(meta.digest),
                   meta.generate_seconds);
      return 0;
    }
    if (command != "run") usage();
    const zsperf::RunReport report = zsperf::run_workload(options);
    for (const auto& m : report.metrics)
      std::printf("%-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    for (const auto& m : report.printed)
      std::printf("%-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("%-34s %18.6f ratio\n", "fail_ratio",
                zsperf::fail_ratio(report.attempted, report.failed, report.correct));
    std::string json = std::string("{\"correct\": ") + (report.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
      const auto& m = report.metrics[i];
      if (i > 0) json += ", ";
      json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
              m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    if (!report.correct) {
      std::fprintf(stderr, "[zsperf] oracle failed: %s\n", report.detail.c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[zsperf] error: %s\n", e.what());
    return 1;
  }
}
