// perfbench: end-to-end and per-layer benchmark of sbsched.
//
//   perfbench --workload <month-deep|fed-ops|serve-open> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir> [--commit <id>]
//
// Prints a metric table, one detail line (provenance, sample counts, bases,
// layers not exercised) and, last, one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
// --trace 1 the per-layer ones. Exits 1 without a result on any error.

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "obs/json.hpp"

#ifndef PERFBENCH_SBSCHED
#define PERFBENCH_SBSCHED "sbsched"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <month-deep|fed-ops|serve-open> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
               "[--commit <id>]\n";
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string provenance(const Options& opt, const std::string& commit) {
  sbs::obs::JsonWriter w;
  w.begin_object()
      .field("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .field("cpu_model", cpu_model())
      .field("compiler", std::string("g++ ") + __VERSION__)
      .field("cxx_flags", PERFBENCH_CXX_FLAGS)
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("commit", commit)
      .field("workload", opt.workload)
      .field("seed", static_cast<std::uint64_t>(opt.seed))
      .field("seconds", opt.seconds)
      .field("trace", opt.trace)
      .end_object();
  return w.str();
}

int run(int argc, char** argv) {
  Options opt;
  opt.sbsched_path = PERFBENCH_SBSCHED;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (key == "--work-dir") {
        opt.work_dir = value;
      } else if (key == "--commit") {
        commit = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("malformed value for " + key);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (opt.work_dir.empty()) usage("--work-dir is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  const double calibration_start_ms = host_calibration_ms();
  RunResult rr;
  if (opt.workload == "month-deep") {
    rr = run_month_deep(opt);
  } else if (opt.workload == "fed-ops") {
    rr = run_fed_ops(opt);
  } else if (opt.workload == "serve-open") {
    rr = run_serve_open(opt);
  } else {
    usage("unknown workload " + opt.workload);
  }

  const std::span<const MetricDef> catalog =
      opt.trace ? per_layer_metrics() : end_to_end_metrics();
  sbs::obs::JsonWriter metrics;
  metrics.begin_object();
  std::cout << std::left << std::setw(32) << "metric" << std::setw(20) << "value"
            << "unit\n";
  for (const MetricDef& d : catalog) {
    const auto it = rr.metrics.find(std::string(d.name));
    const double v = it == rr.metrics.end() ? 0.0 : it->second;
    std::cout << std::setw(32) << d.name << std::setw(20) << v << d.unit << '\n';
    metrics.key(d.name).begin_object().field("value", v).field("unit", d.unit).end_object();
  }
  metrics.end_object();

  rr.note("host_calibration_ms_start", calibration_start_ms);
  rr.note("host_calibration_ms_end", host_calibration_ms());
  rr.note("ops_attempted", static_cast<double>(rr.attempted));
  rr.note("ops_failed", static_cast<double>(rr.failed));
  rr.note("ops_failed_frac", rr.attempted ? static_cast<double>(rr.failed) /
                                                static_cast<double>(rr.attempted)
                                          : 0.0);
  const auto json_list = [](const std::vector<std::string>& items) {
    sbs::obs::JsonWriter w;
    w.begin_array();
    for (const std::string& i : items) w.value(i);
    w.end_array();
    return w.str();
  };
  rr.detail["not_exercised"] = json_list(rr.not_exercised);
  rr.detail["errors"] = json_list(rr.errors);
  std::string detail = "{\"provenance\":" + provenance(opt, commit);
  for (const auto& [key, value] : rr.detail) {
    sbs::obs::JsonWriter k;
    k.value(key);
    detail += "," + k.str() + ":" + value;
  }
  std::cout << "detail " << detail << "}\n";

  sbs::obs::JsonWriter result;
  result.begin_object()
      .field("correct", rr.correct && rr.failed == 0)
      .field("attempted", std::max<std::uint64_t>(rr.attempted, 1))
      .field("failed", rr.failed);
  // The writer has no raw-value call, so the metrics object is appended.
  std::cout << result.str() << ",\"metrics\":" << metrics.str() << "}\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << '\n';
    return 1;
  }
}
