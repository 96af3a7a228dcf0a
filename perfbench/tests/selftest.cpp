// Self-test of the benchmark's own contract: the output checker rejects
// hand-made bad schedules, the percentile helper reports its sample count
// and the highest percentile with at least ten samples beyond it, and the
// metric names the benchmark prints match BENCHMARK.json.
//
//   perfbench_selftest <path to BENCHMARK.json>

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/json.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::cerr << "FAIL: " << what << '\n';
}

using perfbench::Placement;

std::vector<Placement> good_schedule() {
  // Two members of 4 and 2 nodes; job = {id, member, nodes, submit, start,
  // end, runtime, completed}.
  return {
      {0, 0, 4, 0, 0, 10, 10, true},
      {1, 0, 2, 0, 10, 15, 5, true},
      {2, 0, 2, 5, 10, 20, 10, true},
      {3, 1, 2, 0, 3, 9, 6, true},
  };
}

void test_checker() {
  const std::vector<int> capacity = {4, 2};
  const auto check = [&](const std::vector<Placement>& p) {
    return perfbench::check_schedule(p, capacity, 4);
  };
  expect(check(good_schedule()).ok(), "a valid schedule passes");

  auto over = good_schedule();
  over[1].start = 5;  // overlaps job 0's four nodes
  over[1].end = 10;
  expect(!check(over).ok(), "over-capacity schedule is rejected");
  expect(check(over).first_error.find("over capacity") != std::string::npos,
         "over-capacity error names the rule");

  auto early = good_schedule();
  early[2].submit = 12;  // starts at 10
  expect(!check(early).ok(), "start before submit is rejected");

  auto dup = good_schedule();
  dup.push_back(dup[3]);
  expect(!check(dup).ok(), "a job placed twice is rejected");

  auto missing = good_schedule();
  missing.pop_back();
  expect(!check(missing).ok(), "a missing job is rejected");

  auto wrong_runtime = good_schedule();
  wrong_runtime[0].end = 11;
  expect(!check(wrong_runtime).ok(), "end - start != runtime is rejected");

  auto unfinished = good_schedule();
  unfinished[3].completed = false;
  expect(!check(unfinished).ok(), "an uncompleted job is rejected");

  expect(perfbench::schedule_digest(good_schedule()) !=
             perfbench::schedule_digest(over),
         "the digest sees a moved start");
}

void test_quantiles() {
  const auto ramp = [](std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
    return v;
  };
  const perfbench::Quantiles q1000 = perfbench::quantiles(ramp(1000));
  expect(q1000.n == 1000, "sample count is reported");
  expect(q1000.tail_q == 0.99, "p99 is reported with 10 samples beyond it");
  expect(q1000.tail == 990.0, "nearest-rank p99 of 1..1000 is 990");
  expect(q1000.p50 == 500.5, "median of 1..1000 is 500.5");

  const perfbench::Quantiles q999 = perfbench::quantiles(ramp(999));
  expect(q999.tail_q == 0.95, "999 samples fall back to p95");

  const perfbench::Quantiles q20 = perfbench::quantiles(ramp(20));
  expect(q20.tail_q == 0.5, "20 samples report only the median");

  const perfbench::Quantiles q10k = perfbench::quantiles(ramp(10000), 0.999);
  expect(q10k.tail_q == 0.999, "10000 samples allow p99.9 when asked");

  const perfbench::Quantiles empty = perfbench::quantiles({});
  expect(empty.n == 0 && empty.p50 == 0.0, "empty sample reports n = 0");
}

void test_catalog(const std::string& path) {
  std::ifstream in(path);
  expect(in.good(), "BENCHMARK.json is readable at " + path);
  if (!in.good()) return;
  std::stringstream text;
  text << in.rdbuf();
  const sbs::obs::JsonValue doc = sbs::obs::parse_json(text.str());
  const auto compare = [&](const char* key,
                           std::span<const perfbench::MetricDef> printed) {
    const sbs::obs::JsonValue* list = doc.find(key);
    expect(list != nullptr && list->is_array(), std::string(key) + " is a list");
    if (list == nullptr || !list->is_array()) return;
    expect(list->array.size() == printed.size(),
           std::string(key) + " has as many metrics as the benchmark prints");
    for (std::size_t i = 0; i < std::min(list->array.size(), printed.size()); ++i) {
      const std::string name = list->array[i].find("name")->as_string();
      const std::string unit = list->array[i].find("unit")->as_string();
      expect(name == printed[i].name,
             std::string(key) + "[" + std::to_string(i) + "] is " + name +
                 " but the benchmark prints " + std::string(printed[i].name));
      expect(unit == printed[i].unit, name + " has unit " + unit +
                                          " but the benchmark prints " +
                                          std::string(printed[i].unit));
    }
  };
  compare("end_to_end", perfbench::end_to_end_metrics());
  compare("per_layer", perfbench::per_layer_metrics());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: perfbench_selftest <BENCHMARK.json>\n";
    return 2;
  }
  test_checker();
  test_quantiles();
  test_catalog(argv[1]);
  if (g_failures > 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-test: all checks passed\n";
  return 0;
}
