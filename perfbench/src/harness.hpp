#pragma once
// Shared pieces of the end-to-end benchmark: the metric catalog, the
// percentile helper, the schedule checker and digest, the in-memory span
// recorder, and the run result every workload returns. Everything here is
// benchmark code; it reaches the scheduler only through public calls.

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.hpp"

namespace perfbench {

using sbs::Time;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t t0_ns, std::int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) * 1e-9;
}

// --------------------------------------------------------------------------
// Metric catalog

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// Metrics printed by an untraced run (--trace 0), in BENCHMARK.json order.
std::span<const MetricDef> end_to_end_metrics();
/// Metrics printed by a traced run (--trace 1), in BENCHMARK.json order.
std::span<const MetricDef> per_layer_metrics();

// --------------------------------------------------------------------------
// Percentiles

/// Summary of one timing sample set: the sample count, the median, and the
/// requested tail percentile clamped to the highest percentile that still
/// has at least `kTailSamples` samples beyond it.
struct Quantiles {
  static constexpr std::size_t kTailSamples = 10;
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;     ///< value at percentile tail_q
  double tail_q = 0.0;   ///< percentile actually reported (0.99 when n allows)
};

/// Nearest-rank percentile of an unsorted sample; 0 for an empty sample.
double percentile(std::vector<double> v, double q);

/// Median and the tail percentile `want_q`, lowered along the ladder
/// 0.999, 0.99, 0.95, 0.9, 0.75, 0.5 until at least kTailSamples samples
/// lie beyond it. Empty input yields n = 0 and zeros.
Quantiles quantiles(const std::vector<double>& v, double want_q = 0.99);

double median(std::vector<double> v);

// --------------------------------------------------------------------------
// Output checks

/// One job's final placement, as the checker sees it.
struct Placement {
  int job = 0;
  int member = 0;  ///< cluster index (0 on a single machine)
  int nodes = 0;
  Time submit = 0;
  Time start = 0;
  Time end = 0;
  Time runtime = 0;  ///< the job's actual runtime
  bool completed = true;
};

struct CheckReport {
  std::size_t checked = 0;
  std::size_t failed = 0;   ///< jobs that broke at least one rule
  std::string first_error;  ///< empty when failed == 0
  bool ok() const { return failed == 0; }
};

/// Checks a finished schedule: every job id in [0, expected_jobs) appears
/// exactly once and completed; start >= submit; end - start == runtime;
/// and on every member the nodes in use never exceed `capacity[member]`.
CheckReport check_schedule(std::span<const Placement> placements,
                           std::span<const int> capacity,
                           std::size_t expected_jobs);

/// Order-independent FNV-1a digest of (job, member, start, end).
std::uint64_t schedule_digest(std::span<const Placement> placements);

/// A digest as 16 hex digits.
std::string hex(std::uint64_t v);

// --------------------------------------------------------------------------
// Spans

struct Span {
  std::string_view name;  ///< static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;        ///< index into the recorder, -1 = root
  std::int64_t id = -1;   ///< request id shared by one request's spans
};

/// Keeps spans in memory; written out once, when the run ends.
class SpanRecorder {
 public:
  int begin(std::string_view name, int parent = -1, std::int64_t id = -1);
  void end(int span);
  /// Records a span whose bounds are already known.
  int add(std::string_view name, std::int64_t start_ns, std::int64_t end_ns,
          int parent = -1, std::int64_t id = -1);
  const std::vector<Span>& spans() const { return spans_; }
  /// Summed self time of spans named `name`: duration minus the time their
  /// direct children cover (children never overlap here: one thread).
  double self_s(std::string_view name) const;
  /// Writes the first `max_spans` spans as a JSON array; returns how many.
  std::size_t write_json(const std::string& path, std::size_t max_spans) const;

 private:
  std::vector<Span> spans_;
};

// --------------------------------------------------------------------------
// Results

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;  ///< by catalog name
  /// Catalog metrics this workload does not exercise; printed as 0 and
  /// listed in the detail line.
  std::vector<std::string> not_exercised;
  /// Free-form provenance and sample-count notes for the detail line,
  /// already JSON-encoded values keyed by name.
  std::map<std::string, std::string> detail;
  std::vector<std::string> errors;

  void fail(std::string why);
  void note(const std::string& key, double v);
  void note(const std::string& key, const std::string& s);
  /// Records a timing sample set as "<key>": {n, p50, tail, tail_q}.
  void note(const std::string& key, const Quantiles& q);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;      ///< scratch files (inputs, telemetry, checkpoints)
  std::string sbsched_path;  ///< the `sbsched` binary for serve-open
};

/// Writes a traced run's spans to <work dir>/spans-<workload>.json, capped
/// at kMaxSpansWritten (the metrics use every span), and notes the file.
void save_spans(const SpanRecorder& spans, const Options& opt, RunResult& rr);
inline constexpr std::size_t kMaxSpansWritten = 100000;

RunResult run_month_deep(const Options& opt);
RunResult run_fed_ops(const Options& opt);
RunResult run_serve_open(const Options& opt);

/// Restarts this process's peak-resident-set counter where the kernel
/// allows it (/proc/self/clear_refs), so the next reading covers only what
/// follows.
void reset_peak_rss();
/// Peak resident set of this process, in MiB.
double self_peak_rss_mb();

/// Host-speed reference: the median time, in ms, of a fixed integer loop
/// (splitmix64 steps) on this thread. Timed at the start and end of every
/// run, so a reader can tell host drift from a program regression.
double host_calibration_ms();

/// Derives an independent seed for sub-input `k` of a run seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k);

}  // namespace perfbench
