#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/json.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr std::array<MetricDef, 7> kEndToEnd = {{
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"decide_us_p50", "us"},
    {"decide_us_p99", "us"},
    {"peak_rss_mb", "MB"},
    {"max_wait_h", "h"},
    {"avg_bsld", "ratio"},
}};

constexpr std::array<MetricDef, 49> kPerLayer = {{
    {"core.select_s", "s"},
    {"core.nodes", "count"},
    {"core.nodes_per_s", "1/s"},
    {"core.ms_per_1k_nodes", "ms"},
    {"core.paths", "count"},
    {"core.exhausted_frac", "frac"},
    {"core.memo_hit_ratio", "frac"},
    {"core.memo_lookups", "count"},
    {"core.memo_resets", "count"},
    {"core.pruned_twins", "count"},
    {"core.pruned_bound", "count"},
    {"core.queue_depth_p50", "jobs"},
    {"core.queue_depth_p99", "jobs"},
    {"core.problem_build_us_p50", "us"},
    {"core.search_us_p50", "us"},
    {"core.search_us_p99", "us"},
    {"core.place_ns", "ns"},
    {"core.replay_decisions", "count"},
    {"cluster.profile_build_us_p50", "us"},
    {"cluster.profile_steps_p50", "count"},
    {"cluster.profile_steps_p99", "count"},
    {"cluster.earliest_start_ns", "ns"},
    {"sim.self_s", "s"},
    {"sim.events", "count"},
    {"sim.decisions", "count"},
    {"fed.loop_s", "s"},
    {"fed.migrations", "count"},
    {"fed.failovers", "count"},
    {"fed.rehomes", "count"},
    {"fed.duplicate_runs", "count"},
    {"obs.sink_s", "s"},
    {"obs.lines", "count"},
    {"obs.bytes", "B"},
    {"obs.telemetry_cost_s", "s"},
    {"resilience.ckpt_write_s", "s"},
    {"resilience.ckpt_count", "count"},
    {"resilience.ckpt_bytes", "B"},
    {"resilience.ckpt_write_ms_p99", "ms"},
    {"jobs.swf_read_s", "s"},
    {"service.think_us_p50", "us"},
    {"service.think_us_p99", "us"},
    {"service.queue_depth_mean", "jobs"},
    {"service.rejected", "count"},
    {"service.idle_rtt_us", "us"},
    {"service.gen_late_ms_p99", "ms"},
    {"service.submit_ms_p50", "ms"},
    {"service.submit_ms_p99", "ms"},
    {"max_rate_jobs_s", "jobs/s"},
    {"trace.overhead_frac", "frac"},
}};

}  // namespace

std::span<const MetricDef> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricDef> per_layer_metrics() { return kPerLayer; }

// --------------------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

Quantiles quantiles(const std::vector<double>& v, double want_q) {
  Quantiles q;
  q.n = v.size();
  if (v.empty()) return q;
  q.p50 = median(v);
  static constexpr std::array<double, 6> kLadder = {0.999, 0.99, 0.95,
                                                    0.9,   0.75, 0.5};
  q.tail_q = 0.5;
  for (const double rung : kLadder) {
    if (rung > want_q) continue;
    const double beyond = (1.0 - rung) * static_cast<double>(v.size());
    if (beyond + 1e-9 >= static_cast<double>(Quantiles::kTailSamples)) {
      q.tail_q = rung;
      break;
    }
  }
  q.tail = percentile(v, q.tail_q);
  return q;
}

// --------------------------------------------------------------------------

CheckReport check_schedule(std::span<const Placement> placements,
                           std::span<const int> capacity,
                           std::size_t expected_jobs) {
  CheckReport r;
  r.checked = placements.size();
  std::vector<int> seen(expected_jobs, 0);
  std::vector<char> bad(placements.size(), 0);
  const auto flag = [&](std::size_t i, const std::string& why) {
    if (!bad[i]) ++r.failed;
    bad[i] = 1;
    if (r.first_error.empty()) r.first_error = why;
  };
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const Placement& p = placements[i];
    const std::string tag = "job " + std::to_string(p.job) + ": ";
    if (p.job < 0 || static_cast<std::size_t>(p.job) >= expected_jobs) {
      flag(i, tag + "unknown job id");
      continue;
    }
    if (++seen[static_cast<std::size_t>(p.job)] > 1)
      flag(i, tag + "placed more than once");
    if (!p.completed) flag(i, tag + "never completed");
    if (p.start < p.submit) flag(i, tag + "starts before its submit time");
    if (p.end - p.start != p.runtime)
      flag(i, tag + "end - start differs from the actual runtime");
    if (p.member < 0 || static_cast<std::size_t>(p.member) >= capacity.size())
      flag(i, tag + "placed on an unknown member");
  }
  std::size_t missing = 0;
  for (std::size_t j = 0; j < expected_jobs; ++j)
    if (seen[j] == 0) ++missing;
  if (missing > 0) {
    r.failed += missing;
    if (r.first_error.empty())
      r.first_error = std::to_string(missing) + " job(s) missing";
  }

  // Capacity sweep per member: at equal times, ends free nodes before
  // starts take them (an interval is [start, end)).
  struct Edge {
    Time t;
    int delta;
    std::size_t who;
  };
  std::vector<std::vector<Edge>> edges(capacity.size());
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const Placement& p = placements[i];
    if (p.member < 0 || static_cast<std::size_t>(p.member) >= capacity.size() ||
        !p.completed || p.end <= p.start)
      continue;
    edges[static_cast<std::size_t>(p.member)].push_back({p.start, p.nodes, i});
    edges[static_cast<std::size_t>(p.member)].push_back({p.end, -p.nodes, i});
  }
  for (std::size_t m = 0; m < edges.size(); ++m) {
    auto& e = edges[m];
    std::sort(e.begin(), e.end(), [](const Edge& a, const Edge& b) {
      return a.t != b.t ? a.t < b.t : a.delta < b.delta;
    });
    long long used = 0;
    for (const Edge& x : e) {
      used += x.delta;
      if (used > capacity[m])
        flag(x.who, "member " + std::to_string(m) + " over capacity (" +
                        std::to_string(used) + " > " +
                        std::to_string(capacity[m]) + " nodes) at t=" +
                        std::to_string(x.t));
    }
  }
  return r;
}

std::uint64_t schedule_digest(std::span<const Placement> placements) {
  // Sum of per-job FNV-1a hashes: independent of the order placements are
  // listed in, sensitive to every (job, member, start, end) tuple.
  std::uint64_t sum = 0;
  for (const Placement& p : placements) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::int64_t v :
         {static_cast<std::int64_t>(p.job), static_cast<std::int64_t>(p.member),
          static_cast<std::int64_t>(p.start), static_cast<std::int64_t>(p.end)}) {
      for (int b = 0; b < 8; ++b) {
        h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xffU;
        h *= 0x100000001b3ULL;
      }
    }
    sum += h;
  }
  return sum;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --------------------------------------------------------------------------

int SpanRecorder::begin(std::string_view name, int parent, std::int64_t id) {
  spans_.push_back(Span{name, now_ns(), 0, parent, id});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::end(int span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

int SpanRecorder::add(std::string_view name, std::int64_t start_ns,
                      std::int64_t end_ns, int parent, std::int64_t id) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, id});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanRecorder::self_s(std::string_view name) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::int64_t ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name)
      ns += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
  return static_cast<double>(ns) * 1e-9;
}

std::size_t SpanRecorder::write_json(const std::string& path,
                                     std::size_t max_spans) const {
  std::ofstream out(path, std::ios::trunc);
  SBS_CHECK_MSG(out.good(), "cannot write span file " << path);
  const std::size_t n = std::min(max_spans, spans_.size());
  out << "[\n";
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    sbs::obs::JsonWriter w;
    w.begin_object()
        .field("i", static_cast<std::uint64_t>(i))
        .field("name", s.name)
        .field("start_ns", s.start_ns)
        .field("end_ns", s.end_ns)
        .field("parent", s.parent);
    if (s.id >= 0) w.field("id", s.id);
    w.end_object();
    out << w.str() << (i + 1 < n ? ",\n" : "\n");
  }
  out << "]\n";
  return n;
}

// --------------------------------------------------------------------------

void RunResult::fail(std::string why) {
  correct = false;
  errors.push_back(std::move(why));
}

void RunResult::note(const std::string& key, double v) {
  sbs::obs::JsonWriter w;
  w.value(v);
  detail[key] = w.str();
}

void RunResult::note(const std::string& key, const std::string& s) {
  sbs::obs::JsonWriter w;
  w.value(s);
  detail[key] = w.str();
}

void RunResult::note(const std::string& key, const Quantiles& q) {
  sbs::obs::JsonWriter w;
  w.begin_object()
      .field("n", static_cast<std::uint64_t>(q.n))
      .field("p50", q.p50)
      .field("tail", q.tail)
      .field("tail_q", q.tail_q)
      .end_object();
  detail[key] = w.str();
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

void save_spans(const SpanRecorder& spans, const Options& opt, RunResult& rr) {
  const std::string path = opt.work_dir + "/spans-" + opt.workload + ".json";
  const std::size_t written = spans.write_json(path, kMaxSpansWritten);
  rr.note("spans_file", path);
  rr.note("spans", static_cast<double>(spans.spans().size()));
  rr.note("spans_written", static_cast<double>(written));
}

double self_peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double host_calibration_ms() {
  constexpr int kReps = 7;
  constexpr std::uint64_t kSteps = 4'000'000;
  std::vector<double> ms;
  std::uint64_t acc = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    std::uint64_t state = static_cast<std::uint64_t>(rep);
    const std::int64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < kSteps; ++i) acc += sbs::splitmix64(state);
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  // Keeps the loop from being optimized away.
  if (acc == 0) ms.push_back(0.0);
  return median(ms);
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + k + 1;
  return sbs::splitmix64(state);
}

}  // namespace perfbench
