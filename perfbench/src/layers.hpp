#pragma once
// Layer probes that time the program from outside, through public calls
// only: a decorator around Scheduler::select_jobs (for a plain scheduler
// and for the products of a federation's SchedulerFactory), a decorator
// around obs::TraceSink, a checkpoint sink that calls
// write_federation_checkpoint, and an offline replay of captured
// SchedulerStates through the search engine's public entry points.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fed/federation.hpp"
#include "harness.hpp"
#include "obs/trace_sink.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

/// Deep copy of one SchedulerState plus the jobs the scheduler started.
struct CapturedDecision {
  Time now = 0;
  int capacity = 0;
  int free_nodes = 0;
  std::vector<sbs::Job> waiting;
  std::vector<Time> waiting_estimate;
  std::vector<sbs::Job> running;
  std::vector<Time> running_start;
  std::vector<Time> running_est_end;
  std::vector<int> started;  ///< sorted job ids
};

/// What the select_jobs decorator records. Two clock reads per decision
/// are always on; spans and state capture only in a traced run.
struct DecisionLog {
  std::vector<double> decide_us;
  std::vector<double> queue_depth;
  /// Per newly seen job: host ms of the first decision that saw it.
  std::vector<double> submit_ms;
  std::vector<char> seen;  ///< by job id
  std::int64_t select_ns = 0;

  SpanRecorder* spans = nullptr;
  int parent_span = -1;
  bool capture = false;
  std::vector<CapturedDecision> captured;
};

/// Times every select_jobs call of the wrapped scheduler; forwards
/// everything else untouched.
class TimedScheduler final : public sbs::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<sbs::Scheduler> inner, DecisionLog& log)
      : inner_(std::move(inner)), log_(log) {}

  std::vector<int> select_jobs(const sbs::SchedulerState& state) override;
  std::string name() const override { return inner_->name(); }
  sbs::SchedulerStats stats() const override { return inner_->stats(); }
  void set_collect_decision_detail(bool on) override {
    inner_->set_collect_decision_detail(on);
  }
  const sbs::DecisionDetail* last_decision() const override {
    return inner_->last_decision();
  }
  std::string save_state() const override { return inner_->save_state(); }
  void restore_state(std::string_view state) override {
    inner_->restore_state(state);
  }

 private:
  std::unique_ptr<sbs::Scheduler> inner_;
  DecisionLog& log_;
};

/// Wraps every product of `inner` in a TimedScheduler recording into
/// `log`, and remembers the products so their counters can be read later.
sbs::fed::SchedulerFactory timed_factory(
    sbs::fed::SchedulerFactory inner, DecisionLog& log,
    std::vector<const sbs::Scheduler*>& made);

struct SinkLog {
  std::int64_t ns = 0;
  std::uint64_t lines = 0;
  std::uint64_t bytes = 0;
  SpanRecorder* spans = nullptr;
  int parent_span = -1;
};

/// Times every write/flush of the wrapped telemetry sink.
class TimedSink final : public sbs::obs::TraceSink {
 public:
  TimedSink(std::unique_ptr<sbs::obs::TraceSink> inner, SinkLog& log)
      : inner_(std::move(inner)), log_(log) {}
  void write(std::string_view json_line) override;
  void flush() override;

 private:
  std::unique_ptr<sbs::obs::TraceSink> inner_;
  SinkLog& log_;
};

struct CheckpointLog {
  std::int64_t ns = 0;
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  std::vector<double> write_ms;
  SpanRecorder* spans = nullptr;
  int parent_span = -1;
};

/// A federation checkpoint_sink that writes each snapshot to `path` with
/// write_federation_checkpoint and times the write.
std::function<void(const sbs::sim::FederationSnapshot&)> checkpoint_writer(
    std::string path, CheckpointLog& log);

/// Sums the numeric members of the "stats" object of each scheduler's
/// save_state() JSON, by key. A counter the program no longer keeps is
/// simply absent from the map.
void add_counters(const sbs::Scheduler& s, std::map<std::string, double>& out);

struct ReplayStats {
  std::vector<double> profile_build_us;
  std::vector<double> profile_steps;
  std::vector<double> problem_build_us;
  std::vector<double> search_us;
  std::int64_t place_ns = 0;
  std::uint64_t places = 0;
  std::int64_t earliest_start_ns = 0;
  std::uint64_t earliest_start_calls = 0;
  std::uint64_t decisions = 0;
  std::uint64_t exhausted = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
};

/// Replays captured decisions offline: profile_from_running,
/// SearchProblem::from_state (dynB), run_search (DDS/lxf at `node_limit`,
/// every other setting at its default) and ScheduleBuilder::place/unplace
/// along the winning order. Decisions where no waiting job fits the free
/// nodes are skipped, as the scheduler skips them. A decision whose search
/// would start a different job set now than the scheduler did counts as a
/// mismatch. Stops early once `budget_s` host seconds are spent.
void replay(std::span<const CapturedDecision> decisions,
            std::size_t node_limit, double budget_s, ReplayStats& out,
            SpanRecorder* spans);

}  // namespace perfbench
