#include "layers.hpp"

#include <algorithm>
#include <filesystem>

#include "core/schedule_builder.hpp"
#include "core/search.hpp"
#include "core/search_problem.hpp"
#include "obs/json.hpp"
#include "resilience/checkpoint.hpp"

namespace perfbench {

std::vector<int> TimedScheduler::select_jobs(const sbs::SchedulerState& state) {
  const std::int64_t t0 = now_ns();
  std::vector<int> started = inner_->select_jobs(state);
  const std::int64_t t1 = now_ns();

  log_.select_ns += t1 - t0;
  const double us = static_cast<double>(t1 - t0) * 1e-3;
  log_.decide_us.push_back(us);
  log_.queue_depth.push_back(static_cast<double>(state.waiting.size()));
  for (const sbs::WaitingJob& w : state.waiting) {
    const auto id = static_cast<std::size_t>(w.job->id);
    if (id >= log_.seen.size()) log_.seen.resize(id + 1, 0);
    if (log_.seen[id]) continue;
    log_.seen[id] = 1;
    log_.submit_ms.push_back(us * 1e-3);
  }
  if (log_.spans != nullptr)
    log_.spans->add("core.select", t0, t1, log_.parent_span);
  if (log_.capture) {
    const std::int64_t c0 = now_ns();
    CapturedDecision c;
    c.now = state.now;
    c.capacity = state.capacity;
    c.free_nodes = state.free_nodes;
    for (const sbs::WaitingJob& w : state.waiting) {
      c.waiting.push_back(*w.job);
      c.waiting_estimate.push_back(w.estimate);
    }
    for (const sbs::RunningJob& r : state.running) {
      c.running.push_back(*r.job);
      c.running_start.push_back(r.start);
      c.running_est_end.push_back(r.est_end);
    }
    c.started = started;
    std::sort(c.started.begin(), c.started.end());
    log_.captured.push_back(std::move(c));
    // A sibling span keeps the capture cost out of the run loop's self time.
    if (log_.spans != nullptr)
      log_.spans->add("perfbench.capture", c0, now_ns(), log_.parent_span);
  }
  return started;
}

sbs::fed::SchedulerFactory timed_factory(
    sbs::fed::SchedulerFactory inner, DecisionLog& log,
    std::vector<const sbs::Scheduler*>& made) {
  return [inner = std::move(inner), &log,
          &made](std::size_t member) -> std::unique_ptr<sbs::Scheduler> {
    auto s = std::make_unique<TimedScheduler>(inner(member), log);
    made.push_back(s.get());
    return s;
  };
}

void TimedSink::write(std::string_view json_line) {
  const std::int64_t t0 = now_ns();
  inner_->write(json_line);
  const std::int64_t t1 = now_ns();
  log_.ns += t1 - t0;
  ++log_.lines;
  log_.bytes += json_line.size() + 1;  // the sink appends a newline
  if (log_.spans != nullptr)
    log_.spans->add("obs.sink.write", t0, t1, log_.parent_span);
}

void TimedSink::flush() {
  const std::int64_t t0 = now_ns();
  inner_->flush();
  const std::int64_t t1 = now_ns();
  log_.ns += t1 - t0;
  if (log_.spans != nullptr)
    log_.spans->add("obs.sink.write", t0, t1, log_.parent_span);
}

std::function<void(const sbs::sim::FederationSnapshot&)> checkpoint_writer(
    std::string path, CheckpointLog& log) {
  return [path = std::move(path), &log](const sbs::sim::FederationSnapshot& snap) {
    const std::int64_t t0 = now_ns();
    sbs::resilience::FederationCheckpointData data;
    data.id = sbs::resilience::checkpoint_id(snap.fed_events);
    data.snapshot = snap;
    sbs::resilience::write_federation_checkpoint(path, data);
    const std::int64_t t1 = now_ns();
    log.ns += t1 - t0;
    ++log.count;
    log.bytes += std::filesystem::file_size(path);
    log.write_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    if (log.spans != nullptr)
      log.spans->add("resilience.ckpt.write", t0, t1, log.parent_span);
  };
}

void add_counters(const sbs::Scheduler& s, std::map<std::string, double>& out) {
  const sbs::obs::JsonValue v = sbs::obs::parse_json(s.save_state());
  const sbs::obs::JsonValue* stats = v.find("stats");
  if (stats == nullptr || !stats->is_object()) return;
  for (const auto& [key, value] : stats->object)
    if (value.kind == sbs::obs::JsonValue::Kind::Number)
      out[key] += value.number;
}

void replay(std::span<const CapturedDecision> decisions, std::size_t node_limit,
            double budget_s, ReplayStats& out, SpanRecorder* spans) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  sbs::SearchConfig config;
  config.node_limit = node_limit;
  const sbs::BoundSpec bound = sbs::BoundSpec::dynamic_bound();

  for (const CapturedDecision& c : decisions) {
    if (now_ns() > deadline) break;
    const bool any_fits = std::any_of(
        c.waiting.begin(), c.waiting.end(),
        [&](const sbs::Job& j) { return j.nodes <= c.free_nodes; });
    if (!any_fits) continue;

    std::vector<sbs::WaitingJob> waiting;
    for (std::size_t i = 0; i < c.waiting.size(); ++i)
      waiting.push_back({&c.waiting[i], c.waiting_estimate[i]});
    std::vector<sbs::RunningJob> running;
    for (std::size_t i = 0; i < c.running.size(); ++i)
      running.push_back({&c.running[i], c.running_start[i], c.running_est_end[i]});
    sbs::SchedulerState state;
    state.now = c.now;
    state.capacity = c.capacity;
    state.free_nodes = c.free_nodes;
    state.waiting = waiting;
    state.running = running;

    const int root = spans ? spans->begin("replay.decision") : -1;
    const std::int64_t t0 = now_ns();
    const sbs::ResourceProfile profile =
        sbs::profile_from_running(state.capacity, state.now, state.running);
    const std::int64_t t1 = now_ns();
    for (const sbs::WaitingJob& w : waiting) {
      if (w.job->nodes > state.capacity) continue;
      const std::int64_t e0 = now_ns();
      const Time start = profile.earliest_start(state.now, w.job->nodes,
                                                std::max<Time>(w.estimate, 1));
      const std::int64_t e1 = now_ns();
      (void)start;
      out.earliest_start_ns += e1 - e0;
      ++out.earliest_start_calls;
    }
    const std::int64_t t2 = now_ns();
    const sbs::SearchProblem problem = sbs::SearchProblem::from_state(state, bound);
    const std::int64_t t3 = now_ns();
    if (problem.size() == 0) {
      if (spans) spans->end(root);
      continue;
    }
    const sbs::SearchResult result = sbs::run_search(problem, config);
    const std::int64_t t4 = now_ns();
    sbs::ScheduleBuilder builder(problem);
    for (std::size_t d = 0; d < result.order.size(); ++d)
      builder.place(d, result.order[d]);
    for (std::size_t d = 0; d < result.order.size(); ++d) builder.unplace();
    const std::int64_t t5 = now_ns();

    if (spans) {
      spans->add("cluster.profile_build", t0, t1, root);
      spans->add("core.problem_build", t2, t3, root);
      spans->add("core.search", t3, t4, root);
      spans->add("core.place", t4, t5, root);
      spans->end(root);
    }
    out.profile_build_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    out.profile_steps.push_back(static_cast<double>(profile.step_count()));
    out.problem_build_us.push_back(static_cast<double>(t3 - t2) * 1e-3);
    out.search_us.push_back(static_cast<double>(t4 - t3) * 1e-3);
    out.place_ns += t5 - t4;
    out.places += result.order.size();
    ++out.decisions;
    if (result.exhausted) ++out.exhausted;

    std::vector<int> started;
    for (std::size_t i = 0; i < problem.size(); ++i)
      if (result.starts[i] == state.now) started.push_back(problem.jobs[i].job->id);
    std::sort(started.begin(), started.end());
    if (started != c.started) {
      ++out.mismatches;
      if (out.first_mismatch.empty())
        out.first_mismatch = "decision at t=" + std::to_string(c.now) +
                             ": replay starts " + std::to_string(started.size()) +
                             " job(s), the scheduler started " +
                             std::to_string(c.started.size());
    }
  }
}

}  // namespace perfbench
