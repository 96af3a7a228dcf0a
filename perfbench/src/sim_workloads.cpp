// The two batch workloads: month-deep (plain simulate of NCSA 1/04 slices
// at offered load 1.0, DDS/lxf/dynB at L=8K) and fed-ops (three-member
// federation over NCSA 7/03 months with migration, chaos, JSONL telemetry
// and federation checkpoints, DDS/lxf/dynB at L=1K).

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>

#include "exp/policy_factory.hpp"
#include "fed/federation.hpp"
#include "fed/meta_scheduler.hpp"
#include "jobs/swf.hpp"
#include "layers.hpp"
#include "metrics/summary.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_sink.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

constexpr const char* kPolicy = "DDS/lxf/dynB";
constexpr int kSetupReps = 8;  ///< even: half before the passes, half after

struct WorkloadSpec {
  const char* name;
  const char* month;
  double job_scale;
  double load;  ///< rescale target; 0 = as generated
  int inputs;   ///< independently seeded traces per pass
  std::size_t node_limit;
  bool federation;
  /// Inputs a traced run also runs untraced, as the baseline of
  /// trace.overhead_frac and the digest comparison.
  std::size_t trace_baseline_inputs;
};

// Passes cover many independently seeded traces so that a run's figures
// depend on the workload's distribution, not on one seed's bursts.
constexpr WorkloadSpec kMonthDeep = {"month-deep", "1/04", 0.05, 1.0, 192,
                                     8000, false, 48};
constexpr WorkloadSpec kFedOps = {"fed-ops", "7/03", 1.0, 0.0, 64, 1000, true, 64};

// fed-ops members: one wide machine plus two narrow ones.
const std::vector<sbs::fed::MemberSpec>& fed_members() {
  static const std::vector<sbs::fed::MemberSpec> m = {
      {"wide", 128, nullptr}, {"a", 32, nullptr}, {"b", 32, nullptr}};
  return m;
}
constexpr std::uint64_t kFedCheckpointEvery = 200;

/// Layer probes shared by every input of one pass.
struct PassProbes {
  DecisionLog decisions;
  SinkLog sink;
  CheckpointLog checkpoints;
  std::map<std::string, double> counters;
  SpanRecorder* spans = nullptr;
  ReplayStats replay;
  double replay_budget_s = 0.0;
  bool telemetry = true;  ///< fed-ops only
};

struct PassResult {
  double wall_s = 0.0;
  std::uint64_t jobs = 0;
  std::uint64_t failed = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;                ///< over every input
  std::vector<std::uint64_t> input_digests;  ///< per input
  std::string first_error;
  std::vector<double> max_wait_h;  ///< per input
  double bsld_sum = 0.0;
  std::uint64_t bsld_jobs = 0;
  std::uint64_t migrations = 0, failovers = 0, rehomes = 0, duplicate_runs = 0;
};

struct Inputs {
  std::vector<std::string> paths;
  std::vector<sbs::Trace> traces;
};

std::uint64_t mix_digest(std::uint64_t acc, std::uint64_t d, std::size_t k) {
  return acc + d * (2 * static_cast<std::uint64_t>(k) + 1);
}

void record_outcomes(const std::vector<sbs::JobOutcome>& outcomes,
                     const std::vector<int>& owner,
                     const std::vector<int>& capacity, std::size_t k,
                     PassResult& pr) {
  std::vector<Placement> placements;
  placements.reserve(outcomes.size());
  for (std::size_t j = 0; j < outcomes.size(); ++j) {
    const sbs::JobOutcome& o = outcomes[j];
    placements.push_back(Placement{o.job.id, owner.empty() ? 0 : owner[j],
                                   o.job.nodes, o.job.submit, o.start, o.end,
                                   o.job.runtime, o.completed});
  }
  const CheckReport check =
      check_schedule(placements, capacity, outcomes.size());
  pr.jobs += outcomes.size();
  pr.failed += check.failed;
  if (!check.ok() && pr.first_error.empty())
    pr.first_error = "input " + std::to_string(k) + ": " + check.first_error;
  const std::uint64_t d = schedule_digest(placements);
  pr.input_digests.push_back(d);
  pr.digest = mix_digest(pr.digest, d, k);
  const sbs::Summary s = sbs::summarize(outcomes);
  pr.max_wait_h.push_back(s.max_wait_h);
  pr.bsld_sum += s.avg_bounded_slowdown * static_cast<double>(s.jobs);
  pr.bsld_jobs += s.jobs;
}

/// An input the program aborts with sbs::Error (an invariant it checks about
/// itself) counts all its jobs as failed operations; the pass goes on.
void record_program_error(const sbs::Trace& trace, std::size_t k,
                          const sbs::Error& e, PassResult& pr) {
  pr.jobs += trace.jobs.size();
  pr.failed += trace.jobs.size();
  if (pr.first_error.empty())
    pr.first_error = "input " + std::to_string(k) + ": the program failed: " + e.what();
  pr.input_digests.push_back(0);
  pr.digest = mix_digest(pr.digest, 0, k);
}

/// Replays (and then drops) the states captured while simulating one input.
void replay_captured(PassProbes& p, std::size_t node_limit) {
  if (!p.decisions.capture) return;
  const std::int64_t t0 = now_ns();
  replay(p.decisions.captured, node_limit, p.replay_budget_s, p.replay,
         p.spans);
  p.replay_budget_s -= seconds_between(t0, now_ns());
  p.decisions.captured.clear();
  p.decisions.capture = p.replay_budget_s > 0.0;
}

void run_plain_input(const WorkloadSpec& spec, const sbs::Trace& trace,
                     std::size_t k, PassProbes& p, PassResult& pr) {
  p.decisions.seen.assign(trace.jobs.size(), 0);
  const auto policy = std::make_unique<TimedScheduler>(
      sbs::make_policy(kPolicy, spec.node_limit), p.decisions);
  const sbs::SimConfig config;  // telemetry and checkpoints off

  const int root = p.spans ? p.spans->begin("sim.run") : -1;
  p.decisions.parent_span = root;
  std::optional<sbs::SimResult> result;
  const std::int64_t t0 = now_ns();
  try {
    sbs::sim::Simulator sim(trace, *policy, config);
    sim.run();
    result = sim.finish();
    pr.events += sim.events_processed();
  } catch (const sbs::Error& e) {
    record_program_error(trace, k, e, pr);
  }
  const std::int64_t t1 = now_ns();
  if (p.spans) p.spans->end(root);

  pr.wall_s += seconds_between(t0, t1);
  add_counters(*policy, p.counters);
  if (result) record_outcomes(result->outcomes, {}, {trace.capacity}, k, pr);
  replay_captured(p, spec.node_limit);
}

std::unique_ptr<sbs::obs::Telemetry> make_fed_telemetry(
    const std::string& path, SinkLog& log) {
  return std::make_unique<sbs::obs::Telemetry>(std::make_unique<TimedSink>(
      std::make_unique<sbs::obs::JsonlSink>(path), log));
}

sbs::ChaosSchedule fed_chaos(const sbs::Trace& trace, std::uint64_t seed) {
  sbs::ChaosSpec cs;
  cs.outage_mtbf = 7 * sbs::kDay;
  cs.outage_mttr = 2 * sbs::kHour;
  cs.partition_mtbf = 7 * sbs::kDay;
  cs.partition_mttr = sbs::kHour;
  cs.seed = seed;
  return sbs::ChaosSchedule::from_spec(
      cs, trace.window_begin, trace.window_end,
      static_cast<int>(fed_members().size()));
}

/// Everything a federation run borrows, built before the timed call.
struct FedSetup {
  std::unique_ptr<sbs::fed::MetaScheduler> meta;
  sbs::ChaosSchedule chaos;
  std::unique_ptr<sbs::obs::Telemetry> telemetry;
  std::vector<const sbs::Scheduler*> made;
  std::unique_ptr<sbs::fed::Federation> federation;
};

void build_federation(const WorkloadSpec& spec, const Options& opt,
                      const sbs::Trace& trace, std::size_t k, PassProbes& p,
                      FedSetup& fs) {
  fs.meta = sbs::fed::make_meta("least-loaded");
  fs.chaos = fed_chaos(trace, sub_seed(opt.seed, 1000 + k));
  sbs::fed::FederationConfig fc;
  fc.members = fed_members();
  fc.chaos = &fs.chaos;
  if (p.telemetry) {
    fs.telemetry = make_fed_telemetry(opt.work_dir + "/fed-ops.jsonl", p.sink);
    fc.telemetry = fs.telemetry.get();
  }
  fc.checkpoint_every = kFedCheckpointEvery;
  fc.checkpoint_sink =
      checkpoint_writer(opt.work_dir + "/fed-ops.ckpt", p.checkpoints);
  fs.federation = std::make_unique<sbs::fed::Federation>(
      trace,
      timed_factory(sbs::make_policy_factory(kPolicy, spec.node_limit),
                    p.decisions, fs.made),
      *fs.meta, fc);
}

void run_fed_input(const WorkloadSpec& spec, const Options& opt,
                   const sbs::Trace& trace, std::size_t k, PassProbes& p,
                   PassResult& pr) {
  p.decisions.seen.assign(trace.jobs.size(), 0);
  FedSetup fs;
  build_federation(spec, opt, trace, k, p, fs);

  const int root = p.spans ? p.spans->begin("fed.run") : -1;
  p.decisions.parent_span = root;
  p.sink.parent_span = root;
  p.checkpoints.parent_span = root;
  std::optional<sbs::fed::FederationResult> fr;
  const std::int64_t t0 = now_ns();
  try {
    fr = fs.federation->run();
  } catch (const sbs::Error& e) {
    record_program_error(trace, k, e, pr);
  }
  const std::int64_t t1 = now_ns();
  if (p.spans) p.spans->end(root);

  pr.wall_s += seconds_between(t0, t1);
  for (std::size_t i = 0; i < fs.federation->member_count(); ++i)
    pr.events += fs.federation->member(i).events_processed();
  for (const sbs::Scheduler* s : fs.made) add_counters(*s, p.counters);
  if (fr) {
    std::vector<int> capacity;
    for (const sbs::fed::MemberSpec& m : fed_members()) capacity.push_back(m.nodes);
    record_outcomes(fr->outcomes, fr->owner, capacity, k, pr);
    pr.migrations += fr->migrations;
    pr.failovers += fr->failovers;
    pr.rehomes += fr->rehomes;
    pr.duplicate_runs += fr->duplicate_runs;
  }
  replay_captured(p, spec.node_limit);
}

PassResult run_pass(const WorkloadSpec& spec, const Options& opt,
                    std::span<const sbs::Trace> traces, PassProbes& p) {
  p.decisions.spans = p.spans;
  p.sink.spans = p.spans;
  p.checkpoints.spans = p.spans;
  PassResult pr;
  for (std::size_t k = 0; k < traces.size(); ++k) {
    if (spec.federation) {
      run_fed_input(spec, opt, traces[k], k, p, pr);
    } else {
      run_plain_input(spec, traces[k], k, p, pr);
    }
  }
  return pr;
}

Inputs generate_inputs(const WorkloadSpec& spec, const Options& opt,
                       RunResult& rr) {
  const std::int64_t t0 = now_ns();
  Inputs in;
  for (int k = 0; k < spec.inputs; ++k) {
    sbs::GeneratorConfig g;
    g.seed = sub_seed(opt.seed, static_cast<std::uint64_t>(k));
    g.job_scale = spec.job_scale;
    sbs::Trace t = sbs::generate_month(spec.month, g);
    if (spec.load > 0.0) t = sbs::rescale_to_load(t, spec.load);
    const std::string path =
        opt.work_dir + "/" + spec.name + "-" + std::to_string(k) + ".swf";
    sbs::write_swf_file(path, t);
    in.paths.push_back(path);
  }
  rr.note("input_generation_s", seconds_between(t0, now_ns()));
  return in;
}

struct SetupTimes {
  std::vector<double> setup_s, swf_s;
};

/// Set-up, repeated `reps` times: SWF parse, trace validation, and policy
/// or federation construction for every input.
void set_up(const WorkloadSpec& spec, const Options& opt, Inputs& in, int reps,
            SetupTimes& times) {
  for (int rep = 0; rep < reps; ++rep) {
    PassProbes scratch;
    scratch.telemetry = spec.federation;
    std::int64_t swf_ns = 0;
    const std::int64_t t0 = now_ns();
    in.traces.clear();
    for (std::size_t k = 0; k < in.paths.size(); ++k) {
      const std::int64_t r0 = now_ns();
      sbs::Trace t = sbs::read_swf_file(in.paths[k]);
      swf_ns += now_ns() - r0;
      t.validate();
      in.traces.push_back(std::move(t));
      if (spec.federation) {
        FedSetup fs;
        build_federation(spec, opt, in.traces.back(), k, scratch, fs);
      } else {
        const std::unique_ptr<sbs::Scheduler> policy =
            sbs::make_policy(kPolicy, spec.node_limit);
      }
    }
    times.setup_s.push_back(seconds_between(t0, now_ns()));
    times.swf_s.push_back(static_cast<double>(swf_ns) * 1e-9);
  }
}

void check_pass(const PassResult& pr, RunResult& rr, const char* what) {
  rr.attempted += pr.jobs;
  rr.failed += pr.failed;
  if (pr.failed > 0)
    rr.fail(std::string(what) + ": " + std::to_string(pr.failed) +
            " job(s) failed; first: " + pr.first_error);
}

/// The inputs both passes ran must have scheduled identically.
void expect_same_schedules(const PassResult& a, const PassResult& b,
                           RunResult& rr, const std::string& what) {
  const std::size_t n = std::min(a.input_digests.size(), b.input_digests.size());
  if (std::equal(a.input_digests.begin(), a.input_digests.begin() + n,
                 b.input_digests.begin()))
    return;
  rr.failed += b.jobs;  // a schedule that moved invalidates the whole pass
  rr.fail("schedule digest differs " + what);
}

void fill_end_to_end(const WorkloadSpec& spec, const std::vector<PassResult>& passes,
                     double peak_rss_mb,
                     const std::vector<double>& decide_us,
                     const std::vector<double>& submit_ms, RunResult& rr) {
  std::vector<double> walls;
  for (const PassResult& pr : passes) walls.push_back(pr.wall_s);
  const PassResult& first = passes.front();
  const double wall = median(walls);
  const Quantiles dq = quantiles(decide_us);
  const Quantiles sq = quantiles(submit_ms);
  rr.metrics["wall_s"] = wall;
  rr.metrics["decide_us_p50"] = dq.p50;
  rr.metrics["decide_us_p99"] = dq.tail;
  rr.metrics["max_wait_h"] =
      first.max_wait_h.empty()
          ? 0.0
          : std::accumulate(first.max_wait_h.begin(), first.max_wait_h.end(), 0.0) /
                static_cast<double>(first.max_wait_h.size());
  rr.metrics["avg_bsld"] =
      first.bsld_jobs ? first.bsld_sum / static_cast<double>(first.bsld_jobs) : 0.0;
  rr.metrics["peak_rss_mb"] = peak_rss_mb;
  rr.note("passes", static_cast<double>(passes.size()));
  rr.note("pass_wall_s_min", *std::min_element(walls.begin(), walls.end()));
  rr.note("pass_wall_s_max", *std::max_element(walls.begin(), walls.end()));
  rr.note("decide_us", dq);
  rr.note("submit_ms", sq);
  rr.note("jobs_per_pass", static_cast<double>(first.jobs));
  rr.note("inputs_per_pass", static_cast<double>(spec.inputs));
  rr.note("schedule_digest", hex(first.digest));
}

void fill_per_layer(const WorkloadSpec& spec, const PassResult& pr,
                    const PassProbes& p, const SpanRecorder& spans,
                    const PassResult& baseline, RunResult& rr) {
  auto& m = rr.metrics;
  const auto counter = [&](const char* key) -> std::optional<double> {
    const auto it = p.counters.find(key);
    if (it == p.counters.end()) return std::nullopt;
    return it->second;
  };
  const auto set_counter = [&](const char* metric, const char* key) {
    if (const auto v = counter(key)) {
      m[metric] = *v;
    } else {
      rr.not_exercised.push_back(metric);
    }
  };

  const double select_s = static_cast<double>(p.decisions.select_ns) * 1e-9;
  m["core.select_s"] = select_s;
  set_counter("core.nodes", "nodes_visited");
  set_counter("core.paths", "paths_explored");
  set_counter("core.memo_resets", "cache_invalidations");
  set_counter("core.pruned_twins", "pruned_twins");
  set_counter("core.pruned_bound", "pruned_bound");
  const double nodes = counter("nodes_visited").value_or(0.0);
  m["core.nodes_per_s"] = select_s > 0 ? nodes / select_s : 0.0;
  m["core.ms_per_1k_nodes"] = nodes > 0 ? select_s * 1e3 / (nodes / 1e3) : 0.0;
  const auto hits = counter("cache_hits");
  const auto misses = counter("cache_misses");
  if (hits && misses) {
    const double lookups = *hits + *misses;
    m["core.memo_lookups"] = lookups;
    m["core.memo_hit_ratio"] = lookups > 0 ? *hits / lookups : 0.0;
  } else {
    rr.not_exercised.push_back("core.memo_lookups");
    rr.not_exercised.push_back("core.memo_hit_ratio");
  }
  const Quantiles qd = quantiles(p.decisions.queue_depth);
  m["core.queue_depth_p50"] = qd.p50;
  m["core.queue_depth_p99"] = qd.tail;
  rr.note("core.queue_depth", qd);

  const ReplayStats& r = p.replay;
  const Quantiles pb = quantiles(r.problem_build_us);
  const Quantiles se = quantiles(r.search_us);
  const Quantiles prof = quantiles(r.profile_build_us);
  const Quantiles steps = quantiles(r.profile_steps);
  m["core.problem_build_us_p50"] = pb.p50;
  m["core.search_us_p50"] = se.p50;
  m["core.search_us_p99"] = se.tail;
  m["core.place_ns"] =
      r.places ? static_cast<double>(r.place_ns) / static_cast<double>(r.places) : 0.0;
  m["core.replay_decisions"] = static_cast<double>(r.decisions);
  m["core.exhausted_frac"] =
      r.decisions ? static_cast<double>(r.exhausted) / static_cast<double>(r.decisions)
                  : 0.0;
  m["cluster.profile_build_us_p50"] = prof.p50;
  m["cluster.profile_steps_p50"] = steps.p50;
  m["cluster.profile_steps_p99"] = steps.tail;
  m["cluster.earliest_start_ns"] =
      r.earliest_start_calls ? static_cast<double>(r.earliest_start_ns) /
                                   static_cast<double>(r.earliest_start_calls)
                             : 0.0;
  rr.note("core.search_us", se);
  rr.note("core.problem_build_us", pb);
  rr.note("cluster.profile_build_us", prof);
  rr.note("cluster.profile_steps", steps);
  rr.note("replay_mismatches", static_cast<double>(r.mismatches));
  if (r.decisions == 0) rr.fail("replay covered no decision");
  if (r.mismatches > 0)
    rr.fail("replay disagrees with the scheduler on " +
            std::to_string(r.mismatches) + " decision(s), so the per-layer "
            "numbers are invalid; first: " + r.first_mismatch);

  const char* run_span = spec.federation ? "fed.run" : "sim.run";
  const double run_self = spans.self_s(run_span);
  m["sim.self_s"] = run_self;
  m["sim.events"] = static_cast<double>(pr.events);
  m["sim.decisions"] = static_cast<double>(p.decisions.decide_us.size());
  m["fed.loop_s"] = spec.federation ? run_self : 0.0;
  m["fed.migrations"] = static_cast<double>(pr.migrations);
  m["fed.failovers"] = static_cast<double>(pr.failovers);
  m["fed.rehomes"] = static_cast<double>(pr.rehomes);
  m["fed.duplicate_runs"] = static_cast<double>(pr.duplicate_runs);
  m["obs.sink_s"] = static_cast<double>(p.sink.ns) * 1e-9;
  m["obs.lines"] = static_cast<double>(p.sink.lines);
  m["obs.bytes"] = static_cast<double>(p.sink.bytes);
  m["resilience.ckpt_write_s"] = static_cast<double>(p.checkpoints.ns) * 1e-9;
  m["resilience.ckpt_count"] = static_cast<double>(p.checkpoints.count);
  m["resilience.ckpt_bytes"] = static_cast<double>(p.checkpoints.bytes);
  const Quantiles cq = quantiles(p.checkpoints.write_ms);
  m["resilience.ckpt_write_ms_p99"] = cq.tail;
  rr.note("resilience.ckpt_write_ms", cq);
  if (!spec.federation) {
    for (const char* name :
         {"fed.loop_s", "fed.migrations", "fed.failovers", "fed.rehomes",
          "fed.duplicate_runs", "resilience.ckpt_write_s",
          "resilience.ckpt_count", "resilience.ckpt_bytes",
          "resilience.ckpt_write_ms_p99"})
      rr.not_exercised.push_back(name);
  }
  // Overhead over the inputs the baseline ran: the first run spans.
  double traced_wall = 0.0, run_wall = 0.0;
  std::size_t runs = 0;
  for (const Span& s : spans.spans()) {
    if (s.name != run_span) continue;
    run_wall += seconds_between(s.start_ns, s.end_ns);
    if (runs == baseline.input_digests.size()) continue;
    traced_wall += seconds_between(s.start_ns, s.end_ns);
    ++runs;
  }
  rr.note("core.select_share_of_wall", run_wall > 0 ? select_s / run_wall : 0.0);
  m["trace.overhead_frac"] = traced_wall / baseline.wall_s - 1.0;
  rr.note("traced_wall_s", traced_wall);
  rr.note("untraced_wall_s", baseline.wall_s);
  rr.note("trace_baseline_inputs", static_cast<double>(runs));
  rr.note("paper_ms_per_1k_nodes",
          "30 ms per decision at L=1K and 65 ms at L=8K (8.1 ms per 1K "
          "nodes), Java simulator, PAPER.md section 2.2");
  for (const char* name :
       {"service.think_us_p50", "service.think_us_p99",
        "service.queue_depth_mean", "service.rejected", "service.idle_rtt_us",
        "service.gen_late_ms_p99", "service.submit_ms_p50",
        "service.submit_ms_p99", "max_rate_jobs_s"}) {
    m[name] = 0.0;
    rr.not_exercised.push_back(name);
  }
}

void untraced_run(const WorkloadSpec& spec, const Options& opt,
                  const Inputs& in, RunResult& rr) {
  const std::int64_t start = now_ns();
  std::vector<PassResult> passes;
  std::vector<double> decide_us, submit_ms;
  double peak_rss_mb = 0.0;
  do {
    PassProbes p;
    p.telemetry = spec.federation;
    if (passes.empty()) reset_peak_rss();
    passes.push_back(run_pass(spec, opt, in.traces, p));
    if (passes.size() == 1) peak_rss_mb = self_peak_rss_mb();
    check_pass(passes.back(), rr, "untraced pass");
    expect_same_schedules(passes.front(), passes.back(), rr,
                          "between repeated passes");
    decide_us.insert(decide_us.end(), p.decisions.decide_us.begin(),
                     p.decisions.decide_us.end());
    submit_ms.insert(submit_ms.end(), p.decisions.submit_ms.begin(),
                     p.decisions.submit_ms.end());
  } while (seconds_between(start, now_ns()) + passes.back().wall_s <= opt.seconds);

  if (passes.size() == 1) {
    // Repeat check on the first input when the budget allowed one pass.
    PassProbes p;
    p.telemetry = spec.federation;
    const PassResult again =
        run_pass(spec, opt, std::span(in.traces).first(1), p);
    check_pass(again, rr, "repeat of input 0");
    expect_same_schedules(passes.front(), again, rr, "between repeats of input 0");
  }
  fill_end_to_end(spec, passes, peak_rss_mb, decide_us, submit_ms, rr);
}

void traced_run(const WorkloadSpec& spec, const Options& opt, const Inputs& in,
                RunResult& rr) {
  const auto head = std::span(in.traces).first(
      std::min(spec.trace_baseline_inputs, in.traces.size()));
  PassProbes base;
  base.telemetry = spec.federation;
  const PassResult baseline = run_pass(spec, opt, head, base);
  check_pass(baseline, rr, "untraced baseline pass");

  SpanRecorder spans;
  PassProbes p;
  p.telemetry = spec.federation;
  p.spans = &spans;
  p.decisions.capture = true;
  p.replay_budget_s = std::max(1.0, opt.seconds / 3.0);
  const PassResult traced = run_pass(spec, opt, in.traces, p);
  check_pass(traced, rr, "traced pass");
  expect_same_schedules(baseline, traced, rr,
                        "between the untraced and the traced pass");
  fill_per_layer(spec, traced, p, spans, baseline, rr);

  if (spec.federation) {
    // Telemetry cost, measured: the baseline inputs with telemetry off.
    PassProbes off;
    off.telemetry = false;
    const PassResult quiet = run_pass(spec, opt, head, off);
    check_pass(quiet, rr, "telemetry-off pass");
    expect_same_schedules(baseline, quiet, rr, "with telemetry off");
    rr.metrics["obs.telemetry_cost_s"] = baseline.wall_s - quiet.wall_s;
    rr.note("telemetry_off_wall_s", quiet.wall_s);
  } else {
    // Telemetry is off here: the sink probe saw no write, so its measured
    // cost is the (zero) time it spent.
    rr.metrics["obs.telemetry_cost_s"] = rr.metrics["obs.sink_s"];
  }
  rr.note("schedule_digest", hex(traced.digest));
  save_spans(spans, opt, rr);
}

RunResult run_sim_workload(const WorkloadSpec& spec, const Options& opt) {
  RunResult rr;
  Inputs in = generate_inputs(spec, opt, rr);
  // Half the set-up repetitions run before the passes and half after them:
  // a shared host's speed changes over seconds, and the median of both
  // halves follows the whole run rather than one moment of it.
  SetupTimes setup;
  set_up(spec, opt, in, kSetupReps / 2, setup);
  if (opt.trace) {
    traced_run(spec, opt, in, rr);
  } else {
    untraced_run(spec, opt, in, rr);
  }
  set_up(spec, opt, in, kSetupReps - kSetupReps / 2, setup);
  rr.metrics["setup_s"] = median(setup.setup_s);
  rr.metrics["jobs.swf_read_s"] = median(setup.swf_s);
  rr.note("setup_reps", static_cast<double>(kSetupReps));
  return rr;
}

}  // namespace

RunResult run_month_deep(const Options& opt) {
  return run_sim_workload(kMonthDeep, opt);
}

RunResult run_fed_ops(const Options& opt) {
  return run_sim_workload(kFedOps, opt);
}

}  // namespace perfbench
