// serve-open: `sbsched serve` on a 128-node machine (DDS/lxf/dynB at L=1K)
// driven by this process over one Unix-socket connection.
//
//  1. Open loop: Poisson submits at a fixed reference rate (submit latency
//     timed from the moment each request was due), then a sweep of higher
//     fixed rates to find the highest one meeting the p99 limit without a
//     growing backlog. The reference jobs are drawn from a generated NCSA
//     1/04 month, and the time scale is derived from their mean demand so
//     that the reference rate offers 75% of the machine.
//  2. Backlog drain: a second server at time scale 1 has its machine held
//     by one full-width job while a seeded 300-job window of a generated
//     NCSA 1/04 month queues behind it; a drain request then makes the
//     service schedule the whole batch. wall_s is the host time from the
//     drain request until the server exits, and the batch's schedule, read
//     back from the server's telemetry, gives the quality figures and the
//     output checks.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "harness.hpp"
#include "sim/outcome.hpp"
#include "obs/json.hpp"
#include "service/protocol.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

extern char** environ;

namespace perfbench {

namespace {

constexpr int kCapacity = sbs::kNcsaCapacity;  ///< the generator's machine
constexpr const char* kPolicyArgs[] = {"--policy=DDS/lxf/dynB", "--nodes=1000"};
/// Job shapes for the reference rate and the drains: the calibrated NCSA
/// generator (src/workload), on the month month-deep simulates.
constexpr const char* kShapeMonth = "1/04";

// Open-loop phase, at one decision per wall millisecond at most.
//  - Reference rate: NCSA jobs at a time scale that makes them offer
//    kReferenceLoad of the machine, so queues form and decisions search them.
//  - Sweep: one-node jobs of at most a minute finish within a millisecond
//    of wall time, so the simulated machine keeps up far past the rates
//    where the single-threaded service loop saturates.
constexpr const char* kLoopBatchMs = "--batch-ms=1";
// The sweep finds the knee by watching the backlog itself; admission
// limits high enough never to trip keep the overload probe from being
// refused (a refusal would be a failed operation).
constexpr const char* kLoopAdmission =
    "--admission=limit=10000000,queue=10000000,think-ms=10000000";
/// jobs/s for service.submit_ms_*: one arrival per decision window of
/// --batch-ms=1 on average.
constexpr double kReferenceRate = 1000.0;
constexpr double kReferenceLoad = 0.75;
/// service.submit_ms_p99 is the median over consecutive windows of this
/// many submits (about 2 s each) of the window's p99, so one host stall
/// moves one window, not the run's figure.
constexpr std::size_t kLatencyWindow = 2000;
constexpr double kSweepStartRate = 4000.0;  ///< then x kSweepFactor per step
constexpr double kSweepFactor = 1.5;
constexpr double kSweepMaxRate = 500000.0;
constexpr Time kSweepMaxRuntime = 60;
constexpr int kBisectSteps = 4;
constexpr int kProbeAttempts = 3;
constexpr double kSweepStepSeconds = 0.5;
constexpr double kLatencyLimitMs = 10.0;    ///< p99 limit for max_rate
// A growing backlog: the queue held deeper than kBacklogLimit for
// kBacklogSamples polls in a row, or kOutstandingLimit unanswered submits.
constexpr double kBacklogLimit = 64.0;
constexpr int kBacklogSamples = 5;
constexpr std::size_t kOutstandingLimit = 2048;
constexpr double kRefusedMs = 1e6;          ///< latency charged to a refusal
constexpr std::int64_t kReferenceStatsEveryNs = 100'000'000;
constexpr std::int64_t kSweepStatsEveryNs = 5'000'000;
constexpr std::int64_t kSettleNs = 5'000'000'000;  ///< wait for stragglers

// Backlog-drain phase.
constexpr int kBatchJobs = 300;
constexpr int kExtraStarts = 8;  ///< start/stop cycles measured for setup_s
constexpr int kDrains = 48;  ///< independent batches; wall_s is their total
constexpr Time kBlockerRuntime = 60;

// --------------------------------------------------------------------------
// Job shapes

struct Shape {
  int nodes = 1;
  Time runtime = 1;
  Time requested = 0;  ///< 0: the service estimates with the runtime
  int user = 0;
};

/// The in-window jobs of one generated kShapeMonth, in submit order.
std::vector<Shape> month_shapes(std::uint64_t seed) {
  sbs::GeneratorConfig g;
  g.seed = seed;
  std::vector<Shape> shapes;
  for (const sbs::Job& j : sbs::generate_month(kShapeMonth, g).jobs)
    if (j.in_window) shapes.push_back({j.nodes, j.runtime, j.requested, j.user});
  SBS_CHECK_MSG(shapes.size() >= static_cast<std::size_t>(kBatchJobs),
                "generated month too small for a drain batch");
  return shapes;
}

/// Sweep shapes: one node for 1..kSweepMaxRuntime seconds, equally likely.
std::vector<Shape> sweep_shapes() {
  std::vector<Shape> shapes;
  for (Time r = 1; r <= kSweepMaxRuntime; ++r) shapes.push_back({1, r, 0, 0});
  return shapes;
}

/// Virtual seconds per wall second at which kReferenceRate submits drawn
/// uniformly from `pool` offer kReferenceLoad of the machine.
std::int64_t reference_time_scale(const std::vector<Shape>& pool) {
  double demand = 0.0;  // mean node-seconds per job
  for (const Shape& s : pool)
    demand += static_cast<double>(s.nodes) * static_cast<double>(s.runtime);
  demand /= static_cast<double>(pool.size());
  return std::max<std::int64_t>(
      1, std::llround(kReferenceRate * demand / (kReferenceLoad * kCapacity)));
}

// --------------------------------------------------------------------------
// Server process

class ServerProcess {
 public:
  ServerProcess(const Options& opt, const std::string& tag,
                std::int64_t time_scale, std::vector<std::string> extra) {
    socket_ = opt.work_dir + "/" + tag + ".sock";
    ::unlink(socket_.c_str());
    const std::string log = opt.work_dir + "/" + tag + ".log";
    std::vector<std::string> args = {opt.sbsched_path, "serve",
                                     "--socket=" + socket_,
                                     "--capacity=" + std::to_string(kCapacity),
                                     "--time-scale=" + std::to_string(time_scale)};
    for (const char* a : kPolicyArgs) args.emplace_back(a);
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const std::int64_t t0 = now_ns();
    const int rc = posix_spawn(&pid_, argv[0], &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    SBS_CHECK_MSG(rc == 0, "cannot start " << opt.sbsched_path << ": "
                                           << std::strerror(rc));
    // Ready once the socket accepts a connection. The destructor does not
    // run for a constructor that throws, so stop the child here.
    try {
      for (;;) {
        fd_ = try_connect();
        if (fd_ >= 0) break;
        wait_exit(0.0);  // reaps the child if it has already exited
        SBS_CHECK_MSG(!exited_, "sbsched serve exited during start-up; see " << log);
        SBS_CHECK_MSG(seconds_between(t0, now_ns()) < 20.0,
                      "sbsched serve did not accept within 20 s");
        ::usleep(200);
      }
    } catch (...) {
      stop();
      throw;
    }
    setup_s_ = seconds_between(t0, now_ns());
  }

  ~ServerProcess() { stop(); }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int fd() const { return fd_; }
  double setup_s() const { return setup_s_; }

  /// Waits up to `timeout_s` for the process to end; true on exit code 0.
  bool wait_exit(double timeout_s) {
    const std::int64_t t0 = now_ns();
    while (!exited_) {
      int status = 0;
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        exited_ = true;
        exit_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        break;
      }
      if (seconds_between(t0, now_ns()) > timeout_s) return false;
      ::usleep(100);
    }
    return exit_ok_;
  }

  /// Peak resident set of the server so far, in MiB (VmHWM).
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line))
      if (line.rfind("VmHWM:", 0) == 0)
        return std::stod(line.substr(6)) / 1024.0;  // kB
    return 0.0;
  }

 private:
  void stop() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    if (pid_ > 0 && !exited_) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      exited_ = true;
    }
  }

  int try_connect() const {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    SBS_CHECK_MSG(fd >= 0, "socket(): " << std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    SBS_CHECK_MSG(socket_.size() < sizeof(addr.sun_path),
                  "socket path too long: " << socket_);
    std::strncpy(addr.sun_path, socket_.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      return -1;
    }
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    return fd;
  }

  std::string socket_;
  pid_t pid_ = -1;
  int fd_ = -1;
  double setup_s_ = 0.0;
  bool exited_ = false;
  bool exit_ok_ = false;
};

// --------------------------------------------------------------------------
// Pipelined client over one nonblocking connection

class Client {
 public:
  explicit Client(int fd) : fd_(fd) {}

  std::int64_t send(std::string_view payload) {
    sbs::service::encode_frame(payload, out_);
    ++requests_;
    flush();
    return requests_;
  }

  void flush() {
    while (!out_.empty()) {
      const ssize_t n = ::send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        SBS_CHECK_MSG(false, "send(): " << std::strerror(errno));
      }
      out_.erase(0, static_cast<std::size_t>(n));
    }
  }

  /// Waits until `deadline_ns` for input (or writability while output is
  /// pending) and returns every complete response received, with its
  /// arrival time. The wait spins rather than sleeps: a sleeping client's
  /// own wake-up delay would be charged to the server as latency.
  std::vector<std::pair<std::int64_t, sbs::obs::JsonValue>> poll_until(
      std::int64_t deadline_ns) {
    std::vector<std::pair<std::int64_t, sbs::obs::JsonValue>> got;
    pollfd p{fd_, static_cast<short>(POLLIN | (out_.empty() ? 0 : POLLOUT)), 0};
    const timespec zero{0, 0};
    int r = 0;
    do {
      r = ::ppoll(&p, 1, &zero, nullptr);
      SBS_CHECK_MSG(r >= 0 || errno == EINTR, "ppoll(): " << std::strerror(errno));
    } while (r <= 0 && now_ns() < deadline_ns);
    if (r <= 0) return got;
    if (p.revents & POLLOUT) flush();
    if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
      char buf[65536];
      for (;;) {
        const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n > 0) {
          decoder_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
          continue;
        }
        if (n == 0) {
          closed_ = true;
          break;
        }
        if (errno == EINTR) continue;
        break;  // EAGAIN: drained
      }
      const std::int64_t t = now_ns();
      while (auto frame = decoder_.next())
        got.emplace_back(t, sbs::obs::parse_json(*frame));
    }
    return got;
  }

  /// Closed-loop request: sends and blocks for the response with that id.
  sbs::obs::JsonValue call(const std::string& payload, std::int64_t id,
                           double timeout_s = 10.0) {
    send(payload);
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
    for (;;) {
      for (auto& [t, v] : poll_until(std::min(deadline, now_ns() + 10'000'000))) {
        (void)t;
        const sbs::obs::JsonValue* rid = v.find("id");
        if (rid != nullptr && rid->as_int() == id) return v;
      }
      SBS_CHECK_MSG(!closed_, "server closed the connection");
      SBS_CHECK_MSG(now_ns() < deadline, "no response to request " << id);
    }
  }

  std::uint64_t requests() const { return static_cast<std::uint64_t>(requests_); }
  bool closed() const { return closed_; }

 private:
  int fd_;
  std::string out_;
  sbs::service::FrameDecoder decoder_;
  std::int64_t requests_ = 0;
  bool closed_ = false;
};

std::string submit_payload(std::int64_t id, const Shape& s) {
  sbs::obs::JsonWriter w;
  w.begin_object()
      .field("op", "submit")
      .field("id", id)
      .field("nodes", s.nodes)
      .field("runtime", static_cast<std::int64_t>(s.runtime));
  if (s.requested > 0) w.field("requested", static_cast<std::int64_t>(s.requested));
  w.field("user", s.user).end_object();
  return w.str();
}

std::string op_payload(const char* op, std::int64_t id, std::int64_t job = -1) {
  sbs::obs::JsonWriter w;
  w.begin_object().field("op", op).field("id", id);
  if (job >= 0) w.field("job", job);
  w.end_object();
  return w.str();
}

double num(const sbs::obs::JsonValue& v, const char* key) {
  const sbs::obs::JsonValue* f = v.find(key);
  SBS_CHECK_MSG(f != nullptr, "response lacks \"" << key << "\"");
  return f->as_double();
}

// --------------------------------------------------------------------------
// Open loop

/// Ids: submits count up from 1; control requests use a separate range.
constexpr std::int64_t kControlIds = std::int64_t{1} << 40;

struct SubmitRecord {
  Shape shape;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  double latency_ms = -1.0;  ///< -1 = no response yet
  int job = -1;              ///< server job id once accepted
  bool refused = false;
};

struct StepResult {
  double rate = 0.0;
  std::vector<double> latency_ms;  ///< refusals and timeouts at kRefusedMs
  std::vector<double> late_ms;     ///< send time minus due time
  std::vector<double> queue_depth; ///< sampled by stats polls
  std::uint64_t refused = 0;
  std::uint64_t unanswered = 0;
  bool backlog = false;  ///< the queue outgrew kBacklogLimit; step cut short
  bool passes() const {
    return refused == 0 && unanswered == 0 && !backlog &&
           quantiles(latency_ms).tail <= kLatencyLimitMs;
  }
};

class OpenLoop {
 public:
  OpenLoop(Client& client, std::uint64_t seed, SpanRecorder* spans)
      : client_(client), rng_(seed), spans_(spans) {}

  /// Submits on a Poisson schedule at `rate` for `seconds`, polling the
  /// server's queue depth every `stats_every_ns`. With `stop_on_backlog`,
  /// a queue held deeper than kBacklogLimit fails the step and stops further
  /// sends (they are not attempted), so an overload probe ends before the
  /// service starts refusing work.
  StepResult run_step(double rate, double seconds, const std::vector<Shape>& pool,
                      std::int64_t stats_every_ns, bool stop_on_backlog) {
    StepResult st;
    st.rate = rate;
    const std::int64_t begin = now_ns() + 2'000'000;
    const std::int64_t end = begin + static_cast<std::int64_t>(seconds * 1e9);
    const int step_span = spans_ ? spans_->begin("serve.step") : -1;
    const std::size_t first = records_.size();
    std::int64_t due = begin;
    for (;;) {
      due += static_cast<std::int64_t>(rng_.exponential(1e9 / rate));
      if (due >= end) break;
      SubmitRecord r;
      r.shape = pool[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
      r.due_ns = due;
      records_.push_back(r);
    }
    std::size_t last = records_.size();
    std::size_t cursor = first;
    std::size_t outstanding = 0;
    std::int64_t next_stats = begin;
    std::int64_t pending_stats = -1;
    int deep_polls = 0;
    const std::int64_t settle_end = end + kSettleNs;
    while (true) {
      const std::int64_t now = now_ns();
      while (cursor < last && records_[cursor].due_ns <= now) {
        SubmitRecord& r = records_[cursor];
        r.sent_ns = now_ns();
        client_.send(submit_payload(static_cast<std::int64_t>(cursor) + 1, r.shape));
        st.late_ms.push_back(static_cast<double>(r.sent_ns - r.due_ns) * 1e-6);
        ++cursor;
        ++outstanding;
      }
      if (now >= next_stats && pending_stats < 0 && cursor < last) {
        pending_stats = kControlIds + (++control_);
        client_.send(op_payload("stats", pending_stats));
        next_stats = now + stats_every_ns;
      }
      if (stop_on_backlog && outstanding > kOutstandingLimit && !st.backlog) {
        st.backlog = true;
        last = cursor;  // the rest is never sent
      }
      if (cursor == last && outstanding == 0 && pending_stats < 0) break;
      if (now >= settle_end) break;
      std::int64_t wake = cursor < last ? records_[cursor].due_ns : settle_end;
      if (cursor < last) wake = std::min(wake, std::max(next_stats, now));
      for (auto& [t, v] : client_.poll_until(wake)) {
        const std::int64_t id = static_cast<std::int64_t>(num(v, "id"));
        if (id == pending_stats) {
          const double depth = num(v, "queue_depth");
          st.queue_depth.push_back(depth);
          pending_stats = -1;
          deep_polls = depth > kBacklogLimit ? deep_polls + 1 : 0;
          if (stop_on_backlog && deep_polls >= kBacklogSamples && !st.backlog) {
            st.backlog = true;
            last = cursor;  // the rest is never sent
          }
          continue;
        }
        if (id < 1 || id > static_cast<std::int64_t>(last)) continue;
        SubmitRecord& r = records_[static_cast<std::size_t>(id - 1)];
        if (r.latency_ms >= 0) continue;
        --outstanding;
        if (v.find("status")->as_string() == "accepted") {
          r.job = static_cast<int>(num(v, "job"));
          r.latency_ms = static_cast<double>(t - r.due_ns) * 1e-6;
        } else {
          r.refused = true;
          r.latency_ms = kRefusedMs;
          ++st.refused;
        }
        if (spans_) spans_->add("service.request", r.due_ns, t, step_span, id);
      }
      SBS_CHECK_MSG(!client_.closed(), "server closed the connection");
    }
    records_.resize(last);
    for (std::size_t i = first; i < last; ++i) {
      SubmitRecord& r = records_[i];
      if (r.latency_ms < 0) {
        ++st.unanswered;
        r.latency_ms = kRefusedMs;
        r.refused = true;
      }
      st.latency_ms.push_back(r.latency_ms);
    }
    if (spans_) spans_->end(step_span);
    // Let the service work off any queue before the next step.
    for (int tries = 0; num(stats_call(), "queue_depth") > 0; ++tries) {
      SBS_CHECK_MSG(tries < 5000, "the service never drained its queue");
      ::usleep(1000);
    }
    return st;
  }

  sbs::obs::JsonValue stats_call() {
    const std::int64_t id = kControlIds + (++control_);
    return client_.call(op_payload("stats", id), id);
  }

  const std::vector<SubmitRecord>& records() const { return records_; }

 private:
  Client& client_;
  sbs::Rng rng_;
  SpanRecorder* spans_;
  std::vector<SubmitRecord> records_;
  std::int64_t control_ = 0;
};

/// Median over consecutive kLatencyWindow-sample windows of each window's
/// tail percentile; the whole sample's tail when it holds one window.
double windowed_tail(const std::vector<double>& v) {
  if (v.size() < 2 * kLatencyWindow) return quantiles(v).tail;
  std::vector<double> tails;
  for (std::size_t i = 0; i + kLatencyWindow <= v.size(); i += kLatencyWindow)
    tails.push_back(quantiles(std::vector<double>(
        v.begin() + static_cast<std::ptrdiff_t>(i),
        v.begin() + static_cast<std::ptrdiff_t>(i + kLatencyWindow))).tail);
  return median(tails);
}

// --------------------------------------------------------------------------
// Backlog drain

struct DrainResult {
  double wall_s = 0.0;
  double max_wait_h = 0.0;
  double avg_bsld = 0.0;
  std::uint64_t jobs = 0;
  std::uint64_t failed = 0;
  std::uint64_t telemetry_lines = 0;
  std::uint64_t telemetry_bytes = 0;
  std::vector<double> think_us;  ///< per decision, from the telemetry
  std::string first_error;
  std::uint64_t digest = 0;  ///< relative to the blocker's start
};

DrainResult backlog_drain(const Options& opt, std::uint64_t seed,
                          std::vector<double>& setup_s, SpanRecorder* spans,
                          const std::string& tag) {
  DrainResult dr;
  const std::string telemetry = opt.work_dir + "/" + tag + ".jsonl";
  ServerProcess server(opt, tag, 1, {"--telemetry=" + telemetry});
  setup_s.push_back(server.setup_s());
  Client client(server.fd());

  // Hold the machine with one full-width job so the batch queues intact.
  std::int64_t id = 1;
  sbs::obs::JsonValue v =
      client.call(submit_payload(id, Shape{kCapacity, kBlockerRuntime, 0, 0}), id);
  SBS_CHECK_MSG(v.find("status")->as_string() == "accepted", "blocker refused");
  const auto blocker = static_cast<std::int64_t>(num(v, "job"));
  for (int tries = 0;; ++tries) {
    ++id;
    v = client.call(op_payload("status", id, blocker), id);
    if (v.find("state")->as_string() == "running") break;
    SBS_CHECK_MSG(tries < 5000, "blocker never started");
    ::usleep(1000);
  }

  // A window of consecutive jobs, at a seeded offset, of a month generated
  // from the same seed.
  const std::vector<Shape> month = month_shapes(seed);
  sbs::Rng rng(seed);
  const auto offset = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(month.size()) - kBatchJobs));
  const std::int64_t first_id = id + 1;
  for (int k = 0; k < kBatchJobs; ++k)
    client.send(submit_payload(++id, month[offset + static_cast<std::size_t>(k)]));
  std::size_t outstanding = kBatchJobs;
  std::uint64_t accepted = 0;
  const std::int64_t deadline = now_ns() + 10'000'000'000;
  while (outstanding > 0) {
    SBS_CHECK_MSG(now_ns() < deadline, "batch submits went unanswered");
    for (auto& [t, r] : client.poll_until(now_ns() + 10'000'000)) {
      (void)t;
      const auto rid = static_cast<std::int64_t>(num(r, "id"));
      if (rid < first_id || rid > id) continue;
      --outstanding;
      if (r.find("status")->as_string() == "accepted") ++accepted;
    }
  }
  if (accepted != static_cast<std::uint64_t>(kBatchJobs)) {
    dr.failed += kBatchJobs - accepted;
    dr.first_error = "the service refused part of the batch";
  }

  ++id;
  const int span = spans ? spans->begin("service.drain") : -1;
  const std::int64_t t0 = now_ns();
  client.send(op_payload("drain", id));
  const bool clean = server.wait_exit(120.0);
  const std::int64_t t1 = now_ns();
  if (spans) spans->end(span);
  dr.wall_s = seconds_between(t0, t1);
  SBS_CHECK_MSG(clean, "sbsched serve did not drain and exit cleanly");

  // Read the schedule back from the server's telemetry.
  std::ifstream in(telemetry);
  std::string line;
  std::unordered_map<int, Placement> jobs;
  while (std::getline(in, line)) {
    ++dr.telemetry_lines;
    dr.telemetry_bytes += line.size() + 1;
    const sbs::obs::JsonValue rec = sbs::obs::parse_json(line);
    const std::string& type = rec.find("type")->as_string();
    if (type == "decision") dr.think_us.push_back(num(rec, "think_us"));
    if (type != "submit" && type != "start" && type != "finish") continue;
    const int job = static_cast<int>(num(rec, "job"));
    const auto t = static_cast<Time>(num(rec, "t"));
    Placement& p = jobs[job];
    p.job = job;
    if (type == "submit") {
      p.submit = t;
      p.nodes = static_cast<int>(num(rec, "nodes"));
      p.runtime = static_cast<Time>(num(rec, "runtime"));
    } else if (type == "start") {
      p.start = t;
    } else {
      p.end = t;
    }
  }
  std::vector<Placement> placements;
  for (auto& [job, p] : jobs) placements.push_back(p);
  // Server ids count from 0 in admission order; the blocker is the first.
  const CheckReport check = check_schedule(placements, std::vector<int>{kCapacity},
                                           static_cast<std::size_t>(kBatchJobs) + 1);
  dr.jobs = check.checked;
  dr.failed += check.failed;
  if (!check.ok() && dr.first_error.empty()) dr.first_error = check.first_error;
  // The service's virtual clock follows the wall clock (one virtual second
  // per wall second here). A batch drains within the server's first wall
  // second, before that clock has moved on its own, so times measured from
  // the blocker's start repeat from one drain of the batch to the next.
  Time blocker_start = 0;
  for (const Placement& p : placements)
    if (p.job == blocker) blocker_start = p.start;
  std::vector<Placement> relative = placements;
  for (Placement& p : relative) {
    p.start -= blocker_start;
    p.end -= blocker_start;
  }
  dr.digest = schedule_digest(relative);
  double wait_max = 0.0, bsld_sum = 0.0;
  std::uint64_t n = 0;
  for (const Placement& p : placements) {
    if (p.job == blocker) continue;
    sbs::JobOutcome o;
    o.job.submit = p.submit;
    o.job.runtime = p.runtime;
    o.start = p.start;
    o.end = p.end;
    wait_max = std::max(wait_max, sbs::to_hours(o.wait()));
    bsld_sum += sbs::bounded_slowdown(o);
    ++n;
  }
  dr.max_wait_h = wait_max;
  dr.avg_bsld = n ? bsld_sum / static_cast<double>(n) : 0.0;
  return dr;
}

// --------------------------------------------------------------------------

struct LoopResult {
  StepResult reference;
  std::vector<StepResult> sweep;
  double max_rate = 0.0;
  double think_p50 = 0.0, think_p99 = 0.0;
  double idle_rtt_us = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::string first_error;
};

LoopResult open_loop(const Options& opt, const std::vector<Shape>& reference,
                     std::int64_t time_scale, std::vector<double>& setup_s,
                     SpanRecorder* spans) {
  LoopResult lr;
  ServerProcess server(opt, "serve-open", time_scale, {kLoopBatchMs, kLoopAdmission});
  setup_s.push_back(server.setup_s());
  Client client(server.fd());
  OpenLoop loop(client, sub_seed(opt.seed, 1), spans);

  // Floor of the submit latency: closed-loop round trips on an idle server.
  std::vector<double> rtt;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t t0 = now_ns();
    loop.stats_call();
    rtt.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  lr.idle_rtt_us = median(rtt);

  lr.reference = loop.run_step(kReferenceRate, std::max(1.0, opt.seconds * 0.4),
                               reference, kReferenceStatsEveryNs, false);
  // Decision latency and memory at the reference rate, before the sweep
  // drives the service to its limit.
  const sbs::obs::JsonValue ref_stats = loop.stats_call();
  lr.think_p50 = num(ref_stats, "think_p50_us");
  lr.think_p99 = num(ref_stats, "think_p99_us");
  lr.peak_rss_mb = server.peak_rss_mb();
  // Geometric ladder up to the first failing rate, then a log-space
  // bisection between the last passing and the first failing rate.
  // A rate fails only when kProbeAttempts steps in a row fail, so a host
  // stall cannot end the sweep.
  const std::vector<Shape> sweep = sweep_shapes();
  const auto probe = [&](double rate) {
    for (int attempt = 0; attempt < kProbeAttempts; ++attempt) {
      lr.sweep.push_back(loop.run_step(rate, kSweepStepSeconds, sweep,
                                       kSweepStatsEveryNs, true));
      if (lr.sweep.back().passes()) return true;
    }
    return false;
  };
  double pass = 0.0, fail = 0.0;
  for (double rate = kSweepStartRate; rate <= kSweepMaxRate; rate *= kSweepFactor) {
    if (!probe(rate)) {
      fail = rate;
      break;
    }
    pass = rate;
  }
  for (int i = 0; i < kBisectSteps && pass > 0.0 && fail > 0.0; ++i) {
    const double mid = std::sqrt(pass * fail);
    (probe(mid) ? pass : fail) = mid;
  }
  lr.max_rate = pass;

  // Let every admitted job finish, then check each one and reconcile the
  // client's counts with the server's counters.
  sbs::obs::JsonValue stats = loop.stats_call();
  for (int tries = 0; num(stats, "running") + num(stats, "queue_depth") > 0; ++tries) {
    SBS_CHECK_MSG(tries < 2000, "admitted jobs never finished");
    ::usleep(2000);
    stats = loop.stats_call();
  }

  std::vector<Placement> placements;
  std::uint64_t accepted = 0;
  const auto& records = loop.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SubmitRecord& r = records[i];
    ++lr.attempted;
    if (r.refused) {
      ++lr.failed;
      ++lr.rejected;
      continue;
    }
    ++accepted;
  }
  // Status of every accepted job, pipelined.
  std::int64_t id = kControlIds * 2;
  std::unordered_map<std::int64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].refused) continue;
    client.send(op_payload("status", ++id, records[i].job));
    by_id[id] = i;
  }
  const std::int64_t deadline = now_ns() + 10'000'000'000;
  while (!by_id.empty()) {
    SBS_CHECK_MSG(now_ns() < deadline, "status requests went unanswered");
    for (auto& [t, v] : client.poll_until(now_ns() + 10'000'000)) {
      (void)t;
      const auto it = by_id.find(static_cast<std::int64_t>(num(v, "id")));
      if (it == by_id.end()) continue;
      const SubmitRecord& r = records[it->second];
      Placement p;
      p.job = r.job;
      p.nodes = r.shape.nodes;
      p.runtime = r.shape.runtime;
      p.completed = v.find("state")->as_string() == "done";
      if (p.completed) {
        p.start = static_cast<Time>(num(v, "start"));
        p.end = static_cast<Time>(num(v, "end"));
      }
      // The service stamps submit times itself; the drain phase checks
      // start >= submit against its telemetry.
      p.submit = p.start;
      placements.push_back(p);
      by_id.erase(it);
    }
  }
  // Every job this server admitted came from this loop: ids 0..accepted-1.
  const CheckReport check = check_schedule(placements, std::vector<int>{kCapacity},
                                           accepted);
  lr.failed += check.failed;
  if (!check.ok()) lr.first_error = check.first_error;

  const sbs::obs::JsonValue final_stats = loop.stats_call();
  const double server_rejected = num(final_stats, "rejected_backpressure") +
                                 num(final_stats, "rejected_shed") +
                                 num(final_stats, "rejected_drain");
  // The final stats request is the client's last one and the server counts
  // it before answering.
  if (num(final_stats, "admitted") != static_cast<double>(accepted) ||
      num(final_stats, "completed") != static_cast<double>(accepted) ||
      server_rejected != static_cast<double>(lr.rejected) ||
      num(final_stats, "requests") != static_cast<double>(client.requests()) ||
      num(final_stats, "protocol_errors") != 0.0) {
    lr.failed += lr.attempted - lr.failed;
    if (lr.first_error.empty())
      lr.first_error = "client counts do not reconcile with the server's counters";
  }

  const std::int64_t drain_id = ++id;
  client.send(op_payload("drain", drain_id));
  SBS_CHECK_MSG(server.wait_exit(60.0), "sbsched serve did not drain cleanly");
  return lr;
}

void fill_step_notes(const LoopResult& lr, RunResult& rr) {
  rr.note("submit_ms_reference_rate", kReferenceRate);
  rr.note("reference_offered_load", kReferenceLoad);
  rr.note("submit_ms", quantiles(lr.reference.latency_ms));
  rr.note("submit_ms_p99_windows",
          static_cast<double>(lr.reference.latency_ms.size() / kLatencyWindow));
  rr.note("latency_limit_ms_p99", kLatencyLimitMs);
  std::ostringstream steps;
  steps << "[";
  for (std::size_t i = 0; i < lr.sweep.size(); ++i) {
    const StepResult& s = lr.sweep[i];
    const Quantiles q = quantiles(s.latency_ms);
    steps << (i ? "," : "") << "{\"rate\":" << s.rate << ",\"n\":" << q.n
          << ",\"p50_ms\":" << q.p50 << ",\"tail_ms\":" << q.tail
          << ",\"tail_q\":" << q.tail_q << ",\"refused\":" << s.refused
          << ",\"backlog\":" << (s.backlog ? "true" : "false")
          << ",\"passes\":" << (s.passes() ? "true" : "false") << "}";
  }
  steps << "]";
  rr.detail["sweep"] = steps.str();
}

}  // namespace

RunResult run_serve_open(const Options& opt) {
  RunResult rr;
  std::vector<double> setup_s;
  SpanRecorder spans;
  SpanRecorder* sp = opt.trace ? &spans : nullptr;

  const std::vector<Shape> reference = month_shapes(sub_seed(opt.seed, 0));
  const std::int64_t time_scale = reference_time_scale(reference);

  // Extra starts and stops, so set-up is a median over many starts.
  for (int i = 0; i < kExtraStarts; ++i) {
    ServerProcess server(opt, "serve-start", time_scale, {kLoopBatchMs, kLoopAdmission});
    setup_s.push_back(server.setup_s());
    Client client(server.fd());
    client.send(op_payload("drain", 1));
    SBS_CHECK_MSG(server.wait_exit(30.0), "sbsched serve did not drain cleanly");
  }

  const LoopResult lr = open_loop(opt, reference, time_scale, setup_s, sp);
  rr.attempted += lr.attempted;
  rr.failed += lr.failed;
  if (!lr.first_error.empty()) rr.fail("open loop: " + lr.first_error);

  // kDrains independently seeded batches, one fresh server each, then the
  // first batch once more (with spans on in a traced run). Both drains of
  // the first batch must schedule it the same way.
  std::vector<DrainResult> drains;
  for (int i = 0; i <= kDrains; ++i) {
    const bool repeat = i == kDrains;
    drains.push_back(backlog_drain(
        opt, sub_seed(opt.seed, 2 + static_cast<std::uint64_t>(repeat ? 0 : i)),
        setup_s, repeat ? sp : nullptr, "serve-drain-" + std::to_string(i)));
    const DrainResult& d = drains.back();
    rr.attempted += static_cast<std::uint64_t>(kBatchJobs);
    rr.failed += d.failed;
    if (d.failed > 0) rr.fail("backlog drain: " + d.first_error);
    if (repeat && d.digest != drains.front().digest) {
      rr.failed += static_cast<std::uint64_t>(kBatchJobs) - d.failed;
      rr.fail(std::string("schedule digest differs between two drains of "
                          "batch 0 (the second ") +
              (opt.trace ? "traced)" : "untraced)"));
    }
  }
  double drain_wall = 0.0, wait_sum = 0.0, bsld_sum = 0.0;
  std::vector<double> think_us;
  for (int i = 0; i < kDrains; ++i) {
    const DrainResult& d = drains[static_cast<std::size_t>(i)];
    drain_wall += d.wall_s;
    wait_sum += d.max_wait_h;
    bsld_sum += d.avg_bsld;
    think_us.insert(think_us.end(), d.think_us.begin(), d.think_us.end());
  }
  const Quantiles dq = quantiles(think_us);
  std::ostringstream walls;
  for (std::size_t i = 0; i < drains.size(); ++i)
    walls << (i ? "," : "[") << drains[i].wall_s;
  rr.detail["drain_wall_s"] = walls.str() + "]";

  const Quantiles sq = quantiles(lr.reference.latency_ms);
  const Quantiles late = quantiles(lr.reference.late_ms);
  auto& m = rr.metrics;
  m["setup_s"] = median(setup_s);
  m["wall_s"] = drain_wall;
  m["decide_us_p50"] = dq.p50;
  m["decide_us_p99"] = dq.tail;
  m["peak_rss_mb"] = lr.peak_rss_mb;
  m["max_wait_h"] = wait_sum / kDrains;  // mean of the batches' max waits
  m["avg_bsld"] = bsld_sum / kDrains;     // batches are the same size
  m["service.submit_ms_p50"] = sq.p50;
  m["service.submit_ms_p99"] = windowed_tail(lr.reference.latency_ms);
  m["max_rate_jobs_s"] = lr.max_rate;

  m["service.think_us_p50"] = lr.think_p50;
  m["service.think_us_p99"] = lr.think_p99;
  std::vector<double> depth = lr.reference.queue_depth;
  for (const StepResult& s : lr.sweep)
    depth.insert(depth.end(), s.queue_depth.begin(), s.queue_depth.end());
  double depth_sum = 0.0;
  for (const double d : depth) depth_sum += d;
  m["service.queue_depth_mean"] =
      depth.empty() ? 0.0 : depth_sum / static_cast<double>(depth.size());
  m["service.rejected"] = static_cast<double>(lr.rejected);
  m["service.idle_rtt_us"] = lr.idle_rtt_us;
  m["service.gen_late_ms_p99"] = late.tail;
  // One batch's telemetry stream as the server wrote it.
  m["obs.lines"] = static_cast<double>(drains.front().telemetry_lines);
  m["obs.bytes"] = static_cast<double>(drains.front().telemetry_bytes);
  fill_step_notes(lr, rr);
  rr.note("generator_late_ms", late);
  rr.note("decide_us", dq);
  rr.note("drain_batch_jobs", static_cast<double>(kBatchJobs));
  rr.note("open_loop_time_scale", static_cast<double>(time_scale));
  rr.note("schedule_digest", hex(drains.front().digest));
  rr.note("setup_reps", static_cast<double>(setup_s.size()));

  if (opt.trace) {
    // The spans are client-side, so this mostly shows host noise.
    m["trace.overhead_frac"] = drains.back().wall_s / drains.front().wall_s - 1.0;
    rr.note("untraced_wall_s", drains.front().wall_s);
    rr.note("traced_wall_s", drains.back().wall_s);
    save_spans(spans, opt, rr);
  }
  for (const MetricDef& d : per_layer_metrics()) {
    const std::string name(d.name);
    if (m.count(name) == 0 && name != "trace.overhead_frac")
      rr.not_exercised.push_back(name);
  }
  return rr;
}

}  // namespace perfbench
