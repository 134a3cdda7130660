// fmtk_perfbench: one run of one workload.
//
//   fmtk_perfbench --workload warm_mix --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics against the shipped server
// (fmtk_serve, started as a child process and driven over loopback) or, for
// toolbox_batch, against the library in-process. --trace 1 replays the same
// generated requests through each layer's public functions with spans
// recorded and reports the per-layer metrics. The last line of standard
// output is the result object; the line before it is the full record
// (provenance, sample counts, the open-loop staircase).

#include <sched.h>
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "analysis/datalog_analyzer.h"
#include "base/hash.h"
#include "datalog/program.h"
#include "planner/planner.h"
#include "replay.h"
#include "server/json_value.h"
#include "server/query_server.h"
#include "toolbox.h"
#include "util.h"
#include "workloads.h"

namespace fmtkbench {
namespace {

constexpr int kSetupReps = 9;
/// Write samples taken in each pause between two open-loop steps, so the
/// samples spread over the open-loop part of the run rather than one burst.
constexpr int kWritesPerGap = 4;
constexpr int kBatchLoadsPerSample = 10;
/// Share of --seconds spent in the closed loop; the rest is the open-loop
/// staircase.
constexpr double kClosedShare = 0.6;
/// The open-loop staircase: step k offers base_rate * kGridRatio^k, a
/// fixed grid, so parent and change are offered the same rates. It starts
/// at kStartRung, climbs two rungs after a pass until the first failure,
/// then one rung up after a pass and one down after a failure, and so
/// settles around the highest rate that meets the latency limit.
constexpr double kGridRatio = 1.05;
constexpr int kStartRung = -6;
constexpr int kStaircaseSteps = 24;
/// ingest_query's writer starts one publish every this many milliseconds
/// (back to back when a publish takes longer).
constexpr int kWriterPeriodMs = 200;

/// The open-loop staircase of one workload: the base rate of its grid and
/// the latency limit on a step's p99. Both are fixed (here and in
/// BENCHMARK.json's workload descriptions), so parent and change are
/// offered the same rates. The base rates are about the seed commit's
/// closed-loop throughput on a 4-vCPU x86-64 virtual machine.
struct Staircase {
  double base_rate;  // Operations per second.
  double limit_ms;
};

Staircase StaircaseOf(const std::string& workload) {
  if (workload == "warm_mix") return {800, 50};
  if (workload == "cold_stream") return {3200, 50};
  if (workload == "ingest_query") return {600, 100};
  return {1000, 100};  // toolbox_batch
}

/// Connections of the server workloads: one. A request crosses three
/// threads (load thread, server loop, server worker); with several
/// connections on a 4-vCPU virtual machine of a shared host, the wake-ups
/// between them made the figures swing by a third from run to run, while
/// one connection measures fmtk's own work.
constexpr std::size_t kConnections = 1;

/// In-process callers of toolbox_batch: one per CPU, each pinned to its
/// own. The calls share nothing, and with every CPU in use the figures
/// average the CPUs' drifting speeds instead of following one.
std::size_t ToolboxThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string record;  // Extra JSON members for the record line.
  double steal_pct = 0;  // Host steal during the timed part.
  double scale = 1;  // Reference / measured speed (see kReferenceKernelUs).
};

// --- Issuers: one per load thread --------------------------------------------

/// Sends request `index` (of the workload's distinct set), sets `done` when
/// the response is in, then checks the answer (after the timed part);
/// false for a failed or wrong operation.
class Issuer {
 public:
  virtual ~Issuer() = default;
  virtual bool Issue(std::uint32_t index, Clock::time_point* done) = 0;
};

/// Answers repeat for repeated requests: a response whose answer part was
/// verified once is accepted by hash after that. Shared by a run's load
/// threads.
class VerifiedAnswers {
 public:
  bool Contains(std::uint64_t key) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return keys_.count(key) != 0;
  }
  void Insert(std::uint64_t key) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    keys_.insert(key);
  }

 private:
  mutable std::shared_mutex mu_;
  std::unordered_set<std::uint64_t> keys_;
};

class HttpIssuer : public Issuer {
 public:
  HttpIssuer(const Workload& w, std::uint16_t port, VerifiedAnswers* verified)
      : w_(w), client_(port), verified_(verified) {}

  bool Issue(std::uint32_t index, Clock::time_point* done) override {
    const Request& r = w_.requests[index];
    const int status = client_.RoundTrip(r.raw);
    *done = Clock::now();
    if (status != 200) return false;
    const std::string_view prefix = AnswerPrefix(r, client_.body());
    const std::uint64_t key =
        fmtk::Mix64(std::hash<std::string_view>{}(prefix) ^ index);
    if (verified_->Contains(key)) return true;
    if (!CheckResponse(r, w_.answers[index], client_.body())) {
      std::fprintf(stderr, "perfbench: wrong answer for %s\n  got: %.*s\n",
                   r.text.c_str(), static_cast<int>(client_.body().size()),
                   client_.body().data());
      return false;
    }
    verified_->Insert(key);
    return true;
  }

 private:
  const Workload& w_;
  HttpClient client_;
  VerifiedAnswers* verified_;
};

bool Agrees(const fmtk::Result<bool>& verdict, bool expected) {
  return verdict.ok() && *verdict == expected;
}

class ToolboxIssuer : public Issuer {
 public:
  explicit ToolboxIssuer(const ToolboxBatch& batch) : batch_(batch) {}
  bool Issue(std::uint32_t index, Clock::time_point* done) override {
    const ToolboxOp& op = batch_.ops[index];
    const fmtk::Result<bool> verdict = RunToolboxOp(batch_, op);
    *done = Clock::now();
    return Agrees(verdict, op.expected);
  }

 private:
  const ToolboxBatch& batch_;
};

using IssuerFactory = std::function<std::unique_ptr<Issuer>()>;

// --- Host steal ---------------------------------------------------------------

/// Stolen CPU time (the hypervisor running something else) as a share of
/// all CPU time, from /proc/stat. The benchmark runs on virtual machines of
/// a shared host, which takes several percent of the machine's time in
/// episodes of a minute or more; windows and steps with much steal measure
/// the host rather than fmtk.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double StealPercent(const CpuTicks& from, const CpuTicks& to) {
  const std::uint64_t total = to.total - from.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(to.steal - from.steal) /
                          static_cast<double>(total);
}

/// Samples /proc/stat every 50 ms on its own thread while it lives, so the
/// steal of any stretch of a run can be read during or after it.
class StealMonitor {
 public:
  StealMonitor() {
    samples_.emplace_back(Clock::now(), ReadCpuTicks());
    thread_ = std::thread([this] { Run(); });
  }
  ~StealMonitor() {
    stop_.store(true);
    thread_.join();
  }
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// Steal share (percent) from the last sample at or before `from` to the
  /// first at or after `to` (the latest sample when none is that late).
  double Percent(Clock::time_point from, Clock::time_point to) {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t a = 0;
    while (a + 1 < samples_.size() && samples_[a + 1].first <= from) ++a;
    std::size_t b = a;
    while (b + 1 < samples_.size() && samples_[b].first < to) ++b;
    return StealPercent(samples_[a].second, samples_[b].second);
  }

 private:
  void Run() {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const CpuTicks ticks = ReadCpuTicks();
      std::lock_guard<std::mutex> lock(mu_);
      samples_.emplace_back(Clock::now(), ticks);
    }
  }

  std::mutex mu_;
  std::vector<std::pair<Clock::time_point, CpuTicks>> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // Last: starts after the members it uses.
};

/// Steal while every core spins for one second. An idle virtual machine
/// sees no steal however busy the host is (nothing of it waits to run), so
/// the probe must want every core to measure what a run would get.
double ProbeStealPercent() {
  const CpuTicks before = ReadCpuTicks();
  const Clock::time_point end = Clock::now() + std::chrono::seconds(1);
  std::vector<std::thread> spinners;
  for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency()); ++t) {
    spinners.emplace_back([end] {
      while (Clock::now() < end) {
      }
    });
  }
  for (std::thread& th : spinners) th.join();
  return StealPercent(before, ReadCpuTicks());
}

/// Waiting for a quiet host, and measuring again after a timed part the
/// host disturbed, draw on one budget per checkout, kept in a file in the
/// build directory, so a host that always steals costs a bounded delay.
constexpr double kGateBudgetS = 300;
constexpr const char* kGateBudgetFile = ".bench_build/steal_wait_s";

double GateSpentS() {
  double spent = 0;
  if (std::FILE* f = std::fopen(kGateBudgetFile, "r")) {
    if (std::fscanf(f, "%lf", &spent) != 1) spent = 0;
    std::fclose(f);
  }
  return spent;
}

void ChargeGate(double seconds) {
  const double spent = GateSpentS() + seconds;
  if (std::FILE* f = std::fopen(kGateBudgetFile, "w")) {
    std::fprintf(f, "%.3f\n", spent);
    std::fclose(f);
  }
}

/// Before an end-to-end run: waits while a one-second probe finds the host
/// stealing more than kGateStealPct of the machine, probing again every
/// second, for at most kGateMaxWaitS. The host's steal episodes last a
/// minute or more and slow every figure by up to half; a run that starts in
/// one waits for it to pass rather than measure it. Returns the seconds
/// waited.
constexpr double kGateStealPct = 2.0;
constexpr double kGateMaxWaitS = 60;

double WaitForQuietHost() {
  const double spent = GateSpentS();
  // The first probe is part of every run; the time after it is the wait.
  Clock::time_point first_probe_end;
  double waited = 0;
  for (int probe = 0;; ++probe) {
    if (probe > 0) std::this_thread::sleep_for(std::chrono::seconds(1));
    const double steal = ProbeStealPercent();
    if (probe == 0) first_probe_end = Clock::now();
    waited = probe == 0 ? 0.0 : SecondsBetween(first_probe_end, Clock::now());
    if (steal <= kGateStealPct || waited >= kGateMaxWaitS ||
        spent + waited >= kGateBudgetS) {
      break;
    }
  }
  if (waited > 0) ChargeGate(waited);
  return waited;
}

/// Runs the timed part of a run (`measure` fills a fresh Outcome) and, while
/// the host stole more than kRetryStealPct of the machine during the last
/// attempt and the budget allows, waits for a quiet host and runs it again,
/// at most kMaxAttempts times in all, keeping the attempt with the least
/// steal. Steal episodes come and go within minutes, and one that covers a
/// timed part slows it as a whole (in ten runs of ingest_query the three
/// with 2-4% steal read 25-40% slower than the rest; warm_mix's p99 doubles
/// at 8%), which no median within the run removes. Operations of every
/// attempt count against attempted and failed.
constexpr double kRetryStealPct = 1.5;
constexpr int kMaxAttempts = 3;

bool MeasureOnQuietHost(const std::function<bool(Outcome*)>& measure,
                        Outcome* out) {
  std::vector<Outcome> attempts(1);
  if (!measure(&attempts[0])) return false;
  double waited = 0;
  while (static_cast<int>(attempts.size()) < kMaxAttempts &&
         attempts.back().steal_pct > kRetryStealPct &&
         GateSpentS() < kGateBudgetS) {
    waited += WaitForQuietHost();
    const Clock::time_point start = Clock::now();
    attempts.emplace_back();
    if (!measure(&attempts.back())) return false;
    ChargeGate(SecondsBetween(start, Clock::now()));
  }
  std::size_t kept = 0;
  std::string steal = "[";
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    out->attempted += attempts[i].attempted;
    out->failed += attempts[i].failed;
    if (attempts[i].steal_pct < attempts[kept].steal_pct) kept = i;
    steal += (i > 0 ? "," : "") + JsonNum(attempts[i].steal_pct);
  }
  out->metrics.insert(out->metrics.end(), attempts[kept].metrics.begin(),
                      attempts[kept].metrics.end());
  out->scale = attempts[kept].scale;
  out->record += ",\"attempt_steal_pct\":" + steal + "],\"kept_attempt\":" +
                 std::to_string(kept + 1) + ",\"retry_wait_s\":" +
                 JsonNum(waited) + attempts[kept].record;
  return true;
}

// --- Load loops ---------------------------------------------------------------

/// Pins the calling thread to the `t`-th CPU (modulo their number) of the
/// process's allowed set, when there is more than one. Used when a load has
/// one thread per CPU: no two threads share a CPU, and each CPU's speed
/// (which drifts by a fifth for tens of seconds at a time on a shared
/// virtual machine) enters the figures equally.
void PinToCpu(std::size_t t) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[t % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

struct LoopStats {
  std::vector<double> ms;    // Latencies of successful operations.
  std::vector<double> kernel_us;  // Calibration kernel times (closed loop).
  std::vector<double> at_s;  // Their completion times, from the loop start.
  std::vector<std::uint32_t> index;  // Their request indices.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Clock::time_point start;
  double wall_s = 0;

  void Append(const LoopStats& other) {
    ms.insert(ms.end(), other.ms.begin(), other.ms.end());
    at_s.insert(at_s.end(), other.at_s.begin(), other.at_s.end());
    index.insert(index.end(), other.index.begin(), other.index.end());
    kernel_us.insert(kernel_us.end(), other.kernel_us.begin(), other.kernel_us.end());
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// Calibration: the bench box's CPU speed swings by up to 1.5x over tens of
/// minutes as the shared host's other load comes and goes (in two sets of
/// ten toolbox_batch runs an hour apart, every op took 1.5x as long in the
/// first, with no steal in either), which no median within a run removes
/// and which is larger than any bound a benchmark can keep. So every load
/// thread of the closed loop times a fixed calibration kernel (sorting 16384
/// seeded integers: branches, compares and cache-resident memory, as in
/// fmtk's engines) every kCalibrateMs, between its operations, and the
/// run's times are scaled by kReferenceKernelUs / the kernel's median (and
/// rates by its inverse): every figure is given at the bench box's
/// reference speed. The raw figures stay in the record.
constexpr int kCalibrateMs = 100;
constexpr double kReferenceKernelUs = 1250;

std::atomic<std::uint32_t> kernel_sink{0};  // Keeps the sort's result live.

double CalibrationKernelUs() {
  thread_local std::vector<std::uint32_t> keys(16384);
  std::uint32_t x = 12345;
  for (std::uint32_t& k : keys) {
    x = x * 1664525u + 1013904223u;
    k = x;
  }
  const Clock::time_point start = Clock::now();
  std::sort(keys.begin(), keys.end());
  const double us = MicrosBetween(start, Clock::now());
  kernel_sink.store(keys[keys.size() / 2], std::memory_order_relaxed);
  return us;
}

/// Closed loop: `threads` callers, each sending its next operation when the
/// previous one completes, walking the stream from its own offset, and each
/// timing the calibration kernel every kCalibrateMs.
LoopStats ClosedLoop(const IssuerFactory& factory,
                     const std::vector<std::uint32_t>& stream,
                     std::size_t threads, double seconds) {
  std::vector<LoopStats> per(threads);
  std::vector<std::thread> pool;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::unique_ptr<Issuer> issuer = factory();
      std::size_t pos = t * stream.size() / threads;
      LoopStats& s = per[t];
      if (threads > 1) PinToCpu(t);
      Clock::time_point calibrate = Clock::now();
      while (Clock::now() < deadline) {
        if (Clock::now() >= calibrate) {
          s.kernel_us.push_back(CalibrationKernelUs());
          calibrate = Clock::now() + std::chrono::milliseconds(kCalibrateMs);
        }
        const std::uint32_t index = stream[pos++ % stream.size()];
        const Clock::time_point sent = Clock::now();
        Clock::time_point done;
        ++s.attempted;
        if (issuer->Issue(index, &done)) {
          s.ms.push_back(MicrosBetween(sent, done) / 1000.0);
          s.at_s.push_back(SecondsBetween(start, done));
          s.index.push_back(index);
        } else {
          ++s.failed;
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  LoopStats all;
  all.start = start;
  all.wall_s = SecondsBetween(start, Clock::now());
  for (const LoopStats& s : per) all.Append(s);
  return all;
}

/// The quiet samples of a run, by index: those whose steal is within
/// kQuietMarginPct of the least-stolen sample's, or, when fewer than a
/// quarter are that quiet, the least-stolen quarter. A few percent of steal
/// doubles warm_mix's p99 and takes a fifth off its throughput; medians over
/// the quiet samples move with the host's steal only when it covers nearly
/// all of a run.
constexpr double kQuietMarginPct = 1.0;

std::vector<std::size_t> QuietIndices(const std::vector<double>& steal_pct) {
  std::vector<std::size_t> order(steal_pct.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return steal_pct[a] < steal_pct[b];
  });
  std::size_t keep = 0;
  while (keep < order.size() &&
         steal_pct[order[keep]] <= steal_pct[order[0]] + kQuietMarginPct) {
    ++keep;
  }
  order.resize(std::max(keep, (order.size() + 3) / 4));
  return order;
}

/// Median of the quiet samples.
double QuietMedian(const std::vector<double>& values,
                   const std::vector<double>& steal_pct) {
  std::vector<double> quiet;
  for (const std::size_t i : QuietIndices(steal_pct)) quiet.push_back(values[i]);
  return Median(quiet);
}

/// Closed-loop figures per window of about a second, and their medians
/// over the quiet windows, so a stall of the machine for part of a run
/// moves one window rather than the run's figure.
struct Windowed {
  double ops_per_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::size_t windows = 0;
  std::size_t used = 0;         // Quiet windows the medians are taken over.
  std::size_t min_samples = 0;  // Fewest samples in one window.
  std::vector<double> window_ops;
  std::vector<double> window_steal_pct;
};

Windowed WindowMedians(const LoopStats& loop, StealMonitor& steal) {
  // One-second windows, widened when needed so each window holds enough
  // samples for ten beyond its p99.
  constexpr std::size_t kWindowSamples = 1100;
  const std::size_t windows = std::max<std::size_t>(
      1, std::min(static_cast<std::size_t>(loop.wall_s),
                  loop.ms.size() / kWindowSamples));
  const double width = loop.wall_s / static_cast<double>(windows);
  std::vector<std::vector<double>> by_window(windows);
  for (std::size_t i = 0; i < loop.ms.size(); ++i) {
    const std::size_t w = std::min(
        windows - 1, static_cast<std::size_t>(loop.at_s[i] / width));
    by_window[w].push_back(loop.ms[i]);
  }
  auto at = [&](std::size_t w) {
    return loop.start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(width * static_cast<double>(w)));
  };
  Windowed out;
  out.windows = windows;
  out.min_samples = loop.ms.size();
  for (std::size_t w = 0; w < windows; ++w) {
    out.window_ops.push_back(static_cast<double>(by_window[w].size()) / width);
    out.window_steal_pct.push_back(steal.Percent(at(w), at(w + 1)));
    out.min_samples = std::min(out.min_samples, by_window[w].size());
  }
  const std::vector<std::size_t> quiet = QuietIndices(out.window_steal_pct);
  // p99 over the quiet windows' samples pooled: a window's own p99 rests
  // on its ten slowest samples, the pooled one on ten per window.
  std::vector<double> ops, p50, pooled;
  for (const std::size_t w : quiet) {
    ops.push_back(out.window_ops[w]);
    p50.push_back(Percentile(by_window[w], 0.5));
    pooled.insert(pooled.end(), by_window[w].begin(), by_window[w].end());
  }
  out.used = quiet.size();
  out.ops_per_s = Median(ops);
  out.p50_ms = Median(p50);
  out.p99_ms = Percentile(pooled, 0.99);
  return out;
}

struct StepStats {
  double rate = 0;
  double steal_pct = 0;
  LoopStats loop;
  std::vector<double> late_ms;   // Send time minus due time.
  double final_late_ms = 0;      // Median lateness over the last quarter.
  double p99_ms = 0;
};

/// One open-loop step: operation j is due at start + j / rate and goes to
/// the first thread that is free, in due order, as a queue in front of
/// `threads` connections would hand it out; latency is timed from the due
/// time, so a stall charges every request queued behind it.
StepStats OpenLoopStep(const IssuerFactory& factory,
                       const std::vector<std::uint32_t>& stream,
                       std::size_t stream_offset, std::size_t threads,
                       double rate, double seconds) {
  StepStats step;
  step.rate = rate;
  const std::size_t total =
      std::max<std::size_t>(threads, static_cast<std::size_t>(rate * seconds));
  std::vector<LoopStats> per(threads);
  std::vector<std::vector<std::pair<std::size_t, double>>> late(threads);
  std::vector<std::thread> pool;
  std::vector<std::unique_ptr<Issuer>> issuers;
  for (std::size_t t = 0; t < threads; ++t) issuers.push_back(factory());
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      LoopStats& s = per[t];
      if (threads > 1) PinToCpu(t);
      for (std::size_t j = next++; j < total; j = next++) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(static_cast<double>(j) / rate));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        late[t].emplace_back(j, MicrosBetween(due, sent) / 1000.0);
        ++s.attempted;
        Clock::time_point done;
        if (issuers[t]->Issue(stream[(stream_offset + j) % stream.size()],
                              &done)) {
          s.ms.push_back(MicrosBetween(due, done) / 1000.0);
          s.at_s.push_back(SecondsBetween(start, done));
        } else {
          ++s.failed;
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  std::vector<double> final_late;
  for (std::size_t t = 0; t < threads; ++t) {
    step.loop.Append(per[t]);
    for (const auto& [j, ms] : late[t]) {
      step.late_ms.push_back(ms);
      if (j >= total * 3 / 4) final_late.push_back(ms);
    }
  }
  step.final_late_ms = Median(final_late);
  step.p99_ms = Percentile(step.loop.ms, 0.99);
  step.loop.start = start;
  step.loop.wall_s = SecondsBetween(start, Clock::now());
  return step;
}

/// A step passes when nothing failed, its p99 meets the limit and its
/// backlog is not growing (the median lateness over its last quarter is
/// within the limit).
bool StepPasses(const StepStats& step, double limit_ms) {
  return step.loop.failed == 0 && step.p99_ms <= limit_ms &&
         step.final_late_ms <= limit_ms;
}

/// The closed loop's median latency per distinct request (by index), for
/// workloads with a fixed request set; empty for cold_stream.
std::string PerRequestMedians(const LoopStats& loop) {
  std::map<std::uint32_t, std::vector<double>> by_index;
  for (std::size_t i = 0; i < loop.ms.size(); ++i) {
    by_index[loop.index[i]].push_back(loop.ms[i]);
  }
  if (by_index.size() > 64) return "[]";
  std::string out = "[";
  for (const auto& [index, ms] : by_index) {
    if (out.size() > 1) out += ',';
    out += JsonNum(Median(ms));
  }
  return out + "]";
}

/// A step's outcome. A failing step during which the host stole more than
/// kVoidStealPct of the machine is void: the staircase stays at its rate
/// and the estimate leaves it out.
enum class Verdict { kPass, kFail, kVoid };
constexpr double kVoidStealPct = 2.0;

/// The sustained rate: the mean of the rates offered from the first
/// failing step on (void steps left out), which an up-down staircase spends
/// around the rate that passes half the time; the last passing rate when
/// no step failed.
double SloRate(const std::vector<StepStats>& steps,
               const std::vector<Verdict>& verdicts) {
  std::vector<double> rates;
  double last_pass = steps.front().rate;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (verdicts[i] == Verdict::kPass) last_pass = steps[i].rate;
    if (verdicts[i] == Verdict::kFail ||
        (!rates.empty() && verdicts[i] == Verdict::kPass)) {
      rates.push_back(steps[i].rate);
    }
  }
  if (rates.empty()) return last_pass;
  return std::accumulate(rates.begin(), rates.end(), 0.0) /
         static_cast<double>(rates.size());
}

std::string StaircaseJson(const std::vector<StepStats>& steps,
                          const std::vector<Verdict>& verdicts) {
  static const char* kNames[] = {"pass", "fail", "void"};
  std::string out = "[";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepStats& s = steps[i];
    if (i > 0) out += ',';
    out += "{\"rate\":" + JsonNum(s.rate) + ",\"sent\":" +
           std::to_string(s.loop.attempted) + ",\"failed\":" +
           std::to_string(s.loop.failed) + ",\"p50_ms\":" +
           JsonNum(Percentile(s.loop.ms, 0.5)) + ",\"p99_ms\":" +
           JsonNum(s.p99_ms) + ",\"late_p99_ms\":" +
           JsonNum(Percentile(s.late_ms, 0.99)) + ",\"steal_pct\":" +
           JsonNum(s.steal_pct) + ",\"verdict\":\"" +
           kNames[static_cast<int>(verdicts[i])] + "\"}";
  }
  return out + "]";
}

/// Runs the closed loop, then the open-loop staircase, with `between_steps`
/// (when set) called after every step. Fills the shared e2e metrics; false
/// when `between_steps` fails.
bool MeasureLoad(const IssuerFactory& factory,
                 const std::vector<std::uint32_t>& stream, std::size_t threads,
                 double seconds, const Staircase& staircase,
                 const std::function<bool()>& between_steps, Outcome* out,
                 double* closed_ops) {
  StealMonitor steal;
  const Clock::time_point begin = Clock::now();
  const LoopStats closed =
      ClosedLoop(factory, stream, threads, seconds * kClosedShare);
  const Windowed win = WindowMedians(closed, steal);
  *closed_ops = win.ops_per_s;
  const double kernel_us = Median(closed.kernel_us);
  out->scale = kReferenceKernelUs / kernel_us;
  out->record += ",\"calibration\":{\"kernel_us\":" + JsonNum(kernel_us) +
                 ",\"reference_us\":" + JsonNum(kReferenceKernelUs) +
                 ",\"samples\":" + std::to_string(closed.kernel_us.size()) +
                 ",\"scale\":" + JsonNum(out->scale) + "}";
  out->attempted += closed.attempted;
  out->failed += closed.failed;
  const double step_s = seconds * (1 - kClosedShare) / kStaircaseSteps;
  std::size_t offset = stream.size() / 2;
  std::vector<StepStats> steps;
  std::vector<Verdict> verdicts;
  int rung = kStartRung;
  bool failed_once = false;
  for (int i = 0; i < kStaircaseSteps; ++i) {
    const double rate = staircase.base_rate * std::pow(kGridRatio, rung);
    steps.push_back(OpenLoopStep(factory, stream, offset, threads, rate, step_s));
    StepStats& step = steps.back();
    step.steal_pct = steal.Percent(
        step.loop.start,
        step.loop.start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(step.loop.wall_s)));
    offset += step.loop.attempted;
    out->attempted += step.loop.attempted;
    out->failed += step.loop.failed;
    if (StepPasses(step, staircase.limit_ms)) {
      verdicts.push_back(Verdict::kPass);
      rung += failed_once ? 1 : 2;
    } else if (step.loop.failed == 0 && step.steal_pct > kVoidStealPct) {
      verdicts.push_back(Verdict::kVoid);
    } else {
      verdicts.push_back(Verdict::kFail);
      failed_once = true;
      rung -= 1;
    }
    if (between_steps && !between_steps()) return false;
  }
  out->metrics.push_back({"latency_p50_ms", win.p50_ms, "ms"});
  out->metrics.push_back({"latency_p99_ms", win.p99_ms, "ms"});
  out->metrics.push_back({"slo_rps", SloRate(steps, verdicts), "1/s"});
  out->steal_pct = steal.Percent(begin, Clock::now());
  out->record += ",\"cpu_steal_pct\":" + JsonNum(out->steal_pct);
  out->record += ",\"latency_samples\":" + std::to_string(closed.ms.size());
  out->record += ",\"windows\":" + std::to_string(win.windows);
  out->record += ",\"quiet_windows_used\":" + std::to_string(win.used);
  std::string per_window = "[", per_window_steal = "[";
  for (std::size_t w = 0; w < win.windows; ++w) {
    if (w > 0) {
      per_window += ',';
      per_window_steal += ',';
    }
    per_window += JsonNum(std::round(win.window_ops[w]));
    per_window_steal += JsonNum(std::round(win.window_steal_pct[w] * 10) / 10);
  }
  out->record += ",\"window_ops_per_s\":" + per_window + "]";
  out->record += ",\"window_steal_pct\":" + per_window_steal + "]";
  out->record += ",\"min_window_samples\":" + std::to_string(win.min_samples);
  out->record += ",\"tail_quantile_supported_per_window\":" +
                 JsonNum(TailQuantile(win.min_samples));
  out->record += ",\"request_p50_ms\":" + PerRequestMedians(closed);
  out->record += ",\"closed_loop_threads\":" + std::to_string(threads);
  out->record += ",\"staircase_base_rate\":" + JsonNum(staircase.base_rate);
  out->record += ",\"latency_limit_ms\":" + JsonNum(staircase.limit_ms);
  out->record += ",\"staircase\":" + StaircaseJson(steps, verdicts);
  return true;
}

// --- Server workloads -----------------------------------------------------------

std::string ServerBinary() { return ExecutableDir() + "/fmtk_serve"; }

/// Publishes every structure of the workload, back to back; when `put_ms`
/// is given, appends each PUT's time to the structure's entry.
bool PublishAll(const Workload& w, HttpClient& client,
                std::vector<std::vector<double>>* put_ms = nullptr) {
  for (std::size_t k = 0; k < w.structures.size(); ++k) {
    const Published& p = w.structures[k];
    const Clock::time_point start = Clock::now();
    if (client.RoundTrip(p.raw) == 201) {
      if (put_ms != nullptr) {
        (*put_ms)[k].push_back(MicrosBetween(start, Clock::now()) / 1000.0);
      }
    } else {
      std::fprintf(stderr, "perfbench: PUT %s failed: %.*s\n", p.name.c_str(),
                   static_cast<int>(client.body().size()), client.body().data());
      return false;
    }
  }
  return true;
}

/// Sends every warm-up request once, checking each answer.
bool WarmUp(const Workload& w, std::uint16_t port) {
  VerifiedAnswers verified;
  HttpIssuer warm(w, port, &verified);
  Clock::time_point done;
  for (const std::uint32_t index : w.warmup) {
    if (!warm.Issue(index, &done)) return false;
  }
  return true;
}

/// Starts the server, publishes every structure and warms the plan cache.
/// Returns false on any failure.
bool SetUpServer(const Workload& w, std::size_t workers, ServerProcess* server) {
  if (!server->Start(ServerBinary(), workers)) {
    std::fprintf(stderr, "perfbench: cannot start %s\n", ServerBinary().c_str());
    return false;
  }
  HttpClient client(server->port());
  return PublishAll(w, client) && WarmUp(w, server->port()) &&
         client.RoundTrip(HttpGet("/healthz")) == 200;
}

/// Re-publishes the ingest structure, alternating edge list and FMTKBIN1.
class Writer {
 public:
  Writer(const Workload& w, std::uint16_t port, StealMonitor* steal)
      : w_(w), port_(port), steal_(steal) {
    thread_ = std::thread([this] { Run(); });
  }
  ~Writer() { Stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<double>& ms() const { return ms_; }
  const std::vector<double>& steal_pct() const { return steal_pct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  void Run() {
    HttpClient client(port_);
    std::size_t generation = 0;
    while (!stop_.load()) {
      const Clock::time_point start = Clock::now();
      ++attempted_;
      const std::string& raw = w_.writer_puts[generation++ % w_.writer_puts.size()];
      if (client.RoundTrip(raw) == 201) {
        const Clock::time_point end = Clock::now();
        ms_.push_back(MicrosBetween(start, end) / 1000.0);
        steal_pct_.push_back(steal_->Percent(start, end));
      } else {
        ++failed_;
      }
      std::this_thread::sleep_until(start + std::chrono::milliseconds(kWriterPeriodMs));
    }
  }

  const Workload& w_;
  std::uint16_t port_;
  StealMonitor* steal_;
  std::atomic<bool> stop_{false};
  std::vector<double> ms_;
  std::vector<double> steal_pct_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::thread thread_;  // Last: starts after the members it uses.
};

std::size_t StreamLength(const std::string& workload) {
  if (workload == "cold_stream") {
    // 32x the plan cache's 8 x 64 entries per namespace: the loops cycle
    // through the pool, and a text comes round again only long after LRU
    // evicted it, so every request still misses the text layer.
    return 16384;
  }
  return 1 << 17;
}

bool PrepareWorkload(const Options& o, Workload* w, double* oracle_s) {
  if (!GenerateServerWorkload(o.workload, o.seed,
                              StreamLength(o.workload), w)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", o.workload.c_str());
    return false;
  }
  const Clock::time_point start = Clock::now();
  const bool ok = ComputeAnswers(w);
  *oracle_s = SecondsBetween(start, Clock::now());
  return ok;
}

std::string RoutesJson(const Workload& w) {
  std::map<std::string, int> routes;
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    ++routes[w.predicted_route[i] + " / oracle " + w.oracle_path[i]];
  }
  std::string out = "{";
  for (const auto& [name, n] : routes) {
    if (out.size() > 1) out += ',';
    out += JsonStr(name) + ":" + std::to_string(n);
  }
  return out + "}";
}

/// The oracle each Datalog program was checked with (workloads with a fixed
/// request set; cold_stream's programs are all in the route counts).
std::string ProgramOraclesJson(const Workload& w) {
  std::string out = "[";
  for (std::size_t i = 0; i < w.requests.size() && w.requests.size() <= 64; ++i) {
    if (w.requests[i].kind != Request::Kind::kDatalog) continue;
    if (out.size() > 1) out += ',';
    out += "{\"request\":" + std::to_string(i) + ",\"structure\":" +
           JsonStr(w.requests[i].structure) + ",\"oracle\":" +
           JsonStr(w.oracle_path[i]) + "}";
  }
  return out + "]";
}

bool RunServerE2e(const Options& o, Outcome* out) {
  Workload w;
  double oracle_s = 0;
  if (!PrepareWorkload(o, &w, &oracle_s)) return false;
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const bool ingest = o.workload == "ingest_query";

  std::vector<double> setup_s;
  ServerProcess server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.Stop();
    const Clock::time_point start = Clock::now();
    if (!SetUpServer(w, nproc, &server)) return false;
    setup_s.push_back(SecondsBetween(start, Clock::now()));
  }
  // ingest_query's writer is one more connection beside the readers.
  const std::size_t readers = kConnections;
  const std::uint16_t port = server.port();
  VerifiedAnswers verified;
  IssuerFactory factory = [&w, port, &verified] {
    return std::make_unique<HttpIssuer>(w, port, &verified);
  };
  auto measure = [&](Outcome* trial) {
    // Writes beside no reads (ingest_query times its writer instead): the
    // structure set re-published between staircase steps, then warmed
    // again, since a publish invalidates the per-generation memos.
    StealMonitor steal;
    std::vector<std::vector<double>> put_ms(w.structures.size());
    std::unique_ptr<HttpClient> write_client;  // Connects at the first gap.
    std::function<bool()> publish;
    if (!ingest) {
      publish = [&] {
        if (write_client == nullptr) write_client = std::make_unique<HttpClient>(port);
        for (int i = 0; i < kWritesPerGap; ++i) {
          if (!PublishAll(w, *write_client, &put_ms)) return false;
        }
        return WarmUp(w, port);
      };
    }
    std::unique_ptr<Writer> writer;
    if (ingest) writer = std::make_unique<Writer>(w, port, &steal);
    double closed_ops = 0;
    if (!MeasureLoad(factory, w.stream, readers, o.seconds,
                     StaircaseOf(o.workload), publish, trial, &closed_ops)) {
      return false;
    }
    double writes_per_s = 0;
    double write_p50_ms = 0;
    std::size_t write_samples = 0;
    if (writer != nullptr) {
      writer->Stop();
      trial->attempted += writer->attempted();
      trial->failed += writer->failed();
      writes_per_s = static_cast<double>(writer->ms().size()) / o.seconds;
      write_p50_ms = QuietMedian(writer->ms(), writer->steal_pct());
      write_samples = writer->ms().size();
      trial->record += ",\"quiet_write_samples\":" +
                       std::to_string(QuietIndices(writer->steal_pct()).size());
    } else {
      // The time to publish the structure set: the sum over its structures
      // of each one's median PUT. Medians per structure, since the
      // structures differ in size and the first PUT after a loaded step,
      // or one that waits for a descheduled CPU, runs several times slower
      // than the rest.
      for (const std::vector<double>& ms : put_ms) {
        write_p50_ms += Median(ms);
        write_samples += ms.size();
      }
    }
    trial->metrics.push_back({"ops_per_s", closed_ops + writes_per_s, "1/s"});
    trial->metrics.push_back({"write_p50_ms", write_p50_ms, "ms"});
    trial->record += ",\"write_samples\":" + std::to_string(write_samples);
    return true;
  };
  if (!MeasureOnQuietHost(measure, out)) return false;
  const double rss = PeakRssMiB(server.pid());
  server.Stop();

  out->metrics.push_back({"setup_s", Median(setup_s), "s"});
  out->metrics.push_back({"peak_rss_mb", rss, "MiB"});
  out->record += ",\"setup_reps\":" + std::to_string(kSetupReps);
  out->record += ",\"oracle_s\":" + JsonNum(oracle_s);
  out->record += ",\"distinct_requests\":" + std::to_string(w.requests.size());
  out->record += ",\"routes\":" + RoutesJson(w);
  out->record += ",\"program_oracles\":" + ProgramOraclesJson(w);
  return true;
}

// --- Traced runs ----------------------------------------------------------------

/// Fills every layer metric from the tracer's median self times.
void AddSpanMedians(const Tracer& tracer, std::map<std::string, double>* values) {
  for (const auto& [name, us] : tracer.MedianSelfMicros()) {
    if (name == "request") continue;
    (*values)[name + "_us"] = us;
  }
}

/// Loaded latency minus the unloaded round trip of the same request:
/// per request index where both phases saw it (the median over the loaded
/// samples), else the difference of the two phases' medians (cold_stream,
/// whose texts never repeat).
double QueueWaitMicros(const LoopStats& loaded,
                       const std::map<std::uint32_t, std::vector<double>>& unloaded,
                       const std::vector<double>& all_unloaded_us) {
  std::map<std::uint32_t, double> base;
  for (const auto& [index, us] : unloaded) base[index] = Median(us);
  std::vector<double> waits;
  for (std::size_t i = 0; i < loaded.ms.size(); ++i) {
    auto it = base.find(loaded.index[i]);
    if (it != base.end()) waits.push_back(loaded.ms[i] * 1000.0 - it->second);
  }
  if (waits.size() * 2 >= loaded.ms.size()) return Median(waits);
  return Median(loaded.ms) * 1000.0 - Median(all_unloaded_us);
}

/// The traced run's socket-side numbers: unloaded round trips against the
/// served process, Handle() in-process on the same requests, and loaded
/// latency of the same mix.
bool MeasureServerLayers(const Options& o, const Workload& w,
                         std::map<std::string, double>* values) {
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  ServerProcess server;
  if (!SetUpServer(w, nproc, &server)) return false;

  fmtk::PlanCache handle_cache;
  fmtk::PlanCache direct_cache;
  fmtk::QueryServerOptions options;
  options.planner.cache = &handle_cache;
  fmtk::QueryServer in_process(options);
  for (const Published& p : w.structures) {
    in_process.PutStructure(p.name, p.structure, "bench");
  }
  auto to_http = [](const Request& r) {
    fmtk::HttpRequest h;
    h.method = "POST";
    h.path = h.target = r.kind == Request::Kind::kDatalog ? "/datalog" : "/query";
    h.body = r.body;
    return h;
  };
  auto plan_and_execute = [&](const Request& r) {
    const fmtk::Structure* s = in_process.GetStructure(r.structure).get();
    fmtk::PlannerOptions planner;
    planner.cache = &direct_cache;
    if (r.kind == Request::Kind::kDatalog) {
      planner.datalog_outputs = r.outputs;
      auto program = fmtk::ParseDatalogProgram(r.text, false);
      if (program.ok()) {
        fmtk::DatalogAnalyzerOptions a;
        a.signature = &s->signature();
        a.outputs = r.outputs;
        (void)fmtk::AnalyzeProgram(*program, a);
      }
      (void)fmtk::EvaluateDatalogAuto(*s, r.text, planner);
      return;
    }
    const bool query_mode = r.kind == Request::Kind::kQuery;
    (void)fmtk::PlanAuto(*s, r.text, query_mode, r.outputs.size(), planner);
    if (query_mode) {
      (void)fmtk::EvaluateQueryAuto(*s, r.text, r.outputs, planner);
    } else {
      (void)fmtk::EvaluateAuto(*s, r.text, planner);
    }
  };
  for (const std::uint32_t index : w.warmup) {
    (void)in_process.Handle(to_http(w.requests[index]));
    plan_and_execute(w.requests[index]);
  }

  // Unloaded: one connection, one request at a time, over the workload's mix.
  const std::size_t samples = o.workload == "cold_stream" ? 300 : 240;
  const std::size_t first = w.stream.size() / 3;
  HttpClient client(server.port());
  // Round trips back to back first, so the served process never idles
  // between them; then the same requests in-process.
  std::vector<double> rtt, self, rtt_minus, bytes;
  std::map<std::uint32_t, std::vector<double>> unloaded_by_index;
  for (std::size_t i = 0; i < samples; ++i) {
    const std::uint32_t index = w.stream[(first + i) % w.stream.size()];
    const Clock::time_point t0 = Clock::now();
    if (client.RoundTrip(w.requests[index].raw) != 200) return false;
    rtt.push_back(MicrosBetween(t0, Clock::now()));
    bytes.push_back(static_cast<double>(client.response_bytes()));
    unloaded_by_index[index].push_back(rtt.back());
  }
  for (std::size_t i = 0; i < samples; ++i) {
    const Request& r = w.requests[w.stream[(first + i) % w.stream.size()]];
    // Alternate which of the two in-process calls goes first, so neither
    // always runs on caches the other warmed.
    double direct_us = 0, handle_us = 0;
    for (int k = 0; k < 2; ++k) {
      const Clock::time_point t0 = Clock::now();
      if ((i + k) % 2 == 0) {
        plan_and_execute(r);
        direct_us = MicrosBetween(t0, Clock::now());
      } else {
        (void)in_process.Handle(to_http(r));
        handle_us = MicrosBetween(t0, Clock::now());
      }
    }
    rtt_minus.push_back(rtt[i] - handle_us);
    self.push_back(handle_us - direct_us);
  }
  // Loaded: the closed loop of the e2e run, briefly, on the stream that
  // follows the unloaded sample.
  const std::size_t from = std::min(w.stream.size() - 1, first + samples);
  std::vector<std::uint32_t> mix(
      w.stream.begin() + static_cast<std::ptrdiff_t>(from),
      w.stream.begin() + static_cast<std::ptrdiff_t>(
                             std::min(w.stream.size(), from + 100000)));
  VerifiedAnswers verified;
  IssuerFactory factory = [&w, &server, &verified] {
    return std::make_unique<HttpIssuer>(w, server.port(), &verified);
  };
  const LoopStats loaded =
      ClosedLoop(factory, mix, kConnections, std::max(1.0, 0.1 * o.seconds));
  if (client.RoundTrip(HttpGet("/stats")) != 200) return false;
  auto stats = fmtk::JsonValue::Parse(client.body());
  double rejected = 0;
  if (stats.ok() && stats->Find("server") != nullptr) {
    rejected = stats->Find("server")->FindNumber("admission_rejected").value_or(0);
  }
  server.Stop();

  (*values)["server.rtt_minus_handle_us"] = Median(rtt_minus);
  (*values)["server.handle_self_us"] = Median(self);
  (*values)["server.queue_wait_us"] = QueueWaitMicros(loaded, unloaded_by_index, rtt);
  (*values)["server.response_bytes"] = Median(bytes);
  (*values)["server.admission_rejected"] = rejected;
  return loaded.failed == 0;
}

std::size_t ReplayCount(const std::string& workload) {
  if (workload == "cold_stream") return 3000;
  if (workload == "ingest_query") return 40;
  return 600;
}

bool RunServerTraced(const Options& o, LayerNumbers* layers, double* overhead_pct,
                     Tracer* tracer) {
  Workload w;
  double oracle_s = 0;
  if (!PrepareWorkload(o, &w, &oracle_s)) return false;
  const std::size_t count = ReplayCount(o.workload);
  double untraced_s = 0, traced_s = 0;
  for (int round = 0; round < 2; ++round) {
    untraced_s += ReplayRequests(w, count, nullptr).wall_s;
    LayerNumbers traced = ReplayRequests(w, count, tracer);
    traced_s += traced.wall_s;
    if (round == 1) *layers = std::move(traced);
  }
  *overhead_pct = 100.0 * (traced_s - untraced_s) / untraced_s;
  const LayerNumbers loads = ReplayLoads(w, tracer);
  layers->values.insert(loads.values.begin(), loads.values.end());
  return MeasureServerLayers(o, w, &layers->values);
}

// --- toolbox_batch -----------------------------------------------------------------

bool RunToolboxE2e(const Options& o, Outcome* out) {
  ToolboxBatch batch = GenerateToolbox(o.seed, 1 << 16);
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point start = Clock::now();
    const std::vector<double> loads = LoadToolboxStructures(&batch);
    if (loads.size() != batch.texts.size()) return false;
    ToolboxIssuer warm(batch);
    Clock::time_point done;
    for (std::uint32_t i = 0; i < batch.ops.size(); ++i) {
      if (!warm.Issue(i, &done)) {
        std::fprintf(stderr, "perfbench: toolbox op %u gave a wrong verdict\n", i);
        return false;
      }
    }
    setup_s.push_back(SecondsBetween(start, Clock::now()));
  }
  // The toolbox's "write" is loading the whole batch from edge-list text,
  // between staircase steps; one sample is kBatchLoadsPerSample loads, since
  // one load takes a tenth of a millisecond and timer and cache effects
  // would dominate it.
  IssuerFactory factory = [&batch] {
    return std::make_unique<ToolboxIssuer>(batch);
  };
  auto measure = [&](Outcome* trial) {
    // Peak memory of the timed part: a second attempt's allocations would
    // otherwise raise the first one's high-water mark.
    ResetPeakRssSelf();
    std::vector<double> write_ms, write_steal;
    StealMonitor steal;
    std::function<bool()> load = [&] {
      for (int k = 0; k < kWritesPerGap; ++k) {
        double ms = 0;
        const Clock::time_point start = Clock::now();
        for (int i = 0; i < kBatchLoadsPerSample; ++i) {
          const std::vector<double> loads = LoadToolboxStructures(&batch);
          if (loads.size() != batch.texts.size()) return false;
          ms += std::accumulate(loads.begin(), loads.end(), 0.0);
        }
        write_ms.push_back(ms);
        write_steal.push_back(steal.Percent(start, Clock::now()));
      }
      return true;
    };
    double closed_ops = 0;
    if (!MeasureLoad(factory, batch.stream, ToolboxThreads(), o.seconds,
                     StaircaseOf(o.workload), load, trial, &closed_ops)) {
      return false;
    }
    trial->metrics.push_back({"ops_per_s", closed_ops, "1/s"});
    trial->metrics.push_back({"peak_rss_mb", PeakRssMiBSelf(), "MiB"});
    trial->metrics.push_back(
        {"write_p50_ms", QuietMedian(write_ms, write_steal), "ms"});
    trial->record += ",\"write_samples\":" + std::to_string(write_ms.size());
    trial->record += ",\"quiet_write_samples\":" +
                     std::to_string(QuietIndices(write_steal).size());
    return true;
  };
  if (!MeasureOnQuietHost(measure, out)) return false;
  out->metrics.push_back({"setup_s", Median(setup_s), "s"});
  out->record += ",\"setup_reps\":" + std::to_string(kSetupReps);
  out->record += ",\"distinct_requests\":" + std::to_string(batch.ops.size());
  return true;
}

bool RunToolboxTraced(const Options& o, LayerNumbers* layers,
                      double* overhead_pct, Tracer* tracer) {
  ToolboxBatch batch = GenerateToolbox(o.seed, 1 << 16);
  {
    ScopedSpan span(tracer, "structures.load", 0);
    if (LoadToolboxStructures(&batch).size() != batch.texts.size()) return false;
  }
  const std::size_t count = 600;
  double untraced_s = 0, traced_s = 0;
  for (int round = 0; round < 2; ++round) {
    Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < count; ++i) {
      const ToolboxOp& op = batch.ops[batch.stream[i]];
      if (!Agrees(RunToolboxOp(batch, op), op.expected)) return false;
    }
    untraced_s += SecondsBetween(start, Clock::now());
    start = Clock::now();
    for (std::size_t i = 0; i < count; ++i) {
      const ToolboxOp& op = batch.ops[batch.stream[i]];
      ScopedSpan span(tracer, "request", i + 1);
      if (!Agrees(RunToolboxOp(batch, op, tracer, i + 1), op.expected)) {
        return false;
      }
    }
    traced_s += SecondsBetween(start, Clock::now());
  }
  *overhead_pct = 100.0 * (traced_s - untraced_s) / untraced_s;
  // The engines' counts, from an untimed pass over the same calls.
  ToolboxCounters counters;
  std::uint64_t games = 0, locality = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const ToolboxOp& op = batch.ops[batch.stream[i]];
    if (!Agrees(RunToolboxOp(batch, op, nullptr, 0, &counters), op.expected)) {
      return false;
    }
    const bool game =
        op.kind == ToolboxOp::Kind::kEf || op.kind == ToolboxOp::Kind::kPebble;
    (game ? games : locality) += 1;
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  auto& v = layers->values;
  const double g = static_cast<double>(games), l = static_cast<double>(locality);
  v["games.nodes_explored"] = ratio(static_cast<double>(counters.nodes_explored), g);
  v["games.moves_pruned"] = ratio(static_cast<double>(counters.moves_pruned), g);
  v["games.table_hit_ratio"] =
      ratio(static_cast<double>(counters.table_hits),
            static_cast<double>(counters.table_hits + counters.nodes_explored));
  v["locality.bfs_node_visits"] = ratio(static_cast<double>(counters.bfs_node_visits), l);
  v["locality.canon_hit_ratio"] = ratio(static_cast<double>(counters.canon_hits),
                                        static_cast<double>(counters.canon_codes));
  v["locality.iso_tests"] = ratio(static_cast<double>(counters.iso_tests), l);
  return true;
}

// --- Output -----------------------------------------------------------------------

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run reports (0 where the workload does
/// not reach the layer).
constexpr LayerMetric kLayerMetrics[] = {
    {"server.http_parse_us", "us"},
    {"server.json_parse_us", "us"},
    {"server.handle_self_us", "us"},
    {"server.rtt_minus_handle_us", "us"},
    {"server.queue_wait_us", "us"},
    {"server.response_bytes", "bytes"},
    {"server.admission_rejected", "count"},
    {"logic.parse_us", "us"},
    {"analysis.analyze_us", "us"},
    {"analysis.optimize_us", "us"},
    {"planner.plan_us", "us"},
    {"planner.canonicalize_us", "us"},
    {"planner.execute_us", "us"},
    {"planner.text_hit_ratio", "ratio"},
    {"planner.canonical_hit_ratio", "ratio"},
    {"planner.evictions", "count"},
    {"planner.route_share.compiled", "ratio"},
    {"planner.route_share.parallel", "ratio"},
    {"planner.route_share.bounded-degree", "ratio"},
    {"planner.route_share.datalog", "ratio"},
    {"planner.route_share.relational", "ratio"},
    {"planner.route_share.naive", "ratio"},
    {"planner.route_share.program_datalog", "ratio"},
    {"planner.route_share.program_fo", "ratio"},
    {"planner.cost_error.compiled", "ns/unit"},
    {"planner.cost_error.parallel", "ns/unit"},
    {"planner.cost_error.bounded-degree", "ns/unit"},
    {"planner.cost_error.datalog", "ns/unit"},
    {"planner.cost_error.relational", "ns/unit"},
    {"eval.compile_us", "us"},
    {"eval.bind_us", "us"},
    {"eval.evaluate_us", "us"},
    {"eval.node_visits", "count"},
    {"eval.short_circuits", "count"},
    {"eval.index_hits", "count"},
    {"datalog.create_us", "us"},
    {"datalog.evaluate_us", "us"},
    {"datalog.iterations", "count"},
    {"datalog.tuples_scanned", "count"},
    {"datalog.index_probes", "count"},
    {"datalog.new_per_derived", "ratio"},
    {"locality.bounded_degree_us", "us"},
    {"locality.hanf_us", "us"},
    {"locality.gaifman_us", "us"},
    {"locality.bfs_node_visits", "count"},
    {"locality.canon_hit_ratio", "ratio"},
    {"locality.iso_tests", "count"},
    {"games.ef_us", "us"},
    {"games.pebble_us", "us"},
    {"games.nodes_explored", "count"},
    {"games.table_hit_ratio", "ratio"},
    {"games.moves_pruned", "count"},
    {"structures.load_us", "us"},
    {"structures.stats_us", "us"},
    {"structures.load_bytes", "bytes"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

bool RunTraced(const Options& o, Outcome* out) {
  Tracer tracer;
  LayerNumbers layers;
  double overhead = 0;
  const bool ok = o.workload == "toolbox_batch"
                      ? RunToolboxTraced(o, &layers, &overhead, &tracer)
                      : RunServerTraced(o, &layers, &overhead, &tracer);
  if (!ok) return false;
  AddSpanMedians(tracer, &layers.values);
  layers.values["trace.overhead_pct"] = overhead;
  layers.values["trace.spans"] = static_cast<double>(tracer.spans().size());
  for (const LayerMetric& m : kLayerMetrics) {
    auto it = layers.values.find(m.name);
    out->metrics.push_back({m.name, it == layers.values.end() ? 0.0 : it->second,
                            m.unit});
  }
  out->attempted = tracer.SelfMicros("request").size();
  const std::string path = ".bench_build/traces/" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".jsonl";
  const bool written = tracer.WriteJsonl(path);
  out->record += ",\"trace_file\":" + JsonStr(written ? path : "(not written)");
  return true;
}

// --- main ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o->workload = value;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      o->trace = value == "1";
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0 && argc % 2 == 1;
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: fmtk_perfbench --workload "
                 "warm_mix|cold_stream|ingest_query|toolbox_batch --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  if (!IsReleaseBuild()) {
    std::fprintf(stderr,
                 "perfbench: WARNING: NOT A RELEASE BUILD (%s); numbers are "
                 "not comparable\n",
                 FMTK_BENCH_BUILD_TYPE);
  }
  Outcome out;
  bool ok = false;
  if (!o.trace) {
    out.record += ",\"steal_wait_s\":" + JsonNum(WaitForQuietHost());
  }
  if (o.trace) {
    ok = RunTraced(o, &out);
  } else if (o.workload == "toolbox_batch") {
    ok = RunToolboxE2e(o, &out);
  } else {
    ok = RunServerE2e(o, &out);
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench: %s run failed\n", o.workload.c_str());
    return 1;
  }
  out.correct = out.failed == 0;

  // Times and rates at the reference speed (see kReferenceKernelUs); the record keeps
  // the measured values.
  std::string raw = "{";
  for (Metric& m : out.metrics) {
    if (raw.size() > 1) raw += ',';
    raw += JsonStr(m.name) + ":" + JsonNum(m.value);
    if (m.unit == "ms" || m.unit == "s") m.value *= out.scale;
    if (m.unit == "1/s") m.value /= out.scale;
  }
  out.record += ",\"raw_metrics\":" + raw + "}";

  std::string metrics = "{";
  for (const Metric& m : out.metrics) {
    if (metrics.size() > 1) metrics += ',';
    metrics += JsonStr(m.name) + ":{\"value\":" + JsonNum(m.value) +
               ",\"unit\":" + JsonStr(m.unit) + "}";
    std::fprintf(stderr, "  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  metrics += "}";
  std::printf("{\"record\":{\"workload\":%s,\"trace\":%d,\"seconds\":%s,"
              "\"provenance\":%s%s,\"attempted\":%llu,\"failed\":%llu}}\n",
              JsonStr(o.workload).c_str(), o.trace ? 1 : 0,
              JsonNum(o.seconds).c_str(), ProvenanceJson(o.seed).c_str(),
              out.record.c_str(), static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(out.attempted, 1)),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace fmtkbench

int main(int argc, char** argv) { return fmtkbench::Main(argc, argv); }
