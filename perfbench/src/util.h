// Shared pieces of the fmtk benchmark: clocks and percentiles, the
// in-memory span tracer, a blocking keep-alive HTTP client, the server
// child process, and the result record printer.
#ifndef FMTK_PERFBENCH_UTIL_H_
#define FMTK_PERFBENCH_UTIL_H_

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace fmtkbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// The highest percentile (from p99.9, p99, p95, p90, p50) that has at
/// least ten samples beyond it in a sample of `n`.
double TailQuantile(std::size_t n);

/// splitmix64: the benchmark's only source of randomness, seeded from the
/// command line so one seed always yields the same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, n).
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Unit() < p; }

 private:
  std::uint64_t state_;
};

/// A send order over `ids` in which every block of `block` consecutive
/// entries holds each id in proportion to its weight (largest-remainder
/// rounding) and only the order inside a block is drawn from `rng`: every
/// seed and every stretch of a run sends the same mix.
std::vector<std::uint32_t> BalancedStream(const std::vector<std::uint32_t>& ids,
                                          const std::vector<double>& weights,
                                          std::size_t block, std::size_t length,
                                          Rng& rng);

// ---------------------------------------------------------------------------
// Tracing: spans recorded from the benchmark's own files around the calls it
// makes into each layer. Spans live in memory and are written out when the
// run ends.

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // Index into Tracer::spans(), -1 for a root.
  std::uint64_t request_id = 0;
};

class Tracer {
 public:
  /// Starts a span under the innermost open one; returns its index.
  int Begin(std::string name, std::uint64_t request_id);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Per span name: the median self time (duration minus the part covered
  /// by child spans) in microseconds.
  std::map<std::string, double> MedianSelfMicros() const;
  /// All self times of one span name, microseconds.
  std::vector<double> SelfMicros(std::string_view name) const;
  /// Writes one JSON object per span; false when the file cannot be
  /// written.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing (the untraced replay).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::uint64_t request_id)
      : tracer_(tracer),
        index_(tracer == nullptr ? -1
                                 : tracer->Begin(std::move(name), request_id)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

// ---------------------------------------------------------------------------
// HTTP over loopback.

/// One keep-alive connection (TCP_NODELAY); requests are sent whole and one
/// full response is read back per round trip.
class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool connected() const { return fd_ >= 0; }
  /// Sends `raw` and reads one response. Returns the status code, or 0 on
  /// a transport failure. body() holds the response body afterwards.
  int RoundTrip(std::string_view raw);
  std::string_view body() const;
  std::size_t response_bytes() const { return response_.size(); }

 private:
  int fd_ = -1;
  std::string response_;
  std::size_t body_offset_ = 0;
};

std::string HttpPost(std::string_view path, std::string_view body);
std::string HttpPut(std::string_view target, std::string_view body);
std::string HttpGet(std::string_view path);

/// The shipped server as a child process:
/// `fmtk_serve --port 0 --workers N`, listening on an ephemeral loopback
/// port read back from its first line of output.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts the binary and waits until it listens. False on failure.
  bool Start(const std::string& binary, std::size_t workers);
  /// SIGTERM, then waits for the process to end.
  void Stop();
  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;  // Read end of the child's stdout.
  std::uint16_t port_ = 0;
};

/// Peak resident set (VmHWM) of a process, in MiB; 0 when unreadable.
double PeakRssMiB(pid_t pid);
double PeakRssMiBSelf();

/// Lowers this process's VmHWM to its current resident set (Linux
/// clear_refs), so a later PeakRssMiBSelf() covers only what came after.
void ResetPeakRssSelf();

/// The directory holding the running executable.
std::string ExecutableDir();

// ---------------------------------------------------------------------------
// Result records.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Build and machine facts attached to every result record.
std::string ProvenanceJson(std::uint64_t seed);
/// True when the benchmark binary (and so the library it links) was built
/// as Release.
bool IsReleaseBuild();

/// JSON number with all its digits (no rounding to a fixed precision).
std::string JsonNum(double v);
std::string JsonStr(std::string_view s);

}  // namespace fmtkbench

#endif  // FMTK_PERFBENCH_UTIL_H_
