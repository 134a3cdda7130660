#include "util.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <thread>

#include "base/simd.h"

namespace fmtkbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx =
      std::min(values.size() - 1,
               static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  return values[idx];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double TailQuantile(std::size_t n) {
  for (const double q : {0.999, 0.99, 0.95, 0.9}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::uint32_t> BalancedStream(const std::vector<std::uint32_t>& ids,
                                          const std::vector<double>& weights,
                                          std::size_t block, std::size_t length,
                                          Rng& rng) {
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<std::size_t> count(ids.size());
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t placed = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const double share = weights[i] / total * static_cast<double>(block);
    count[i] = static_cast<std::size_t>(share);
    placed += count[i];
    remainder.emplace_back(share - static_cast<double>(count[i]), i);
  }
  std::sort(remainder.rbegin(), remainder.rend());
  for (std::size_t k = 0; placed < block; ++k, ++placed) {
    ++count[remainder[k % remainder.size()].second];
  }
  std::vector<std::uint32_t> one_block;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    one_block.insert(one_block.end(), count[i], ids[i]);
  }
  std::vector<std::uint32_t> stream;
  stream.reserve(length + block);
  while (stream.size() < length) {
    for (std::size_t i = one_block.size(); i > 1; --i) {
      std::swap(one_block[i - 1], one_block[rng.Below(i)]);
    }
    stream.insert(stream.end(), one_block.begin(), one_block.end());
  }
  stream.resize(length);
  return stream;
}

// --- Tracer -----------------------------------------------------------------

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

int Tracer::Begin(std::string name, std::uint64_t request_id) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request_id = request_id;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  spans_[index].start_ns = NowNs();
  return index;
}

void Tracer::End(int index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> Tracer::SelfMicros(std::string_view name) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    out.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                      child_ns[i]) /
                  1000.0);
  }
  return out;
}

std::map<std::string, double> Tracer::MedianSelfMicros() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out.emplace(s.name, 0.0);
  for (auto& [name, value] : out) value = Median(SelfMicros(name));
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":" << JsonStr(s.name) << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request_id << "}\n";
  }
  return static_cast<bool>(out);
}

// --- HttpClient ---------------------------------------------------------------

HttpClient::HttpClient(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
}

HttpClient::~HttpClient() {
  if (fd_ >= 0) close(fd_);
}

int HttpClient::RoundTrip(std::string_view raw) {
  if (fd_ < 0) return 0;
  std::size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n =
        send(fd_, raw.data() + sent, raw.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return 0;
    sent += static_cast<std::size_t>(n);
  }
  response_.clear();
  body_offset_ = 0;
  std::size_t need = std::string::npos;  // Total bytes once the head is read.
  char chunk[16384];
  while (need == std::string::npos || response_.size() < need) {
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return 0;
    response_.append(chunk, static_cast<std::size_t>(n));
    if (need != std::string::npos) continue;
    const std::size_t head_end = response_.find("\r\n\r\n");
    if (head_end == std::string::npos) continue;
    body_offset_ = head_end + 4;
    std::size_t length = 0;
    const std::size_t cl = response_.find("Content-Length: ");
    if (cl != std::string::npos && cl < head_end) {
      length = static_cast<std::size_t>(
          std::strtoull(response_.c_str() + cl + 16, nullptr, 10));
    }
    need = body_offset_ + length;
  }
  // "HTTP/1.1 200 OK": the status code sits at offset 9.
  if (response_.size() < 12) return 0;
  return std::atoi(response_.c_str() + 9);
}

std::string_view HttpClient::body() const {
  return std::string_view(response_).substr(body_offset_);
}

std::string HttpPost(std::string_view path, std::string_view body) {
  std::string raw = "POST ";
  raw += path;
  raw += " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
         "Content-Length: ";
  raw += std::to_string(body.size());
  raw += "\r\n\r\n";
  raw += body;
  return raw;
}

std::string HttpPut(std::string_view target, std::string_view body) {
  std::string raw = "PUT ";
  raw += target;
  raw += " HTTP/1.1\r\nHost: bench\r\nContent-Length: ";
  raw += std::to_string(body.size());
  raw += "\r\n\r\n";
  raw += body;
  return raw;
}

std::string HttpGet(std::string_view path) {
  std::string raw = "GET ";
  raw += path;
  raw += " HTTP/1.1\r\nHost: bench\r\n\r\n";
  return raw;
}

// --- ServerProcess ------------------------------------------------------------

bool ServerProcess::Start(const std::string& binary, std::size_t workers) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return false;
  const std::string workers_arg = std::to_string(workers);
  const pid_t pid = fork();
  if (pid < 0) {
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return false;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // Never outlive the benchmark.
    dup2(pipe_fds[1], STDOUT_FILENO);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    const int devnull = open("/dev/null", O_RDONLY);
    if (devnull >= 0) dup2(devnull, STDIN_FILENO);
    execl(binary.c_str(), binary.c_str(), "--host", "127.0.0.1", "--port",
          "0", "--workers", workers_arg.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  close(pipe_fds[1]);
  pid_ = pid;
  // Read up to the first newline: "fmtk_serve listening on H:P (N workers)".
  std::string line;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
  char c = 0;
  while (Clock::now() < deadline) {
    pollfd p{pipe_fds[0], POLLIN, 0};
    if (poll(&p, 1, 100) <= 0) continue;
    const ssize_t n = read(pipe_fds[0], &c, 1);
    if (n <= 0) break;
    if (c == '\n') break;
    line += c;
  }
  // Keep the read end open until Stop(): fmtk_serve prints a few more
  // lines (well under a pipe buffer), and a closed pipe would SIGPIPE it.
  out_fd_ = pipe_fds[0];
  const std::size_t colon = line.rfind(':');
  if (line.find("listening on") == std::string::npos ||
      colon == std::string::npos) {
    Stop();
    return false;
  }
  port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + colon + 1));
  return port_ != 0;
}

void ServerProcess::Stop() {
  if (pid_ <= 0) {
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
    return;
  }
  kill(pid_, SIGTERM);
  int status = 0;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (out_fd_ >= 0) close(out_fd_);
  out_fd_ = -1;
  pid_ = -1;
  port_ = 0;
}

namespace {

double ReadHwm(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

}  // namespace

double PeakRssMiB(pid_t pid) {
  return ReadHwm("/proc/" + std::to_string(pid) + "/status");
}

double PeakRssMiBSelf() { return ReadHwm("/proc/self/status"); }

void ResetPeakRssSelf() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::string ExecutableDir() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  std::string path(buf, static_cast<std::size_t>(n));
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

// --- Records ------------------------------------------------------------------

bool IsReleaseBuild() {
  return std::string_view(FMTK_BENCH_BUILD_TYPE) == "Release";
}

std::string ProvenanceJson(std::uint64_t seed) {
  const char* commit = std::getenv("FMTK_BENCH_COMMIT");
  std::string out = "{\"nproc\":" +
                    std::to_string(std::thread::hardware_concurrency());
  out += ",\"compiler\":" + JsonStr(FMTK_BENCH_COMPILER);
  out += ",\"build_type\":" + JsonStr(FMTK_BENCH_BUILD_TYPE);
  out += ",\"release\":";
  out += IsReleaseBuild() ? "true" : "false";
  out += ",\"simd_level\":" + std::to_string(FMTK_SIMD_LEVEL);
  out += ",\"git_commit\":" + JsonStr(commit != nullptr ? commit : "unknown");
  out += ",\"seed\":" + std::to_string(seed);
  out += "}";
  return out;
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonStr(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace fmtkbench
