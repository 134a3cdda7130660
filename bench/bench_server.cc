// E20 — fmtk-as-a-service: the query server on the plan cache.
//
// Closed-loop socket clients (keep-alive, TCP_NODELAY) hammer a live
// QueryServer on an ephemeral loopback port. Claims measured:
//   1. Warm serving beats cold: repeat queries skip parse + analyze +
//      compile via the plan cache, so warm p50 latency is >= 5x lower
//      than the first-contact p50 on a compile-dominated suite.
//   2. Worker-pool scaling: closed-loop throughput with 8 workers vs 1
//      worker on >= 2 query configs (meaningful only with >1 core; the
//      harness reports hardware_concurrency so the artifact is honest).
//   3. Admission control bounds the cheap-request p99: with expensive
//      queries flooding, routing them through the heavy lane (bounded
//      semaphore) keeps cheap requests from queueing behind them.
//
// `--json` emits one line per measurement for run_benches.sh; `--requests N`
// scales the closed-loop request counts (CI smoke passes a small N via
// FMTK_BENCH_SERVER_REQUESTS).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "planner/plan_cache.h"
#include "server/query_server.h"
#include "structures/generators.h"

namespace {

using namespace fmtk;  // NOLINT — bench file, brevity wins.

double UsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  return v[idx];
}

/// A blocking keep-alive client: one connection, many request round trips.
class BenchClient {
 public:
  explicit BenchClient(std::uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    if (connected_) {
      int one = 1;
      setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
  }
  ~BenchClient() {
    if (fd_ >= 0) close(fd_);
  }
  BenchClient(const BenchClient&) = delete;
  BenchClient& operator=(const BenchClient&) = delete;

  bool connected() const { return connected_; }

  /// Sends `raw`, reads one full response, returns its status code
  /// (0 on transport failure).
  int RoundTrip(const std::string& raw) {
    if (send(fd_, raw.data(), raw.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(raw.size())) {
      return 0;
    }
    response_.clear();
    char chunk[8192];
    std::size_t body_needed = 0;
    std::size_t head_end = std::string::npos;
    while (true) {
      if (head_end != std::string::npos &&
          response_.size() >= head_end + body_needed) {
        break;
      }
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return 0;
      response_.append(chunk, static_cast<std::size_t>(n));
      if (head_end == std::string::npos) {
        const std::size_t pos = response_.find("\r\n\r\n");
        if (pos == std::string::npos) continue;
        head_end = pos + 4;
        const std::size_t cl = response_.find("Content-Length: ");
        if (cl == std::string::npos || cl > pos) break;
        body_needed =
            static_cast<std::size_t>(std::atol(response_.c_str() + cl + 16));
      }
    }
    // "HTTP/1.1 200 OK" — the status code sits at offset 9.
    if (response_.size() < 12) return 0;
    return std::atoi(response_.c_str() + 9);
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string response_;
};

std::string PostRequest(const std::string& path, const std::string& body) {
  return "POST " + path + " HTTP/1.1\r\nHost: bench\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string QueryBody(const std::string& structure, const std::string& query,
                      const char* outputs_json = nullptr) {
  std::string body =
      "{\"structure\":\"" + structure + "\",\"query\":\"" + query + "\"";
  if (outputs_json != nullptr) {
    body += std::string(",\"outputs\":") + outputs_json;
  }
  body += "}";
  return body;
}

/// Starts a server with its own plan cache over the standard bench registry.
struct ServerHandle {
  std::unique_ptr<PlanCache> cache;
  std::unique_ptr<QueryServer> server;
  std::uint16_t port = 0;
};

ServerHandle StartServer(std::size_t workers, const AdmissionPolicy& admission) {
  ServerHandle h;
  h.cache = std::make_unique<PlanCache>();
  QueryServerOptions options;
  options.http.port = 0;  // Ephemeral.
  options.http.worker_threads = workers;
  options.planner.cache = h.cache.get();
  options.admission = admission;
  h.server = std::make_unique<QueryServer>(options);
  h.server->PutStructure("tiny", MakeDirectedCycle(3), "bench");
  h.server->PutStructure("ring", MakeDirectedCycle(64), "bench");
  h.server->PutStructure("mid", MakeDirectedCycle(128), "bench");
  std::mt19937_64 rng(20260809);
  h.server->PutStructure("rand", MakeRandomGraph(48, 0.1, rng), "bench");
  if (!h.server->Start().ok()) {
    std::fprintf(stderr, "bench_server: cannot start server\n");
    std::exit(1);
  }
  h.port = h.server->port();
  return h;
}

// ---------------------------------------------------------------------------
// 1. Cold vs warm p50: K distinct compile-dominated sentences over the tiny
// ring. First contact pays parse + analyze + compile inside the request's
// one PrepareAuto; repeats are a text-layer cache probe plus a few hundred
// slot ops, so the socket round trip plus probe is the whole warm latency.

std::vector<std::string> CompileDominatedSuite() {
  std::vector<std::string> suite;
  for (int chain = 10; chain <= 25; ++chain) {
    for (int variant = 0; variant < 8; ++variant) {
      std::string body = "E(v0,v1)";
      for (int i = 1; i < chain; ++i) {
        body += " & E(v" + std::to_string(i) + ",v" + std::to_string(i + 1) +
                ")";
      }
      // The guard is true at the very first assignment (no self-loops on a
      // cycle), so evaluation short-circuits at one leaf while parse +
      // analyze + compile still pay for the whole chain — the suite stays
      // compile-dominated at any chain length.
      body = "~E(v0,v0) | (" + body + ")";
      if (variant & 1) body = "(" + body + ") | E(v0,v0)";
      if (variant & 2) body = "(" + body + ") & ~E(v1,v0)";
      std::string text;
      for (int i = 0; i <= chain; ++i) {
        text += ((variant & 4) != 0 && i == chain ? "forall v" : "exists v") +
                std::to_string(i) + ". ";
      }
      suite.push_back(text + body);
    }
  }
  return suite;
}

void BenchColdVsWarm(bool json) {
  // One worker: the experiment is a serial request stream, and on a small
  // core count extra idle workers only add scheduler noise to the p50.
  ServerHandle h = StartServer(/*workers=*/1, AdmissionPolicy{});
  const std::vector<std::string> suite = CompileDominatedSuite();
  std::vector<std::string> requests;
  requests.reserve(suite.size());
  for (const std::string& text : suite) {
    // The tiny 3-cycle keeps evaluation at a few hundred slot ops even at
    // rank 10, so parse + analyze + compile dominates the cold pass.
    requests.push_back(PostRequest("/query", QueryBody("tiny", text)));
  }

  BenchClient client(h.port);
  if (!client.connected()) {
    std::fprintf(stderr, "bench_server: cannot connect\n");
    std::exit(1);
  }

  // Cold: each distinct sentence's first contact with the server.
  std::vector<double> cold_us;
  for (const std::string& raw : requests) {
    const auto start = std::chrono::steady_clock::now();
    if (client.RoundTrip(raw) != 200) std::exit(1);
    cold_us.push_back(UsSince(start));
  }
  // Warm: the same suite, five more rounds on the now-populated cache.
  std::vector<double> warm_us;
  for (int round = 0; round < 5; ++round) {
    for (const std::string& raw : requests) {
      const auto start = std::chrono::steady_clock::now();
      if (client.RoundTrip(raw) != 200) std::exit(1);
      warm_us.push_back(UsSince(start));
    }
  }
  h.server->Stop();

  const double cold_p50 = Percentile(cold_us, 0.5);
  const double cold_p99 = Percentile(cold_us, 0.99);
  const double warm_p50 = Percentile(warm_us, 0.5);
  const double warm_p99 = Percentile(warm_us, 0.99);
  if (json) {
    std::printf(
        "{\"bench\":\"server_cold\",\"n\":%zu,\"p50_us\":%.1f,"
        "\"p99_us\":%.1f}\n",
        cold_us.size(), cold_p50, cold_p99);
    std::printf(
        "{\"bench\":\"server_warm\",\"n\":%zu,\"p50_us\":%.1f,"
        "\"p99_us\":%.1f,\"speedup_p50\":%.1f}\n",
        warm_us.size(), warm_p50, warm_p99, cold_p50 / warm_p50);
  } else {
    std::printf("-- cold vs warm: %zu distinct sentences over HTTP --\n",
                suite.size());
    std::printf("%8s %12s %12s\n", "", "p50_us", "p99_us");
    std::printf("%8s %12.1f %12.1f\n", "cold", cold_p50, cold_p99);
    std::printf("%8s %12.1f %12.1f   (p50 %.1fx lower)\n", "warm", warm_p50,
                warm_p99, cold_p50 / warm_p50);
  }
}

// ---------------------------------------------------------------------------
// 2. Worker-pool throughput: C closed-loop clients, workers in {1, 8}, on
// two query shapes (a sentence and an output-tuple join).

struct ThroughputConfig {
  const char* name;
  std::string request;
};

double RunClosedLoop(std::uint16_t port, const std::string& request,
                     std::size_t clients, int requests_per_client) {
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      BenchClient client(port);
      if (!client.connected()) {
        failures.fetch_add(requests_per_client);
        return;
      }
      for (int i = 0; i < requests_per_client; ++i) {
        if (client.RoundTrip(request) != 200) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_ms = UsSince(start) / 1000.0;
  if (failures.load() != 0) {
    std::fprintf(stderr, "bench_server: %d failed requests\n", failures.load());
    std::exit(1);
  }
  return wall_ms;
}

void BenchThroughput(bool json, int requests_per_client) {
  const std::vector<ThroughputConfig> configs = {
      {"sentence_ring64",
       PostRequest("/query", QueryBody("ring", "forall x. exists y. E(x,y)"))},
      {"join_rand48",
       PostRequest("/query", QueryBody("rand", "E(x,y) & E(y,z)",
                                       "[\"x\",\"y\",\"z\"]"))},
  };
  constexpr std::size_t kClients = 8;
  if (!json) {
    std::printf(
        "-- closed-loop throughput: %zu clients x %d requests "
        "(hardware_concurrency=%u) --\n",
        kClients, requests_per_client, std::thread::hardware_concurrency());
  }
  for (const ThroughputConfig& cfg : configs) {
    double rps1 = 0;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
      ServerHandle h = StartServer(workers, AdmissionPolicy{});
      {
        // Warm the plan cache so the loop measures serving, not compiling.
        BenchClient warmup(h.port);
        (void)warmup.RoundTrip(cfg.request);
      }
      const double wall_ms = RunClosedLoop(h.port, cfg.request, kClients,
                                           requests_per_client);
      h.server->Stop();
      const double total =
          static_cast<double>(kClients) * requests_per_client;
      const double rps = total / (wall_ms / 1000.0);
      if (workers == 1) rps1 = rps;
      if (json) {
        std::printf(
            "{\"bench\":\"server_throughput\",\"config\":\"%s\","
            "\"workers\":%zu,\"clients\":%zu,\"requests\":%d,"
            "\"wall_ms\":%.1f,\"rps\":%.0f",
            cfg.name, workers, kClients, requests_per_client, wall_ms, rps);
        if (workers != 1) {
          std::printf(",\"scaling_vs_1_worker\":%.2f,\"cores\":%u",
                      rps / rps1, std::thread::hardware_concurrency());
        }
        std::printf("}\n");
      } else {
        std::printf("  %16s workers=%zu %10.0f req/s", cfg.name, workers, rps);
        if (workers != 1) std::printf("   (%.2fx vs 1 worker)", rps / rps1);
        std::printf("\n");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Admission control bounds the cheap p99: more heavy rank-3 sentences
// (n^3 scans on the 256-cycle) than workers flood the pool while cheap
// sentences measure their own tail. Without the lane every worker ends up
// inside a heavy scan and cheap requests queue behind multi-ms service
// times. With the lane on, one heavy query executes, one waits, and the
// rest are rejected 429 up front (the *bounded* wait list is the point:
// waiters hold a worker, so admission sheds rather than queues) — workers
// stay free for cheap requests and their p99 drops.

void BenchAdmission(bool json, int requests_per_client) {
  const std::string cheap =
      PostRequest("/query", QueryBody("ring", "exists x. E(x,x)"));
  // TRUE on the cycle (z = x-1 works for every pair), so the scan cannot
  // short-circuit: all n^2 pairs run a witness search averaging n/2 probes
  // — a genuine multi-ms n^3 query, not one that fails fast. Forced onto
  // the compiled engine because the router would otherwise notice the
  // degree-2 cycle and route the Hanf histogram's O(n) pass, deflating the
  // flood (admission prices the *forced* engine, so the lane still fires).
  const std::string heavy = PostRequest(
      "/query",
      "{\"structure\":\"mid\",\"query\":\"forall x. forall y. exists z. "
      "E(z,x) | E(z,y)\",\"engine\":\"compiled\"}");
  constexpr std::size_t kCheapClients = 4;
  constexpr std::size_t kHeavyClients = 6;  // > worker count: a real flood.

  for (const bool lane_on : {false, true}) {
    AdmissionPolicy admission;
    if (lane_on) {
      admission.heavy_cost_units = 1e6;  // 256^3 ~ 1.7e7 >> cheap ~ 1e2.
      admission.heavy_concurrency = 1;
      admission.heavy_max_waiting = 1;
    }
    ServerHandle h = StartServer(/*workers=*/4, admission);
    {
      BenchClient warmup(h.port);
      (void)warmup.RoundTrip(cheap);
      (void)warmup.RoundTrip(heavy);
    }

    std::atomic<bool> stop{false};
    std::atomic<int> heavy_done{0};
    std::atomic<int> heavy_shed{0};
    std::vector<std::thread> heavy_threads;
    for (std::size_t c = 0; c < kHeavyClients; ++c) {
      heavy_threads.emplace_back([&] {
        BenchClient client(h.port);
        while (!stop.load(std::memory_order_relaxed)) {
          const int status = client.RoundTrip(heavy);
          if (status == 0) return;
          if (status == 429) {
            // A real client backs off after "heavy lane saturated".
            heavy_shed.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          } else {
            heavy_done.fetch_add(1);
          }
        }
      });
    }

    std::vector<std::vector<double>> cheap_us(kCheapClients);
    std::vector<std::thread> cheap_threads;
    for (std::size_t c = 0; c < kCheapClients; ++c) {
      cheap_threads.emplace_back([&, c] {
        BenchClient client(h.port);
        for (int i = 0; i < requests_per_client; ++i) {
          const auto start = std::chrono::steady_clock::now();
          if (client.RoundTrip(cheap) != 200) std::exit(1);
          cheap_us[c].push_back(UsSince(start));
        }
      });
    }
    for (std::thread& t : cheap_threads) t.join();
    stop.store(true);
    for (std::thread& t : heavy_threads) t.join();
    const QueryServer::Stats stats = h.server->stats();
    h.server->Stop();

    std::vector<double> all;
    for (const auto& v : cheap_us) all.insert(all.end(), v.begin(), v.end());
    const double p50 = Percentile(all, 0.5);
    const double p99 = Percentile(all, 0.99);
    if (json) {
      std::printf(
          "{\"bench\":\"server_admission\",\"heavy_lane\":%s,"
          "\"cheap_n\":%zu,\"cheap_p50_us\":%.1f,\"cheap_p99_us\":%.1f,"
          "\"heavy_completed\":%d,\"heavy_shed\":%d,"
          "\"heavy_lane_rejected\":%llu}\n",
          lane_on ? "true" : "false", all.size(), p50, p99, heavy_done.load(),
          heavy_shed.load(),
          static_cast<unsigned long long>(stats.heavy_lane_rejected));
    } else {
      if (!lane_on) {
        std::printf(
            "-- admission: cheap p99 under a heavy-query flood "
            "(%zu cheap + %zu heavy clients, 4 workers) --\n",
            kCheapClients, kHeavyClients);
      }
      std::printf("  heavy lane %3s: cheap p50 %9.1f us, p99 %9.1f us "
                  "(%d heavy completed, %d shed)\n",
                  lane_on ? "on" : "off", p50, p99, heavy_done.load(),
                  heavy_shed.load());
    }
  }
}

// ---------------------------------------------------------------------------

void RunJsonSuite(int requests_per_client) {
  BenchColdVsWarm(/*json=*/true);
  BenchThroughput(/*json=*/true, requests_per_client);
  BenchAdmission(/*json=*/true, requests_per_client);
}

void PrintTable(int requests_per_client) {
  std::printf("=== E20: the query server on the plan cache ===\n");
  std::printf(
      "closed-loop socket clients against a live server; warm requests are "
      "a cache probe + engine run, no parse/analyze/compile\n\n");
  BenchColdVsWarm(/*json=*/false);
  std::printf("\n");
  BenchThroughput(/*json=*/false, requests_per_client);
  std::printf("\n");
  BenchAdmission(/*json=*/false, requests_per_client);
  std::printf(
      "\nshape check: warm p50 >= 5x lower than cold; heavy lane keeps the "
      "cheap p99 bounded under flood; worker scaling needs >1 core.\n\n");
}

// Micro-bench: the in-process request path (no sockets) — Handle() on a
// warm cache is the per-request floor the HTTP layer adds onto.
void BM_HandleWarmQuery(benchmark::State& state) {
  PlanCache cache;
  QueryServerOptions options;
  options.planner.cache = &cache;
  QueryServer server(options);
  server.PutStructure("ring", MakeDirectedCycle(64), "bench");
  HttpRequest request;
  request.method = "POST";
  request.target = "/query";
  request.path = "/query";
  request.body = QueryBody("ring", "forall x. exists y. E(x,y)");
  (void)server.Handle(request);  // Warm.
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.Handle(request));
  }
}
BENCHMARK(BM_HandleWarmQuery);

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  int requests_per_client = 150;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests_per_client = std::atoi(argv[++i]);
    }
  }
  if (json) {
    RunJsonSuite(requests_per_client);
    return 0;
  }
  PrintTable(requests_per_client);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
