//===- service_throughput.cpp - Query-service throughput ----------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// Measures the resident alias-query service (src/service/, DESIGN.md §9):
// cold-cache vs warm-cache throughput, scaling over worker counts, and the
// request-level cache hit rate. The interesting shape: a warm cache answers
// from the fingerprint-keyed LRU without parse/lower/points-to, so warm QPS
// should sit well above cold QPS at every worker count, and cold QPS should
// scale with workers (each request analyzes on private state, no shared
// locks on the hot path).
//
// Two modes, mirroring perf_pipeline.cpp:
//  - default: google-benchmark micro harnesses;
//  - --uspec_service_json[=N]: one JSON trajectory document over worker
//    counts {1, 2, 4, 8} with cold/warm QPS, hit rates, and p50 latency —
//    the repo's machine-readable BENCH format. The document also carries a
//    replica-scaling section ("router_runs"): the same request corpus
//    pushed through the consistent-hash router (src/distrib/Router.h) in
//    front of 1/2/4 serve replicas on Unix sockets, measuring the routed
//    end-to-end path (connect + forward + analyze + envelope). Because the
//    ring partitions programs across shared-nothing caches, warm routed QPS
//    should scale with replicas while the aggregate cache footprint stays
//    flat. A third section ("hedged_runs") measures the tail-latency story:
//    one of two replicas sits behind a fixed-delay proxy (a slow peer), and
//    the routed p99 is recorded with hedging off and on — the hedge leg to
//    the fast replica should cap the tail near the hedge delay instead of
//    the injected slowness.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "distrib/Router.h"
#include "service/LineConn.h"
#include "service/Server.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <thread>
#include <unistd.h>

using namespace uspec;
using namespace uspec::bench;
using namespace uspec::service;

namespace {

/// Deterministic request corpus: MiniLang sources, their ready-made analyze
/// request lines, and a spec set learned from the same sources.
struct RequestCorpus {
  std::vector<std::string> Sources;
  std::vector<std::string> Requests;
  ServiceSpecs Specs;
};

RequestCorpus &requestCorpus(size_t N) {
  static std::map<size_t, std::unique_ptr<RequestCorpus>> Cache;
  auto It = Cache.find(N);
  if (It != Cache.end())
    return *It->second;

  auto RC = std::make_unique<RequestCorpus>();
  LanguageProfile Profile = javaProfile();
  GeneratorConfig Cfg;
  Rng Rand(0x5E21CE);
  StringInterner Strings;
  std::vector<IRProgram> Corpus;
  for (size_t I = 0; I < N; ++I) {
    std::string Source = generateProgramSource(Profile, Cfg, Rand);
    DiagnosticSink Diags;
    auto P =
        parseAndLower(Source, "p" + std::to_string(I), Strings, Diags);
    if (!P)
      continue; // generator output always parses; belt and braces
    Corpus.push_back(std::move(*P));
    std::string Request = "{\"id\":" + std::to_string(I) +
                          ",\"verb\":\"analyze\",\"program\":";
    appendJsonString(Request, Source);
    Request += "}";
    RC->Sources.push_back(std::move(Source));
    RC->Requests.push_back(std::move(Request));
  }
  USpecLearner Learner(Strings, LearnerConfig());
  LearnResult Result = Learner.learn(Corpus);
  RC->Specs = ServiceSpecs::fromSpecSet(Result.Selected, Strings);
  return *Cache.emplace(N, std::move(RC)).first->second;
}

/// Submits every request once and waits for all responses; the queue is
/// sized to hold the whole batch, so nothing is rejected and the measured
/// number is pure service time.
void submitAll(Server &S, const std::vector<std::string> &Requests) {
  std::vector<std::future<std::string>> Futures;
  Futures.reserve(Requests.size());
  for (const std::string &R : Requests)
    Futures.push_back(S.submit(R));
  for (auto &F : Futures)
    benchmark::DoNotOptimize(F.get());
}

ServerConfig configFor(unsigned Workers, size_t Batch) {
  ServerConfig Cfg;
  Cfg.Workers = Workers;
  Cfg.QueueCapacity = Batch + 16;
  Cfg.CacheCapacity = 2 * Batch + 16;
  return Cfg;
}

//===----------------------------------------------------------------------===//
// google-benchmark harnesses
//===----------------------------------------------------------------------===//

/// Cold path: a fresh server per iteration, every request misses the cache
/// and runs parse/lower/points-to.
void BM_ServiceCold(benchmark::State &State) {
  const unsigned Workers = static_cast<unsigned>(State.range(0));
  RequestCorpus &RC = requestCorpus(64);
  for (auto _ : State) {
    Server S(configFor(Workers, RC.Requests.size()), RC.Specs);
    submitAll(S, RC.Requests);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(RC.Requests.size()));
}
BENCHMARK(BM_ServiceCold)->Arg(1)->Arg(4)->UseRealTime();

/// Warm path: one long-lived server, first batch primes the cache, every
/// measured request is a hit.
void BM_ServiceWarm(benchmark::State &State) {
  const unsigned Workers = static_cast<unsigned>(State.range(0));
  RequestCorpus &RC = requestCorpus(64);
  Server S(configFor(Workers, RC.Requests.size()), RC.Specs);
  submitAll(S, RC.Requests); // prime
  for (auto _ : State)
    submitAll(S, RC.Requests);
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(RC.Requests.size()));
}
BENCHMARK(BM_ServiceWarm)->Arg(1)->Arg(4)->UseRealTime();

/// Protocol floor: stats requests only — no analysis, no cache; bounds the
/// fixed per-request cost (parse + dispatch + envelope).
void BM_ServiceStatsVerb(benchmark::State &State) {
  Server S(configFor(2, 64), ServiceSpecs());
  for (auto _ : State)
    benchmark::DoNotOptimize(S.handle("{\"verb\":\"stats\"}"));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ServiceStatsVerb);

//===----------------------------------------------------------------------===//
// --uspec_service_json: the BENCH trajectory document
//===----------------------------------------------------------------------===//

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

//===----------------------------------------------------------------------===//
// Replica scaling: the routed serving path
//===----------------------------------------------------------------------===//

/// One in-process serve replica behind a real Unix socket, exactly the
/// process shape of `uspec serve --socket` minus the fork.
struct BenchReplica {
  std::unique_ptr<Server> S;
  volatile int Stop = 0;
  std::thread T;
  std::string Path;

  bool start(std::string SockPath, const ServiceSpecs &Specs, size_t Batch) {
    Path = std::move(SockPath);
    ServerConfig Cfg = configFor(2, Batch);
    Cfg.AcceptPollMs = 20;
    S = std::make_unique<Server>(Cfg, Specs);
    T = std::thread([this] { S->serveUnixSocket(Path, &Stop, nullptr); });
    for (int I = 0; I < 500 && access(Path.c_str(), F_OK) != 0; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return access(Path.c_str(), F_OK) == 0;
  }

  ~BenchReplica() {
    Stop = 1;
    if (T.joinable())
      T.join();
  }
};

/// Pushes every request through the router once from \p Clients concurrent
/// client threads (Router::handleLine is thread-safe; concurrent forwards
/// draw separate pooled replica connections). Returns wall seconds.
double routedPass(distrib::Router &R,
                  const std::vector<std::string> &Requests,
                  unsigned Clients) {
  auto Start = std::chrono::steady_clock::now();
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Threads;
  Threads.reserve(Clients);
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&] {
      for (size_t I = Next.fetch_add(1); I < Requests.size();
           I = Next.fetch_add(1))
        benchmark::DoNotOptimize(R.handleLine(Requests[I]));
    });
  for (std::thread &T : Threads)
    T.join();
  return secondsSince(Start);
}

/// Emits the "router_runs" array: cold + warm routed passes at 1/2/4
/// replicas. Returns false if a replica socket failed to come up.
bool runRouterScaling(RequestCorpus &RC) {
  const unsigned ReplicaCounts[] = {1, 2, 4};
  const unsigned Clients = 8;
  std::printf("  \"router_runs\": [\n");
  for (size_t I = 0; I < std::size(ReplicaCounts); ++I) {
    unsigned N = ReplicaCounts[I];
    std::vector<std::unique_ptr<BenchReplica>> Fleet;
    distrib::RouterConfig RCfg;
    for (unsigned R = 0; R < N; ++R) {
      auto Rep = std::make_unique<BenchReplica>();
      std::string Path = "/tmp/uspec_bench_rt" + std::to_string(getpid()) +
                         "_" + std::to_string(N) + "_" + std::to_string(R) +
                         ".sock";
      if (!Rep->start(Path, RC.Specs, RC.Requests.size())) {
        std::fprintf(stderr, "error: replica socket %s never came up\n",
                     Path.c_str());
        return false;
      }
      RCfg.Replicas.push_back(Rep->Path);
      Fleet.push_back(std::move(Rep));
    }
    distrib::Router Router(RCfg);

    double ColdSec = routedPass(Router, RC.Requests, Clients);
    double WarmSec = routedPass(Router, RC.Requests, Clients);

    uint64_t Hits = 0, Misses = 0;
    for (const auto &Rep : Fleet) {
      Hits += Rep->S->metrics().cacheHitCount();
      Misses += Rep->S->metrics().cacheMissCount();
    }
    double HitRate =
        Hits + Misses ? static_cast<double>(Hits) / (Hits + Misses) : 0;
    double Num = static_cast<double>(RC.Requests.size());
    std::printf("    {\"replicas\": %u, \"cold_qps\": %.1f, "
                "\"warm_qps\": %.1f, \"warm_speedup\": %.2f, "
                "\"hit_rate\": %.4f}%s\n",
                N, ColdSec > 0 ? Num / ColdSec : 0,
                WarmSec > 0 ? Num / WarmSec : 0,
                WarmSec > 0 ? ColdSec / WarmSec : 0, HitRate,
                I + 1 < std::size(ReplicaCounts) ? "," : "");
  }
  std::printf("  ],\n");
  return true;
}

//===----------------------------------------------------------------------===//
// Hedged tail: one slow replica, p99 with and without request hedging
//===----------------------------------------------------------------------===//

/// A Unix-socket proxy that fronts one replica and delays every request by
/// a fixed amount — a deterministic "slow peer" for the tail measurement.
/// Each connection has its own LineServer handler, so hedged primary legs
/// that are still sleeping never queue behind fresh requests.
struct DelayProxy {
  unsigned DelayMs = 0;
  std::unique_ptr<service::ConnPool> Backend;
  service::LineServer Conns{service::DefaultMaxLineBytes,
                            [this](std::string Line) {
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(DelayMs));
                              std::string Resp, Err;
                              if (!Backend->roundTrip(Line, Resp, &Err))
                                return service::errorResponse("", "internal",
                                                              Err);
                              return Resp;
                            }};
  std::atomic<bool> Stop{false};
  std::thread Acceptor;

  bool start(const std::string &SockPath, std::string BackendPath,
             unsigned Ms) {
    DelayMs = Ms;
    Backend = std::make_unique<service::ConnPool>(std::move(BackendPath));
    if (!Conns.listen(SockPath))
      return false;
    Acceptor = std::thread(
        [this] { Conns.run(50, [this] { return Stop.load(); }); });
    return true;
  }

  ~DelayProxy() {
    Stop = true;
    if (Acceptor.joinable())
      Acceptor.join();
  }
};

/// One sequential pass recording per-request wall latency. Single-client on
/// purpose: the tail being measured is per-request service latency, not
/// queueing under load.
std::vector<double> latencyPass(distrib::Router &R,
                                const std::vector<std::string> &Requests) {
  std::vector<double> Seconds;
  Seconds.reserve(Requests.size());
  for (const std::string &Req : Requests) {
    auto Start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(R.handleLine(Req));
    Seconds.push_back(secondsSince(Start));
  }
  return Seconds;
}

double percentileMs(std::vector<double> Seconds, double P) {
  if (Seconds.empty())
    return 0;
  std::sort(Seconds.begin(), Seconds.end());
  size_t Idx = static_cast<size_t>(P * static_cast<double>(Seconds.size()));
  if (Idx >= Seconds.size())
    Idx = Seconds.size() - 1;
  return Seconds[Idx] * 1e3;
}

/// Emits the "hedged_runs" array: two replicas, one behind a DelayProxy,
/// p50/p99 of the routed path with hedging off then on. Returns false if a
/// socket failed to come up.
bool runHedgedTail(RequestCorpus &RC) {
  const unsigned SlowMs = 25, HedgeMs = 5;
  std::string Base =
      "/tmp/uspec_bench_hg" + std::to_string(getpid());

  BenchReplica Fast, SlowBackend;
  if (!Fast.start(Base + "_fast.sock", RC.Specs, RC.Requests.size()) ||
      !SlowBackend.start(Base + "_slowb.sock", RC.Specs,
                         RC.Requests.size())) {
    std::fprintf(stderr, "error: hedged-tail replica never came up\n");
    return false;
  }
  DelayProxy Slow;
  if (!Slow.start(Base + "_slow.sock", SlowBackend.Path, SlowMs)) {
    std::fprintf(stderr, "error: hedged-tail proxy never came up\n");
    return false;
  }

  distrib::RouterConfig Cfg;
  Cfg.Replicas = {Fast.Path, Base + "_slow.sock"};
  std::printf("  \"hedged_runs\": [\n");
  for (int Hedged = 0; Hedged <= 1; ++Hedged) {
    Cfg.HedgeMs = Hedged ? HedgeMs : 0;
    distrib::Router Router(Cfg);
    latencyPass(Router, RC.Requests); // prime both replica caches
    std::vector<double> Seconds = latencyPass(Router, RC.Requests);
    std::printf("    {\"mode\": \"%s\", \"slow_replica_delay_ms\": %u, "
                "\"hedge_ms\": %u, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                "\"hedged\": %llu, \"hedged_wins\": %llu}%s\n",
                Hedged ? "hedged" : "unhedged", SlowMs,
                Hedged ? HedgeMs : 0, percentileMs(Seconds, 0.50),
                percentileMs(Seconds, 0.99),
                static_cast<unsigned long long>(Router.hedgedCount()),
                static_cast<unsigned long long>(Router.hedgedWinsCount()),
                Hedged ? "" : ",");
  }
  std::printf("  ]\n");
  return true;
}

/// One JSON document: for each worker count, cold-pass QPS (fresh server,
/// all misses), warm-pass QPS (same server, all hits), hit rate and p50.
int runServiceJson(size_t NumPrograms) {
  RequestCorpus &RC = requestCorpus(NumPrograms);

  const unsigned WorkerCounts[] = {1, 2, 4, 8};
  std::printf("{\n  \"bench\": \"service_throughput\",\n"
              "  \"programs\": %zu,\n  \"specs\": %zu,\n  \"runs\": [\n",
              RC.Requests.size(), RC.Specs.Lines.size());
  for (size_t I = 0; I < std::size(WorkerCounts); ++I) {
    unsigned Workers = WorkerCounts[I];
    Server S(configFor(Workers, RC.Requests.size()), RC.Specs);

    auto ColdStart = std::chrono::steady_clock::now();
    submitAll(S, RC.Requests);
    double ColdSec = secondsSince(ColdStart);

    auto WarmStart = std::chrono::steady_clock::now();
    submitAll(S, RC.Requests);
    double WarmSec = secondsSince(WarmStart);

    uint64_t Hits = S.metrics().cacheHitCount();
    uint64_t Misses = S.metrics().cacheMissCount();
    double HitRate =
        Hits + Misses ? static_cast<double>(Hits) / (Hits + Misses) : 0;
    double N = static_cast<double>(RC.Requests.size());
    std::printf("    {\"workers\": %u, \"cold_qps\": %.1f, "
                "\"warm_qps\": %.1f, \"warm_speedup\": %.2f, "
                "\"hit_rate\": %.4f, \"p50_ms\": %.3f}%s\n",
                Workers, ColdSec > 0 ? N / ColdSec : 0,
                WarmSec > 0 ? N / WarmSec : 0,
                WarmSec > 0 ? ColdSec / WarmSec : 0, HitRate,
                S.metrics().p50LatencySeconds() * 1e3,
                I + 1 < std::size(WorkerCounts) ? "," : "");
  }
  std::printf("  ],\n");
  if (!runRouterScaling(RC))
    return 1;
  if (!runHedgedTail(RC))
    return 1;
  std::printf("}\n");
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    if (!std::strncmp(argv[I], "--uspec_service_json", 20)) {
      size_t N = 128;
      if (argv[I][20] == '=')
        N = static_cast<size_t>(std::strtoull(argv[I] + 21, nullptr, 10));
      return runServiceJson(N ? N : 128);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
