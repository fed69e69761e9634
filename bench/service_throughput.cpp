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
// The end-to-end serving figures (routed warm serving through `uspec
// route`) come from perfbench's serve_hit workload (README "Benchmarks");
// these google-benchmark harnesses time the in-process service alone.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "service/Server.h"

#include <benchmark/benchmark.h>

#include <future>
#include <map>

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

} // namespace

BENCHMARK_MAIN();
