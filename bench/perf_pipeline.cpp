//===- perf_pipeline.cpp - §7.2 runtime/scaling (google-benchmark) ------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// §7.2 reports end-to-end learning times of ~5h (Java) / ~2h (Python) on a
// 28-core server over millions of files, and stresses that the runtime
// scales with the dataset size, not with the number of API classes. On our
// simulated corpus the absolute numbers are seconds; the comparable shape is
// the near-linear scaling of the full pipeline in the corpus size, plus the
// per-stage costs (parsing/lowering, points-to + histories, event graph,
// model training, candidate extraction).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Trace.h"

#include <benchmark/benchmark.h>

using namespace uspec;
using namespace uspec::bench;

namespace {

/// Cached corpora per size so generation isn't measured in pipeline runs.
GeneratedCorpus &corpusOf(size_t N, StringInterner &S) {
  static std::map<size_t, std::unique_ptr<GeneratedCorpus>> Cache;
  static std::unique_ptr<LanguageProfile> Profile;
  auto It = Cache.find(N);
  if (It != Cache.end())
    return *It->second;
  if (!Profile)
    Profile = std::make_unique<LanguageProfile>(javaProfile());
  GeneratorConfig Cfg;
  Cfg.NumPrograms = N;
  Cfg.Seed = 0xBE7C4;
  auto Corpus = std::make_unique<GeneratedCorpus>(
      generateCorpus(*Profile, Cfg, S));
  return *Cache.emplace(N, std::move(Corpus)).first->second;
}

StringInterner &sharedStrings() {
  static StringInterner S;
  return S;
}

void BM_ParseAndLower(benchmark::State &State) {
  LanguageProfile Profile = javaProfile();
  GeneratorConfig Cfg;
  Rng Rand(1);
  std::vector<std::string> Sources;
  for (int I = 0; I < 50; ++I)
    Sources.push_back(generateProgramSource(Profile, Cfg, Rand));
  StringInterner S;
  for (auto _ : State) {
    for (const std::string &Source : Sources) {
      DiagnosticSink Diags;
      auto P = parseAndLower(Source, "bench", S, Diags);
      benchmark::DoNotOptimize(P);
    }
  }
  State.SetItemsProcessed(State.iterations() * Sources.size());
}
BENCHMARK(BM_ParseAndLower);

void BM_UnawareAnalysis(benchmark::State &State) {
  StringInterner &S = sharedStrings();
  GeneratedCorpus &Corpus = corpusOf(50, S);
  AnalysisOptions Options;
  for (auto _ : State) {
    for (const IRProgram &P : Corpus.Programs)
      benchmark::DoNotOptimize(analyzeProgram(P, S, Options));
  }
  State.SetItemsProcessed(State.iterations() * Corpus.Programs.size());
}
BENCHMARK(BM_UnawareAnalysis);

void BM_AwareAnalysis(benchmark::State &State) {
  StringInterner &S = sharedStrings();
  GeneratedCorpus &Corpus = corpusOf(50, S);
  // Ground-truth-sized spec set for realistic ghost-field load.
  static SpecSet Specs = [&] {
    SpecSet Out;
    LanguageProfile P = javaProfile();
    for (const ApiClass &C : P.Registry.classes()) {
      Symbol ClassSym = S.intern(C.Name);
      for (const ApiMethod &M : C.Methods) {
        MethodId Mid = {ClassSym, S.intern(M.Name),
                        static_cast<uint8_t>(M.Arity)};
        if (M.Semantics == MethodSemantics::Load ||
            M.Semantics == MethodSemantics::StatelessGetter)
          Out.insert(Spec::retSame(Mid));
        if (M.Semantics == MethodSemantics::Store)
          for (const std::string &L : M.PairedLoads)
            if (const ApiMethod *Load = C.findMethod(L, M.Arity - 1))
              Out.insert(
                  Spec::retArg({ClassSym, S.intern(Load->Name),
                                static_cast<uint8_t>(Load->Arity)},
                               Mid, static_cast<uint8_t>(M.StorePos)));
      }
    }
    return Out;
  }();
  AnalysisOptions Options;
  Options.ApiAware = true;
  Options.Specs = &Specs;
  Options.CoverageExtension = true;
  for (auto _ : State) {
    for (const IRProgram &P : Corpus.Programs)
      benchmark::DoNotOptimize(analyzeProgram(P, S, Options));
  }
  State.SetItemsProcessed(State.iterations() * Corpus.Programs.size());
}
BENCHMARK(BM_AwareAnalysis);

void BM_EventGraphBuild(benchmark::State &State) {
  StringInterner &S = sharedStrings();
  GeneratedCorpus &Corpus = corpusOf(50, S);
  std::vector<AnalysisResult> Results;
  for (const IRProgram &P : Corpus.Programs)
    Results.push_back(analyzeProgram(P, S, AnalysisOptions()));
  for (auto _ : State) {
    for (const AnalysisResult &R : Results)
      benchmark::DoNotOptimize(EventGraph::build(R));
  }
  State.SetItemsProcessed(State.iterations() * Results.size());
}
BENCHMARK(BM_EventGraphBuild);

void BM_FullPipeline(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  for (auto _ : State) {
    State.PauseTiming();
    StringInterner S;
    LanguageProfile Profile = javaProfile();
    GeneratorConfig Cfg;
    Cfg.NumPrograms = N;
    Cfg.Seed = 0xBE7C4;
    GeneratedCorpus Corpus = generateCorpus(Profile, Cfg, S);
    State.ResumeTiming();

    LearnerConfig LCfg;
    USpecLearner Learner(S, LCfg);
    benchmark::DoNotOptimize(Learner.learn(Corpus.Programs));
  }
  State.SetItemsProcessed(State.iterations() * N);
  State.SetLabel(std::to_string(N) + " programs");
}
BENCHMARK(BM_FullPipeline)->Arg(100)->Arg(200)->Arg(400)->Arg(800);

// §7.2 thread scaling: the same corpus learned at increasing thread counts.
// The corpus is generated once; only learn() is measured. Output is
// bit-identical across the Args (tested in parallel_test), so this isolates
// the wall-clock effect of the sharded phases.
void BM_FullPipelineThreads(benchmark::State &State) {
  unsigned Threads = static_cast<unsigned>(State.range(0));
  static StringInterner S; // shared: interning happens before learn()
  GeneratedCorpus &Corpus = corpusOf(200, S);
  LearnerConfig Cfg;
  Cfg.Threads = Threads;
  for (auto _ : State) {
    USpecLearner Learner(S, Cfg);
    benchmark::DoNotOptimize(Learner.learn(Corpus.Programs));
  }
  State.SetItemsProcessed(State.iterations() * Corpus.Programs.size());
  State.SetLabel(std::to_string(Threads) + " threads");
}
BENCHMARK(BM_FullPipelineThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Robustness overhead (DESIGN.md §10): the same corpus learned with the
// per-program step budget off (0) and with a generous budget that never
// exhausts — isolating the cost of the Budget::consume() polling and the
// staged all-or-nothing Phase-3 extraction. With no fault armed the
// USPEC_FAULT checks are one relaxed atomic load each, so the delta between
// the two Args is the entire price of running budgeted.
void BM_FullPipelineBudgeted(benchmark::State &State) {
  uint64_t StepBudget = static_cast<uint64_t>(State.range(0));
  static StringInterner S;
  GeneratedCorpus &Corpus = corpusOf(200, S);
  LearnerConfig Cfg;
  Cfg.ProgramStepBudget = StepBudget;
  for (auto _ : State) {
    USpecLearner Learner(S, Cfg);
    benchmark::DoNotOptimize(Learner.learn(Corpus.Programs));
  }
  State.SetItemsProcessed(State.iterations() * Corpus.Programs.size());
  State.SetLabel(StepBudget ? "budgeted (never exhausts)" : "budget off");
}
BENCHMARK(BM_FullPipelineBudgeted)->Arg(0)->Arg(1 << 30);

// Observability overhead (DESIGN.md §11): the same corpus learned with
// tracing disarmed (every TraceSpan is one relaxed atomic load, same
// discipline as the USPEC_FAULT probes — Arg(0) must sit within noise of
// BM_FullPipeline at the same size) and with an in-memory session armed
// (Arg(1): clock reads + per-thread buffer appends; the trace is discarded
// unserialized after each iteration).
void BM_FullPipelineTraced(benchmark::State &State) {
  bool Traced = State.range(0) != 0;
  static StringInterner S;
  GeneratedCorpus &Corpus = corpusOf(200, S);
  LearnerConfig Cfg;
  for (auto _ : State) {
    if (Traced)
      trace::start();
    USpecLearner Learner(S, Cfg);
    benchmark::DoNotOptimize(Learner.learn(Corpus.Programs));
    if (Traced) {
      State.PauseTiming();
      trace::stop();
      State.ResumeTiming();
    }
  }
  State.SetItemsProcessed(State.iterations() * Corpus.Programs.size());
  State.SetLabel(Traced ? "tracing armed" : "tracing off");
}
BENCHMARK(BM_FullPipelineTraced)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
