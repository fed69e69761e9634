//===- Learner.cpp - The USpec learning pipeline (Fig. 1) ---------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Learner.h"

#include "core/Naming.h"
#include "eventgraph/EventGraph.h"
#include "support/Budget.h"
#include "support/FaultInject.h"
#include "support/ParallelFor.h"
#include "support/Trace.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

using namespace uspec;

namespace {

/// The pipeline of learn() and learnIncrement(), traced as \p SpanName:
/// Phases 1–5 over \p Programs, continuing from \p Prev. learn() passes a
/// fresh model, an empty ledger and base 0. Program I sits at global
/// corpus position Prev.BasePrograms + I: its sample seed, program id,
/// trace index and fault index are those of that position, so an
/// incremental run and a full replay of the grown corpus make the same
/// per-program decisions.
LearnResult runPipeline(const char *SpanName,
                        const std::vector<IRProgram> &Programs,
                        WarmStart Prev, const LearnerConfig &Config,
                        StringInterner &Strings) {
  assert(!Config.Analysis.ApiAware &&
         "learning runs on the API-unaware analysis");
  LearnResult Result;
  Result.Model = std::move(Prev.Model);
  Result.Ledger = std::move(Prev.Ledger);
  const size_t N = Programs.size();
  const size_t Base = Prev.BasePrograms;
  Result.Stats.ThreadsUsed =
      effectiveThreads(std::max<size_t>(1, N), Config.Threads);
  Result.Stats.Programs = N;
  PhaseTimer Total, Phase;

  // Tracing is observational only: spans read clocks and buffer events but
  // never influence scheduling, seeds, or shard boundaries, so the learned
  // artifacts are bit-identical with tracing on or off (pinned by
  // TelemetryDeterminism tests).
  TraceSpan LearnSpan(SpanName);
  if (LearnSpan.active()) {
    LearnSpan.arg("programs", std::to_string(N));
    LearnSpan.arg("base_programs", std::to_string(Base));
    LearnSpan.arg("threads", std::to_string(Result.Stats.ThreadsUsed));
  }

  // Phase 1 (§3): analyze each program and build its event graph. Programs
  // are independent, so this fans out across threads (the paper runs its
  // pipeline on a 28-core server, §7.2). Phase 2a (§4.2) collects each
  // program's training samples, seeded per program so results do not
  // depend on scheduling.
  //
  // Per-program isolation (DESIGN.md §10): an analysis that throws or blows
  // its step budget quarantines that one program instead of aborting the
  // run. Quarantine is IN PLACE — the program keeps its slot with an empty
  // graph and no samples — so sample seeds hashValues(Seed, Base + I) and
  // Phase-3 shard boundaries are exactly those of the full corpus, keeping
  // the result bit-identical at any thread count.
  std::vector<std::unique_ptr<AnalysisResult>> Analyses(N);
  std::vector<EventGraph> Graphs(N);
  std::vector<std::string> QReason(N);
  std::vector<std::vector<TrainingSample>> PerProgramSamples(N);
  {
  TraceSpan PhaseSpan("learn.phase1_analyze");
  parallelFor(N, Config.Threads, [&](size_t I) {
    TraceSpan ProgramSpan("learn.program");
    if (ProgramSpan.active()) {
      ProgramSpan.arg("index", std::to_string(Base + I));
      if (!Programs[I].Name.empty())
        ProgramSpan.arg("name", Programs[I].Name);
    }
    try {
      if (faultFiresAt("learn.analyze", Base + I))
        throw FaultInjected("learn.analyze");
      Budget B = Budget::steps(Config.ProgramStepBudget);
      AnalysisOptions Opts = Config.Analysis;
      if (Config.ProgramStepBudget != 0)
        Opts.StepBudget = &B;
      Analyses[I] = std::make_unique<AnalysisResult>(
          analyzeProgram(Programs[I], Strings, Opts));
      if (Analyses[I]->Bounded) {
        QReason[I] = std::string("analysis:") + B.reason();
        if (QReason[I] == "analysis:") // injected exhaustion, not the budget
          QReason[I] = "analysis:bounded";
        Analyses[I] = std::make_unique<AnalysisResult>();
        return;
      }
      Graphs[I] = EventGraph::build(*Analyses[I]);
      Rng Rand(hashValues(Config.Seed, Base + I));
      collectTrainingSamples(Graphs[I], Rand, PerProgramSamples[I]);
    } catch (const FaultInjected &F) {
      QReason[I] = "fault:" + F.site();
    } catch (const std::exception &E) {
      QReason[I] = std::string("error:") + E.what();
    }
    if (!QReason[I].empty()) {
      Analyses[I] = std::make_unique<AnalysisResult>();
      Graphs[I] = EventGraph();
      PerProgramSamples[I].clear();
    }
  });
  for (const EventGraph &G : Graphs)
    if (!G.callSites().empty())
      ++Result.Stats.Graphs;
  Result.Stats.AnalyzeSeconds = Phase.lap();
  }

  // Phase 2b: train ϕ on the samples in corpus order, the models side by
  // side (EdgeModel::train). A warm-started model continues SGD from its
  // restored weights; train() never resets an existing per-pair model.
  // Accuracy is measured on this run's samples; the sample count reported
  // is cumulative.
  {
  TraceSpan PhaseSpan("learn.phase2_train");
  {
    TrainingSet Set = TrainingSet::flatten(PerProgramSamples, Config.Threads);
    Result.Model.train(Set, Config.Threads);
    Result.TrainAccuracy = Result.Model.accuracy(Set, Config.Threads);
    Result.Stats.TrainingSamples = Set.size();
  } // freeing the set is training time, not extraction time
  Result.NumTrainingSamples =
      Prev.BaseTrainingSamples + Result.Stats.TrainingSamples;
  Result.Stats.TrainSeconds = Phase.lap();
  if (PhaseSpan.active())
    PhaseSpan.arg("samples", std::to_string(Result.Stats.TrainingSamples));
  }

  // Phase 3 (Alg. 1): candidate extraction and confidence collection,
  // sharded. Each worker runs Alg. 1 over its own contiguous range of
  // graphs into a private collector (ϕ queries are read-only), then the
  // shards fold left-to-right into shard 0. The merge preserves first-seen
  // candidate order and graph-order ΓS, so the merged table is bit-identical
  // to a serial pass at any shard count. It then folds into the carried
  // ledger (DESIGN.md §12): known candidates keep their slots, new ones
  // append in first-seen order. Journal-trained artifacts persist the
  // ledger so the next delta can keep extending it.
  {
  TraceSpan PhaseSpan("learn.phase3_extract");
  unsigned NumShards = effectiveThreads(N, Config.Threads);
  std::vector<CandidateCollector> Shards;
  Shards.reserve(NumShards);
  for (unsigned S = 0; S < NumShards; ++S)
    Shards.emplace_back(Result.Model, Config.DistanceBound,
                        Config.ExperimentalPatterns);
  parallelFor(NumShards, Config.Threads, [&](size_t S) {
    auto [Lo, Hi] = shardRange(N, static_cast<unsigned>(S), NumShards);
    for (size_t I = Lo; I < Hi; ++I) {
      if (!QReason[I].empty())
        continue; // quarantined in Phase 1; default graph has no analysis
      uint32_t Id = static_cast<uint32_t>(Base + I);
      if (Config.ProgramStepBudget == 0) {
        Shards[S].addGraph(Graphs[I], Id);
        continue;
      }
      // Budgeted extraction is all-or-nothing per graph: stage into a
      // scratch collector and merge only on completion, so a quarantined
      // graph contributes nothing (deterministic at any shard count; merge
      // is bit-identical to a direct addGraph, see parallel_test).
      Budget B = Budget::steps(Config.ProgramStepBudget);
      CandidateCollector Tmp(Result.Model, Config.DistanceBound,
                             Config.ExperimentalPatterns);
      if (Tmp.addGraph(Graphs[I], Id, &B))
        Shards[S].merge(std::move(Tmp));
      else
        QReason[I] = "extract:steps";
    }
  });
  for (const CandidateCollector &Shard : Shards)
    Result.Stats.PeakCandidates += Shard.candidates().size();
  for (size_t S = 1; S < Shards.size(); ++S)
    Shards[0].merge(std::move(Shards[S]));
  Result.Stats.ReceiverPairs = Shards[0].numReceiverPairs();
  Result.Stats.Matches = Shards[0].numMatches();
  Result.Ledger.extendWith(Shards[0]);
  }
  Result.Stats.Candidates = Result.Ledger.Entries.size();
  Result.Stats.ExtractSeconds = Phase.lap();

  // Phase 4 (§5.2): scoring over the ledger, which holds all evidence so
  // far (base + this run), parallel per candidate slot. Each worker writes
  // only its candidate's slot; the stable sort then sees the same sequence
  // as a serial run.
  const std::vector<CandidateLedger::Entry> &Entries = Result.Ledger.Entries;
  Result.Candidates.resize(Entries.size());
  {
  TraceSpan PhaseSpan("learn.phase4_score");
  if (PhaseSpan.active())
    PhaseSpan.arg("candidates", std::to_string(Entries.size()));
  parallelFor(Entries.size(), Config.Threads, [&](size_t I) {
    const CandidateLedger::Entry &E = Entries[I];
    ScoredCandidate C;
    C.S = E.S;
    C.Score = scoreCandidate(E.Confidences, E.Matches, E.Programs,
                             Config.Scoring, Config.TopK);
    if (Config.Scoring == ScoreKind::NameAware)
      C.Score = blendWithNamingPrior(C.Score, namingPrior(E.S, Strings));
    C.Matches = E.Matches;
    C.Programs = E.Programs;
    C.NumConfidences = E.Confidences.size();
    Result.Candidates[I] = std::move(C);
  });
  std::stable_sort(Result.Candidates.begin(), Result.Candidates.end(),
                   [](const ScoredCandidate &A, const ScoredCandidate &B) {
                     if (A.Score != B.Score)
                       return A.Score > B.Score;
                     return A.Matches > B.Matches;
                   });
  Result.Stats.ScoreSeconds = Phase.lap();
  }

  // Phase 5 (§5.3–5.4): selection and consistency extension.
  {
  TraceSpan PhaseSpan("learn.phase5_select");
  Result.Selected = USpecLearner::select(Result.Candidates, Config.Tau,
                                         Config.ExtendConsistency,
                                         &Result.AddedByExtension);
  Result.Stats.SelectSeconds = Phase.lap();
  }

  // Quarantine report, in corpus order with global corpus indices
  // (deterministic at any thread count).
  for (size_t I = 0; I < N; ++I)
    if (!QReason[I].empty())
      Result.Stats.Quarantined.push_back(
          QuarantineRecord{Base + I, Programs[I].Name, QReason[I]});

  {
  TraceSpan ReleaseSpan("learn.release");
  parallelFor(N, Config.Threads, [&](size_t I) {
    Analyses[I].reset();
    Graphs[I] = EventGraph();
  });
  std::vector<std::unique_ptr<AnalysisResult>>().swap(Analyses);
  std::vector<EventGraph>().swap(Graphs);
  }

  Result.Stats.TotalSeconds = Total.lap();
  return Result;
}

} // namespace

LearnResult USpecLearner::learn(const std::vector<IRProgram> &Corpus) {
  WarmStart Fresh;
  Fresh.Model = EdgeModel(Config.Model);
  return runPipeline("learn", Corpus, std::move(Fresh), Config, Strings);
}

LearnResult USpecLearner::learnIncrement(const std::vector<IRProgram> &Delta,
                                         WarmStart Prev) {
  return runPipeline("learn.increment", Delta, std::move(Prev), Config,
                     Strings);
}

SpecSet USpecLearner::select(const std::vector<ScoredCandidate> &Candidates,
                             double Tau, bool Extend,
                             size_t *AddedByExtension) {
  SpecSet Selected;
  for (const ScoredCandidate &C : Candidates)
    if (C.Score >= Tau)
      Selected.insert(C.S);
  size_t Added = Extend ? Selected.extendConsistency() : 0;
  if (AddedByExtension)
    *AddedByExtension = Added;
  return Selected;
}

size_t USpecLearner::countApiClasses(
    const std::vector<ScoredCandidate> &Candidates) {
  std::unordered_set<uint32_t> Classes;
  for (const ScoredCandidate &C : Candidates)
    Classes.insert(C.S.Target.Class.id());
  return Classes.size();
}

size_t USpecLearner::countApiClasses(const SpecSet &Specs) {
  std::unordered_set<uint32_t> Classes;
  for (const Spec &S : Specs.all())
    Classes.insert(S.Target.Class.id());
  return Classes.size();
}
