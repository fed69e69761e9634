//===- parallel_test.cpp - Determinism of the parallel pipeline ---------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// The §7.2 contract, strengthened into hard assertions: the *entire*
// LearnResult — candidate order, exact score bits, match/program counts,
// selected specification text, and saved USPB artifact bytes — must be
// identical for any thread count. Plus unit coverage for the pieces the
// contract rests on: exception-safe parallelFor, the deterministic
// CandidateCollector shard merge, and StringInterner reference stability
// under growth (the parallel phases read the interner concurrently).
//
//===----------------------------------------------------------------------===//

#include "artifact/Checkpoint.h"
#include "core/USpec.h"
#include "corpus/Dedup.h"
#include "corpus/Generator.h"
#include "corpus/Profiles.h"
#include "specs/SpecIO.h"
#include "support/ParallelFor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <numeric>
#include <stdexcept>

using namespace uspec;

namespace {

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

TEST(ParallelPipeline, ParallelForCoversEverySlotOnce) {
  for (unsigned Threads : {1u, 2u, 8u, 0u}) {
    std::vector<int> Touched(997, 0);
    parallelFor(Touched.size(), Threads,
                [&](size_t I) { Touched[I] += static_cast<int>(I) + 1; });
    for (size_t I = 0; I < Touched.size(); ++I)
      ASSERT_EQ(Touched[I], static_cast<int>(I) + 1) << "slot " << I;
  }
}

TEST(ParallelPipeline, ParallelForPropagatesWorkerExceptions) {
  // A throwing body must surface on the caller, not std::terminate the
  // process via an unhandled exception on a std::thread.
  for (unsigned Threads : {1u, 2u, 8u}) {
    std::atomic<size_t> Ran{0};
    EXPECT_THROW(
        parallelFor(64, Threads,
                    [&](size_t I) {
                      if (I == 13)
                        throw std::runtime_error("worker failure");
                      ++Ran;
                    }),
        std::runtime_error);
    EXPECT_LT(Ran.load(), 64u) << "the throwing slot never counts";
  }
}

TEST(ParallelPipeline, ParallelForRethrowsFirstExceptionOnly) {
  // Every worker throwing concurrently still yields exactly one rethrow.
  EXPECT_THROW(parallelFor(256, 8,
                           [](size_t) {
                             throw std::runtime_error("all workers fail");
                           }),
               std::runtime_error);
}

TEST(ParallelPipeline, ShardRangesPartitionTheIndexSpace) {
  for (size_t N : {0u, 1u, 7u, 64u, 1000u}) {
    for (unsigned Shards : {1u, 2u, 3u, 8u, 17u}) {
      size_t Covered = 0, PrevEnd = 0;
      for (unsigned S = 0; S < Shards; ++S) {
        auto [Lo, Hi] = shardRange(N, S, Shards);
        EXPECT_EQ(Lo, PrevEnd) << "contiguous";
        EXPECT_LE(Lo, Hi);
        Covered += Hi - Lo;
        PrevEnd = Hi;
      }
      EXPECT_EQ(PrevEnd, N);
      EXPECT_EQ(Covered, N);
    }
  }
}

//===----------------------------------------------------------------------===//
// StringInterner
//===----------------------------------------------------------------------===//

TEST(ParallelPipeline, InternerReferencesSurviveReallocation) {
  StringInterner S;
  Symbol First = S.intern("the-very-first-string");
  const std::string &FirstRef = S.str(First);
  const char *FirstData = FirstRef.data();

  // Far more interns than any initial chunk holds: a vector-backed storage
  // would have reallocated (and moved FirstRef's bytes) many times over.
  std::vector<Symbol> Syms;
  for (int I = 0; I < 20000; ++I)
    Syms.push_back(S.intern("filler-string-number-" + std::to_string(I)));

  EXPECT_EQ(FirstRef, "the-very-first-string");
  EXPECT_EQ(FirstRef.data(), FirstData)
      << "str() references must stay stable across interner growth";
  EXPECT_EQ(S.intern("the-very-first-string"), First);
  // Spot-check that growth kept every symbol resolvable.
  EXPECT_EQ(S.str(Syms[123]), "filler-string-number-123");
  EXPECT_EQ(S.str(Syms[19999]), "filler-string-number-19999");
}

TEST(ParallelPipeline, InternerHeterogeneousLookup) {
  StringInterner S;
  std::string Backing = "heterogeneous-probe";
  Symbol A = S.intern(std::string_view(Backing));
  // Probing with a view into different backing memory must hit the same
  // entry (the index compares contents, not addresses).
  std::string Copy = Backing;
  EXPECT_EQ(S.intern(std::string_view(Copy)), A);
  EXPECT_EQ(S.size(), 2u) << "empty string + one interned entry";
}

//===----------------------------------------------------------------------===//
// CandidateCollector shard merge
//===----------------------------------------------------------------------===//

TEST(ParallelPipeline, CollectorShardMergeMatchesSerialRun) {
  StringInterner S;
  LanguageProfile P = javaProfile();
  GeneratorConfig GenCfg;
  GenCfg.NumPrograms = 40;
  GenCfg.Seed = 0xA11CE;
  GeneratedCorpus Corpus = generateCorpus(P, GenCfg, S);

  std::vector<AnalysisResult> Analyses;
  std::vector<EventGraph> Graphs;
  Analyses.reserve(Corpus.Programs.size());
  for (const IRProgram &Prog : Corpus.Programs)
    Analyses.push_back(analyzeProgram(Prog, S, AnalysisOptions()));
  for (const AnalysisResult &R : Analyses)
    Graphs.push_back(EventGraph::build(R));

  EdgeModel Model;
  CandidateCollector Serial(Model, 10);
  for (size_t I = 0; I < Graphs.size(); ++I)
    Serial.addGraph(Graphs[I], static_cast<uint32_t>(I));

  for (unsigned NumShards : {1u, 2u, 3u, 8u}) {
    std::vector<CandidateCollector> Shards;
    Shards.reserve(NumShards);
    for (unsigned T = 0; T < NumShards; ++T)
      Shards.emplace_back(Model, 10);
    for (unsigned T = 0; T < NumShards; ++T) {
      auto [Lo, Hi] = shardRange(Graphs.size(), T, NumShards);
      for (size_t I = Lo; I < Hi; ++I)
        Shards[T].addGraph(Graphs[I], static_cast<uint32_t>(I));
    }
    for (unsigned T = 1; T < NumShards; ++T)
      Shards[0].merge(std::move(Shards[T]));
    const CandidateCollector &Merged = Shards[0];

    ASSERT_EQ(Merged.candidates().size(), Serial.candidates().size())
        << NumShards << " shards";
    ASSERT_FALSE(Serial.candidates().empty());
    for (size_t I = 0; I < Serial.candidates().size(); ++I)
      EXPECT_EQ(Merged.candidates()[I], Serial.candidates()[I])
          << "first-seen order diverged at slot " << I << " with "
          << NumShards << " shards";
    for (const Spec &Sp : Serial.candidates()) {
      const CandidateStats &A = Serial.stats().at(Sp);
      const CandidateStats &B = Merged.stats().at(Sp);
      EXPECT_EQ(A.Matches, B.Matches);
      EXPECT_EQ(A.Programs, B.Programs);
      EXPECT_EQ(A.ProgramIds, B.ProgramIds);
      EXPECT_EQ(A.Confidences, B.Confidences)
          << "ΓS must concatenate in graph order: " << Sp.str(S);
    }
    EXPECT_EQ(Merged.numReceiverPairs(), Serial.numReceiverPairs());
    EXPECT_EQ(Merged.numMatches(), Serial.numMatches());
  }
}

//===----------------------------------------------------------------------===//
// Full-pipeline determinism across thread counts
//===----------------------------------------------------------------------===//

struct FullRun {
  std::vector<std::string> CandidateText;
  std::vector<double> Scores;
  std::vector<size_t> Matches, Programs, NumConfidences;
  std::string SelectedText;
  std::string ArtifactBytes;
  PipelineStats Stats;
};

FullRun runPipelineWith(unsigned Threads) {
  StringInterner S;
  LanguageProfile P = javaProfile();
  GeneratorConfig GenCfg;
  GenCfg.NumPrograms = 120;
  GenCfg.Seed = 0xF00D;
  GeneratedCorpus Corpus = generateCorpus(P, GenCfg, S);

  LearnerConfig Cfg;
  Cfg.Threads = Threads;
  USpecLearner Learner(S, Cfg);
  LearnResult Result = Learner.learn(Corpus.Programs);

  CorpusManifest Manifest;
  for (size_t I = 0; I < Corpus.Programs.size(); ++I)
    Manifest.Entries.push_back(
        {"prog" + std::to_string(I), programFingerprint(Corpus.Programs[I])});

  FullRun Run;
  for (const ScoredCandidate &C : Result.Candidates) {
    Run.CandidateText.push_back(C.S.str(S));
    Run.Scores.push_back(C.Score);
    Run.Matches.push_back(C.Matches);
    Run.Programs.push_back(C.Programs);
    Run.NumConfidences.push_back(C.NumConfidences);
  }
  Run.SelectedText = serializeSpecs(Result.Selected, S);
  Run.ArtifactBytes = Learner.saveArtifacts(Result, &Manifest);
  Run.Stats = Result.Stats;
  return Run;
}

TEST(ParallelPipeline, FullLearnResultIsThreadCountInvariant) {
  FullRun One = runPipelineWith(1);
  ASSERT_FALSE(One.CandidateText.empty());
  ASSERT_FALSE(One.SelectedText.empty());
  ASSERT_FALSE(One.ArtifactBytes.empty());

  for (unsigned Threads : {2u, 8u}) {
    FullRun Other = runPipelineWith(Threads);
    // Candidate order and every per-candidate field, bit-exact scores
    // included.
    EXPECT_EQ(One.CandidateText, Other.CandidateText) << Threads << " threads";
    EXPECT_EQ(One.Scores, Other.Scores) << Threads << " threads";
    EXPECT_EQ(One.Matches, Other.Matches) << Threads << " threads";
    EXPECT_EQ(One.Programs, Other.Programs) << Threads << " threads";
    EXPECT_EQ(One.NumConfidences, Other.NumConfidences)
        << Threads << " threads";
    // Selected specification text and the serialized artifact.
    EXPECT_EQ(One.SelectedText, Other.SelectedText) << Threads << " threads";
    EXPECT_EQ(One.ArtifactBytes, Other.ArtifactBytes)
        << "USPB bytes must not depend on the thread count ("
        << Threads << " threads)";
    // Workload counters (not timings) are sharding-invariant too.
    EXPECT_EQ(One.Stats.ReceiverPairs, Other.Stats.ReceiverPairs);
    EXPECT_EQ(One.Stats.Matches, Other.Stats.Matches);
    EXPECT_EQ(One.Stats.TrainingSamples, Other.Stats.TrainingSamples);
    EXPECT_EQ(One.Stats.Candidates, Other.Stats.Candidates);
    EXPECT_EQ(One.Stats.Graphs, Other.Stats.Graphs);
  }
}

//===----------------------------------------------------------------------===//
// Phase 2b: per-model parallel SGD
//===----------------------------------------------------------------------===//

/// The serial trainer that the per-model schedule replaced, kept verbatim as
/// the reference: one pass per epoch over the shuffled samples, each sample
/// updating its position pair's model. Comparing against it pins the update
/// order itself, not just agreement between thread counts.
void referenceTrain(std::map<uint16_t, LogisticRegression> &Models,
                    const EdgeModelConfig &Config,
                    std::vector<TrainingSample> Samples) {
  Rng Rand(Config.Seed);
  double LR = Config.LearningRate;
  for (unsigned Epoch = 0; Epoch < Config.Epochs; ++Epoch) {
    Rand.shuffle(Samples);
    for (const TrainingSample &S : Samples) {
      auto It = Models.find(S.Features.PosKey);
      if (It == Models.end())
        It = Models.emplace(S.Features.PosKey,
                            LogisticRegression(Config.DimBits))
                 .first;
      It->second.update(S.Features.Hashes, S.Label, LR, Config.L2);
    }
    LR *= 0.7;
  }
}

/// Serial accuracy over \p Models, as the reference computed it.
double referenceAccuracy(const std::map<uint16_t, LogisticRegression> &Models,
                         const std::vector<TrainingSample> &Samples) {
  if (Samples.empty())
    return 0;
  size_t Correct = 0;
  for (const TrainingSample &S : Samples) {
    auto It = Models.find(S.Features.PosKey);
    double P = It == Models.end() ? 0.5 : It->second.predict(S.Features.Hashes);
    Correct += (P >= 0.5) == (S.Label >= 0.5);
  }
  return static_cast<double>(Correct) / static_cast<double>(Samples.size());
}

/// Bit-for-bit equality of two model banks: same keys, same bias and weight
/// bits.
::testing::AssertionResult
sameBits(const std::map<uint16_t, LogisticRegression> &A,
         const std::map<uint16_t, LogisticRegression> &B) {
  if (A.size() != B.size())
    return ::testing::AssertionFailure()
           << A.size() << " vs " << B.size() << " models";
  for (auto IA = A.begin(), IB = B.begin(); IA != A.end(); ++IA, ++IB) {
    const LogisticRegression &MA = IA->second, &MB = IB->second;
    float BiasA = MA.bias(), BiasB = MB.bias();
    if (IA->first != IB->first ||
        std::memcmp(&BiasA, &BiasB, sizeof(float)) != 0 ||
        MA.weights().size() != MB.weights().size() ||
        std::memcmp(MA.weights().data(), MB.weights().data(),
                    MA.weights().size() * sizeof(float)) != 0)
      return ::testing::AssertionFailure() << "model " << IA->first
                                           << " differs";
  }
  return ::testing::AssertionSuccess();
}

/// Training samples of a small generated corpus, collected as learn() does.
std::vector<TrainingSample> corpusSamples(size_t NumPrograms) {
  StringInterner S;
  GeneratorConfig GenCfg;
  GenCfg.NumPrograms = NumPrograms;
  GenCfg.Seed = 0xBEE;
  GeneratedCorpus Corpus = generateCorpus(javaProfile(), GenCfg, S);
  std::vector<TrainingSample> Samples;
  for (size_t I = 0; I < Corpus.Programs.size(); ++I) {
    AnalysisResult R = analyzeProgram(Corpus.Programs[I], S, AnalysisOptions());
    EventGraph G = EventGraph::build(R);
    Rng Rand(hashValues(uint64_t(7), I));
    collectTrainingSamples(G, Rand, Samples);
  }
  return Samples;
}

TEST(ParallelPipeline, EdgeModelTrainingIsThreadCountInvariant) {
  EdgeModelConfig Config;
  Config.DimBits = 12;
  std::vector<TrainingSample> Samples = corpusSamples(40);
  ASSERT_GT(Samples.size(), 200u);
  // A position pair with exactly one sample, in the second half.
  TrainingSample Lone;
  Lone.Features.PosKey = 0x7fff;
  Lone.Features.Hashes = {3, 1, 4, 1, 5};
  Lone.Label = 1;
  const size_t Half = Samples.size() / 2;
  Samples.insert(Samples.begin() + Half, Lone);
  const unsigned ThreadCounts[] = {1, 2, 4, 8};

  // Cold start.
  std::map<uint16_t, LogisticRegression> Cold;
  referenceTrain(Cold, Config, Samples);
  ASSERT_EQ(Cold.count(0x7fff), 1u);
  const double ColdAccuracy = referenceAccuracy(Cold, Samples);
  TrainingSet Set(Samples);
  for (unsigned Threads : ThreadCounts) {
    EdgeModel Model(Config);
    Model.train(Set, Threads);
    EXPECT_TRUE(sameBits(Model.models(), Cold)) << Threads << " threads";
    EXPECT_EQ(Model.accuracy(Set, Threads), ColdAccuracy)
        << Threads << " threads";
  }

  // Warm start, as learnIncrement runs it: models trained on the first half
  // continue on the second half, which brings a key the first never saw.
  std::vector<TrainingSample> First(Samples.begin(), Samples.begin() + Half);
  std::vector<TrainingSample> Second(Samples.begin() + Half, Samples.end());
  std::map<uint16_t, LogisticRegression> Base;
  referenceTrain(Base, Config, First);
  ASSERT_EQ(Base.count(0x7fff), 0u);
  std::map<uint16_t, LogisticRegression> Warm = Base;
  referenceTrain(Warm, Config, Second);
  const double WarmAccuracy = referenceAccuracy(Warm, Second);
  TrainingSet SecondSet(Second);
  for (unsigned Threads : ThreadCounts) {
    EdgeModel Model = EdgeModel::restore(Config, Base);
    Model.train(SecondSet, Threads);
    EXPECT_TRUE(sameBits(Model.models(), Warm)) << Threads << " threads";
    EXPECT_EQ(Model.accuracy(SecondSet, Threads), WarmAccuracy)
        << Threads << " threads";
  }

  // An empty set leaves the models untouched.
  for (unsigned Threads : ThreadCounts) {
    EdgeModel Model = EdgeModel::restore(Config, Base);
    Model.train(TrainingSet(), Threads);
    EXPECT_TRUE(sameBits(Model.models(), Base)) << Threads << " threads";
    EXPECT_EQ(Model.accuracy(TrainingSet(), Threads), 0.0);
  }
}

TEST(ParallelPipeline, PipelineStatsArePopulated) {
  FullRun Run = runPipelineWith(2);
  const PipelineStats &St = Run.Stats;
  EXPECT_EQ(St.Programs, 120u);
  EXPECT_GT(St.Graphs, 0u);
  EXPECT_GT(St.ReceiverPairs, 0u);
  EXPECT_GT(St.Matches, 0u);
  EXPECT_GT(St.TrainingSamples, 0u);
  EXPECT_GT(St.Candidates, 0u);
  EXPECT_GE(St.PeakCandidates, St.Candidates);
  EXPECT_GT(St.TotalSeconds, 0.0);
  EXPECT_GE(St.TotalSeconds, St.AnalyzeSeconds);

  std::string Json = St.json();
  EXPECT_NE(Json.find("\"phase_seconds\""), std::string::npos);
  EXPECT_NE(Json.find("\"receiver_pairs\""), std::string::npos);
  EXPECT_NE(Json.find("\"peak_candidates\""), std::string::npos);
  EXPECT_EQ(Json.front(), '{');
  EXPECT_EQ(Json.back(), '}');
}

} // namespace
