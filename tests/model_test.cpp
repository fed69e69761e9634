//===- model_test.cpp - Tests for the probabilistic model (§4) ----------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Lowering.h"
#include "model/EdgeModel.h"

#include <gtest/gtest.h>

using namespace uspec;

namespace {

/// Fixture that parses, analyzes (API-unaware) and builds the event graph.
struct ModelFixture {
  StringInterner Strings;
  IRProgram Program;
  AnalysisResult Result;

  EventGraph graph(std::string_view Source) {
    DiagnosticSink Diags;
    auto P = parseAndLower(Source, "test", Strings, Diags);
    EXPECT_TRUE(P.has_value()) << Diags.render();
    Program = std::move(*P);
    Result = analyzeProgram(Program, Strings, AnalysisOptions());
    return EventGraph::build(Result);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Position buckets
//===----------------------------------------------------------------------===//

TEST(Features, BucketPos) {
  EXPECT_EQ(bucketPos(PosRet), PosBucket::Ret);
  EXPECT_EQ(bucketPos(PosReceiver), PosBucket::Receiver);
  EXPECT_EQ(bucketPos(1), PosBucket::Arg1);
  EXPECT_EQ(bucketPos(2), PosBucket::Arg2);
  EXPECT_EQ(bucketPos(3), PosBucket::Arg3);
  EXPECT_EQ(bucketPos(4), PosBucket::ArgMany);
  EXPECT_EQ(bucketPos(9), PosBucket::ArgMany);
}

TEST(Features, PosKeyIsInjective) {
  std::set<uint16_t> Keys;
  for (unsigned A = 0; A < NumPosBuckets; ++A)
    for (unsigned B = 0; B < NumPosBuckets; ++B)
      Keys.insert(posKey(static_cast<PosBucket>(A), static_cast<PosBucket>(B)));
  EXPECT_EQ(Keys.size(), NumPosBuckets * NumPosBuckets);
}

//===----------------------------------------------------------------------===//
// Feature extraction
//===----------------------------------------------------------------------===//

TEST(Features, DeterministicExtraction) {
  ModelFixture F;
  EventGraph G = F.graph(R"(
    class Main { def main() { db.getFile("x").getName(); } }
  )");
  ASSERT_GE(G.numEvents(), 2u);
  EdgeFeatures A = extractFeatures(G, 0, 1, false);
  EdgeFeatures B = extractFeatures(G, 0, 1, false);
  EXPECT_EQ(A.PosKey, B.PosKey);
  EXPECT_EQ(A.Hashes, B.Hashes);
}

TEST(Features, PruningRemovesTheLink) {
  ModelFixture F;
  EventGraph G = F.graph(R"(
    class Main { def main() { db.getFile("x").getName(); } }
  )");
  // Locate the (getFile.ret, getName.0) edge.
  EventId From = InvalidEvent, To = InvalidEvent;
  for (EventId E = 0; E < G.numEvents(); ++E) {
    const Event &Ev = G.event(E);
    if (Ev.Kind != EventKind::ApiCall)
      continue;
    if (F.Strings.str(Ev.Method.Name) == "getFile" && Ev.Pos == PosRet)
      From = E;
    if (F.Strings.str(Ev.Method.Name) == "getName" && Ev.Pos == PosReceiver)
      To = E;
  }
  ASSERT_NE(From, InvalidEvent);
  ASSERT_NE(To, InvalidEvent);
  ASSERT_TRUE(G.hasEdge(From, To));

  EdgeFeatures Full = extractFeatures(G, From, To, /*PruneLink=*/false);
  EdgeFeatures Pruned = extractFeatures(G, From, To, /*PruneLink=*/true);
  EXPECT_LT(Pruned.Hashes.size(), Full.Hashes.size())
      << "pruning must drop the direct-link path features";
}

TEST(Features, DifferentMethodsYieldDifferentFeatures) {
  ModelFixture F;
  EventGraph G = F.graph(R"(
    class Main {
      def main() {
        db.getFile("x").getName();
        db.getConn("y").getName();
      }
    }
  )");
  std::vector<EventId> Rets;
  for (EventId E = 0; E < G.numEvents(); ++E) {
    const Event &Ev = G.event(E);
    if (Ev.Kind == EventKind::ApiCall && Ev.Pos == PosRet &&
        (F.Strings.str(Ev.Method.Name) == "getFile" ||
         F.Strings.str(Ev.Method.Name) == "getConn"))
      Rets.push_back(E);
  }
  ASSERT_EQ(Rets.size(), 2u);
  EdgeFeatures A = extractFeatures(G, Rets[0], Rets[0], false);
  EdgeFeatures B = extractFeatures(G, Rets[1], Rets[1], false);
  EXPECT_NE(A.Hashes, B.Hashes);
}

//===----------------------------------------------------------------------===//
// Logistic regression
//===----------------------------------------------------------------------===//

TEST(LogisticRegression, SigmoidBasics) {
  EXPECT_DOUBLE_EQ(LogisticRegression::sigmoid(0), 0.5);
  EXPECT_GT(LogisticRegression::sigmoid(4), 0.95);
  EXPECT_LT(LogisticRegression::sigmoid(-4), 0.05);
}

TEST(LogisticRegression, LearnsSeparableData) {
  LogisticRegression LR(10);
  // Feature 1 => positive, feature 2 => negative.
  std::vector<uint32_t> Pos = {1};
  std::vector<uint32_t> Neg = {2};
  for (int I = 0; I < 200; ++I) {
    LR.update(Pos, 1.0, 0.3, 0);
    LR.update(Neg, 0.0, 0.3, 0);
  }
  EXPECT_GT(LR.predict(Pos), 0.9);
  EXPECT_LT(LR.predict(Neg), 0.1);
}

TEST(LogisticRegression, SharedFeatureSplitsTheDifference) {
  LogisticRegression LR(10);
  std::vector<uint32_t> Shared = {7};
  for (int I = 0; I < 200; ++I) {
    LR.update(Shared, 1.0, 0.2, 0);
    LR.update(Shared, 0.0, 0.2, 0);
  }
  EXPECT_NEAR(LR.predict(Shared), 0.5, 0.1);
}

//===----------------------------------------------------------------------===//
// Training data collection
//===----------------------------------------------------------------------===//

TEST(TrainingData, BalancedLabels) {
  ModelFixture F;
  EventGraph G = F.graph(R"(
    class Main {
      def main() {
        var map = new Map();
        map.put("a", 1);
        map.put("b", 2);
        map.size();
        var x = db.getFile("f");
        x.getName();
        x.close();
      }
    }
  )");
  Rng Rand(42);
  std::vector<TrainingSample> Samples;
  collectTrainingSamples(G, Rand, Samples);
  size_t Pos = 0, Neg = 0;
  for (const TrainingSample &S : Samples)
    (S.Label > 0.5 ? Pos : Neg)++;
  EXPECT_GT(Pos, 0u);
  EXPECT_GT(Neg, 0u);
  // Negatives are subsampled to roughly match positives.
  EXPECT_LE(Neg, Pos);
  EXPECT_GE(Neg, Pos / 2);
}

TEST(TrainingData, PositivesMatchEdgeCount) {
  ModelFixture F;
  EventGraph G = F.graph(R"(
    class Main { def main() { db.getFile("x").getName(); } }
  )");
  size_t Edges = 0;
  for (EventId E = 0; E < G.numEvents(); ++E)
    Edges += G.children(E).size();
  Rng Rand(1);
  std::vector<TrainingSample> Samples;
  collectTrainingSamples(G, Rand, Samples);
  size_t Pos = 0;
  for (const TrainingSample &S : Samples)
    Pos += S.Label > 0.5;
  EXPECT_EQ(Pos, Edges);
}

//===----------------------------------------------------------------------===//
// End-to-end model behaviour: the §4.3 insight
//===----------------------------------------------------------------------===//

TEST(EdgeModel, AssignsHighProbabilityToFamiliarMissingEdges) {
  // Train on many direct db.getFile(..).getName() flows, then query the
  // *absent* edge getFile.ret -> getName.0 in a program where the flow runs
  // through an (unknown) Map. The model should consider it likely — that is
  // the key insight enabling specification learning.
  StringInterner Strings;
  std::vector<std::unique_ptr<AnalysisResult>> Keep;
  std::vector<EventGraph> Graphs;

  auto AddProgram = [&](const std::string &Source) -> EventGraph & {
    DiagnosticSink Diags;
    auto P = parseAndLower(Source, "p" + std::to_string(Graphs.size()),
                           Strings, Diags);
    EXPECT_TRUE(P.has_value()) << Diags.render();
    Keep.push_back(std::make_unique<AnalysisResult>(
        analyzeProgram(*P, Strings, AnalysisOptions())));
    Graphs.push_back(EventGraph::build(*Keep.back()));
    return Graphs.back();
  };

  // Training corpus: direct flows plus unrelated noise calls.
  for (int I = 0; I < 20; ++I) {
    AddProgram(R"(
      class Main {
        def main() {
          var f = db.getFile("cfg");
          var n = f.getName();
          rocket.launch();
          log.info(n);
        }
      }
    )");
  }

  Rng Rand(7);
  std::vector<TrainingSample> Samples;
  for (const EventGraph &G : Graphs)
    collectTrainingSamples(G, Rand, Samples);
  EdgeModel Model;
  Model.train(Samples);
  EXPECT_GT(Model.accuracy(Samples), 0.85);

  // Query program: the flow is hidden behind map.put/map.get.
  EventGraph &Query = AddProgram(R"(
    class Main {
      def main() {
        var map = new Map();
        map.put("k", db.getFile("cfg"));
        var f = map.get("k");
        var n = f.getName();
      }
    }
  )");

  EventId GetFileRet = InvalidEvent, GetNameRecv = InvalidEvent,
          LaunchRecv = InvalidEvent;
  for (EventId E = 0; E < Query.numEvents(); ++E) {
    const Event &Ev = Query.event(E);
    if (Ev.Kind != EventKind::ApiCall)
      continue;
    if (Strings.str(Ev.Method.Name) == "getFile" && Ev.Pos == PosRet)
      GetFileRet = E;
    if (Strings.str(Ev.Method.Name) == "getName" && Ev.Pos == PosReceiver)
      GetNameRecv = E;
  }
  ASSERT_NE(GetFileRet, InvalidEvent);
  ASSERT_NE(GetNameRecv, InvalidEvent);
  ASSERT_FALSE(Query.hasEdge(GetFileRet, GetNameRecv))
      << "the edge must be absent in the API-unaware graph";

  double PFamiliar = Model.edgeProbability(Query, GetFileRet, GetNameRecv);
  EXPECT_GT(PFamiliar, 0.6) << "familiar interaction should look like an edge";

  // Contrast: getFile.ret -> launch.0 was seen as a NON-edge in training.
  EventGraph &Contrast = AddProgram(R"(
    class Main {
      def main() {
        var map = new Map();
        map.put("k", db.getFile("cfg"));
        var f = map.get("k");
        f.launch();
      }
    }
  )");
  EventId CGetFileRet = InvalidEvent;
  for (EventId E = 0; E < Contrast.numEvents(); ++E) {
    const Event &Ev = Contrast.event(E);
    if (Ev.Kind != EventKind::ApiCall)
      continue;
    if (Strings.str(Ev.Method.Name) == "getFile" && Ev.Pos == PosRet)
      CGetFileRet = E;
    if (Strings.str(Ev.Method.Name) == "launch" && Ev.Pos == PosReceiver)
      LaunchRecv = E;
  }
  ASSERT_NE(CGetFileRet, InvalidEvent);
  ASSERT_NE(LaunchRecv, InvalidEvent);
  double PUnfamiliar = Model.edgeProbability(Contrast, CGetFileRet, LaunchRecv);
  EXPECT_LT(PUnfamiliar, PFamiliar)
      << "an interaction pattern never observed must score lower";
}

TEST(EdgeModel, UnseenPosKeyFallsBackToHalf) {
  EdgeModel Model;
  EdgeFeatures F;
  F.PosKey = 35;
  F.Hashes = {1, 2, 3};
  EXPECT_DOUBLE_EQ(Model.predict(F), 0.5);
}

//===----------------------------------------------------------------------===//
// The flat training set and the vector adapters
//===----------------------------------------------------------------------===//

namespace {

TrainingSample sample(uint16_t Key, std::vector<uint32_t> Hashes, float Label) {
  TrainingSample S;
  S.Features.PosKey = Key;
  S.Features.Hashes = std::move(Hashes);
  S.Label = Label;
  return S;
}

void expectSameSamples(const TrainingSet &Set,
                       const std::vector<TrainingSample> &Samples) {
  ASSERT_EQ(Set.size(), Samples.size());
  for (size_t I = 0; I < Samples.size(); ++I) {
    EXPECT_EQ(Set.key(I), Samples[I].Features.PosKey) << I;
    EXPECT_EQ(Set.label(I), Samples[I].Label) << I;
    std::span<const uint32_t> H = Set.hashes(I);
    EXPECT_EQ(std::vector<uint32_t>(H.begin(), H.end()),
              Samples[I].Features.Hashes)
        << I;
  }
}

/// Samples of the EdgeModel fixture corpus above: one program, several
/// seeds.
std::vector<TrainingSample> fixtureSamples() {
  ModelFixture F;
  EventGraph G = F.graph(R"(
    class Main {
      def main() {
        var map = new Map();
        map.put("a", db.getFile("f"));
        var x = map.get("a");
        x.getName();
        x.close();
        rocket.launch();
      }
    }
  )");
  std::vector<TrainingSample> Samples;
  for (uint64_t Seed = 0; Seed < 30; ++Seed) {
    Rng Rand(Seed);
    collectTrainingSamples(G, Rand, Samples);
  }
  return Samples;
}

} // namespace

TEST(TrainingData, SetPreservesOrderKeysLabelsAndHashes) {
  std::vector<TrainingSample> Samples = {
      sample(7, {1, 2, 3}, 1), sample(0, {}, 0),
      sample(35, {0xffffffffu}, 1), sample(7, {9, 9}, 0)};
  expectSameSamples(TrainingSet(Samples), Samples);
  EXPECT_EQ(TrainingSet(std::vector<TrainingSample>()).size(), 0u);
  expectSameSamples(TrainingSet(fixtureSamples()), fixtureSamples());
}

TEST(TrainingData, FlattenConcatenatesAndFreesParts) {
  std::vector<TrainingSample> All = fixtureSamples();
  ASSERT_GT(All.size(), 10u);
  // Uneven parts, some empty, in corpus order.
  std::vector<std::vector<TrainingSample>> Parts(5);
  Parts[1].assign(All.begin(), All.begin() + 3);
  Parts[3].assign(All.begin() + 3, All.end() - 1);
  Parts[4].assign(All.end() - 1, All.end());
  for (unsigned Threads : {1u, 4u}) {
    std::vector<std::vector<TrainingSample>> Copy = Parts;
    TrainingSet Set = TrainingSet::flatten(Copy, Threads);
    expectSameSamples(Set, All);
    for (const std::vector<TrainingSample> &Part : Copy)
      EXPECT_EQ(Part.capacity(), 0u) << "each part is freed once copied";
  }
}

TEST(EdgeModel, VectorAdapterMatchesFlatPath) {
  std::vector<TrainingSample> Samples = fixtureSamples();
  EdgeModel ViaVector, ViaSet;
  ViaVector.train(Samples);
  TrainingSet Set(Samples);
  ViaSet.train(Set, /*Threads=*/4);
  ASSERT_EQ(ViaVector.numModels(), ViaSet.numModels());
  for (const auto &[Key, Model] : ViaVector.models()) {
    const LogisticRegression &Other = ViaSet.models().at(Key);
    EXPECT_EQ(Model.bias(), Other.bias()) << Key;
    EXPECT_EQ(Model.weights(), Other.weights()) << Key;
  }
  EXPECT_EQ(ViaVector.accuracy(Samples), ViaSet.accuracy(Set, 4));
  EXPECT_GT(ViaVector.accuracy(Samples), 0.5);
}
