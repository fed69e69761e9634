//===- EdgeModel.cpp - The probabilistic event graph model ϕ (§4) ------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "model/EdgeModel.h"

#include "support/ParallelFor.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

using namespace uspec;

void EdgeModel::train(const TrainingSet &Set, unsigned Threads) {
  const size_t N = Set.size();
  if (N == 0 || Config.Epochs == 0)
    return;
  if (N > UINT32_MAX)
    throw std::length_error("training set exceeds 2^32 samples");

  // One slot per position-pair key in the set, holding its model and its
  // sample count. try_emplace keeps warm-started models as they are.
  std::vector<int32_t> SlotOf(size_t(1) << 16, -1);
  std::vector<LogisticRegression *> SlotModel;
  std::vector<size_t> SlotCount;
  for (size_t I = 0; I < N; ++I) {
    int32_t &Slot = SlotOf[Set.key(I)];
    if (Slot < 0) {
      Slot = static_cast<int32_t>(SlotModel.size());
      SlotModel.push_back(
          &Models.try_emplace(Set.key(I), Config.DimBits).first->second);
      SlotCount.push_back(0);
    }
    ++SlotCount[Slot];
  }
  const size_t NumSlots = SlotModel.size();
  const unsigned Epochs = Config.Epochs;

  // Runs[SlotStart[S] + E * SlotCount[S] + K]: the K-th sample of slot S in
  // epoch E. Epoch E's order is the permutation the serial loop would visit
  // (the same Fisher-Yates draws, applied to indices instead of samples);
  // a stable counting sort splits it into per-slot runs.
  std::vector<size_t> SlotStart(NumSlots, 0);
  for (size_t S = 1; S < NumSlots; ++S)
    SlotStart[S] = SlotStart[S - 1] + Epochs * SlotCount[S - 1];
  std::vector<uint32_t> Runs(Epochs * N);
  std::vector<uint32_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0u);
  std::vector<size_t> Fill(NumSlots);
  std::vector<double> LR(Epochs);
  Rng Rand(Config.Seed);
  for (unsigned E = 0; E < Epochs; ++E) {
    LR[E] = E == 0 ? Config.LearningRate : LR[E - 1] * 0.7; // decay schedule
    Rand.shuffle(Order);
    for (size_t S = 0; S < NumSlots; ++S)
      Fill[S] = SlotStart[S] + E * SlotCount[S];
    for (uint32_t I : Order)
      Runs[Fill[SlotOf[Set.key(I)]]++] = I;
  }

  // Models share no state, so each trains on its runs independently,
  // largest first to shorten the tail.
  std::vector<size_t> BySize(NumSlots);
  std::iota(BySize.begin(), BySize.end(), size_t(0));
  std::stable_sort(BySize.begin(), BySize.end(), [&](size_t A, size_t B) {
    return SlotCount[A] > SlotCount[B];
  });
  parallelFor(NumSlots, Threads, [&](size_t J) {
    size_t S = BySize[J];
    LogisticRegression &Model = *SlotModel[S];
    const uint32_t *Run = Runs.data() + SlotStart[S];
    const uint32_t *End = Run + Epochs * SlotCount[S];
    for (unsigned E = 0; E < Epochs; ++E)
      for (size_t K = 0; K < SlotCount[S]; ++K, ++Run) {
        // A run visits the set in random order; fetching a few samples
        // ahead keeps the updates from waiting on memory (about 3x faster).
        if (End - Run > 16)
          Set.prefetchRow(Run[16]);
        if (End - Run > 8)
          Set.prefetchHashes(Run[8]);
        Model.update(Set.hashes(*Run), Set.label(*Run), LR[E], Config.L2);
      }
  });
}

double EdgeModel::predict(uint16_t PosKey,
                          std::span<const uint32_t> Hashes) const {
  auto It = Models.find(PosKey);
  if (It == Models.end())
    return 0.5;
  return It->second.predict(Hashes);
}

double EdgeModel::edgeProbability(const EventGraph &G, EventId E1,
                                  EventId E2) const {
  return predict(extractFeatures(G, E1, E2, /*PruneLink=*/false));
}

double EdgeModel::accuracy(const TrainingSet &Set, unsigned Threads) const {
  const size_t N = Set.size();
  if (N == 0)
    return 0;
  // Integer counts per shard, summed: exact at any shard count.
  unsigned Shards = effectiveThreads(N, Threads);
  std::vector<size_t> Correct(Shards, 0);
  parallelFor(Shards, Threads, [&](size_t Shard) {
    auto [Lo, Hi] = shardRange(N, static_cast<unsigned>(Shard), Shards);
    size_t C = 0;
    for (size_t I = Lo; I < Hi; ++I)
      C += (predict(Set.key(I), Set.hashes(I)) >= 0.5) == (Set.label(I) >= 0.5);
    Correct[Shard] = C;
  });
  size_t Total = std::accumulate(Correct.begin(), Correct.end(), size_t(0));
  return static_cast<double>(Total) / static_cast<double>(N);
}

void uspec::collectTrainingSamples(const EventGraph &G, Rng &Rand,
                                   std::vector<TrainingSample> &Out) {
  size_t N = G.numEvents();
  if (N < 2)
    return;

  // Positives: all edges, with contexts pruned so the pair link itself does
  // not leak into the features (§4.2).
  size_t NumPositives = 0;
  for (EventId E1 = 0; E1 < N; ++E1) {
    for (EventId E2 : G.children(E1)) {
      TrainingSample S;
      S.Features = extractFeatures(G, E1, E2, /*PruneLink=*/true);
      S.Label = 1;
      Out.push_back(std::move(S));
      ++NumPositives;
    }
  }

  // Negatives: event pairs in the same calling context (same Ctx value, i.e.
  // the same inlining chain) that are not connected in either direction.
  size_t Want = NumPositives;
  size_t Attempts = 0, MaxAttempts = Want * 20 + 64;
  size_t Produced = 0;
  while (Produced < Want && Attempts < MaxAttempts) {
    ++Attempts;
    EventId E1 = static_cast<EventId>(Rand.below(N));
    EventId E2 = static_cast<EventId>(Rand.below(N));
    if (E1 == E2)
      continue;
    if (G.event(E1).Ctx != G.event(E2).Ctx)
      continue;
    if (G.hasEdge(E1, E2) || G.hasEdge(E2, E1))
      continue;
    TrainingSample S;
    S.Features = extractFeatures(G, E1, E2, /*PruneLink=*/false);
    S.Label = 0;
    Out.push_back(std::move(S));
    ++Produced;
  }
}
