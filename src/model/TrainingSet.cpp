//===- TrainingSet.cpp - Flat training set of the edge model ϕ ------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "model/TrainingSet.h"

#include "support/ParallelFor.h"

#include <algorithm>

using namespace uspec;

TrainingSet::TrainingSet(const std::vector<TrainingSample> &Samples) {
  size_t NumHashes = 0;
  for (const TrainingSample &S : Samples)
    NumHashes += S.Features.Hashes.size();
  allocate(Samples.size(), NumHashes);
  fill(0, 0, Samples);
}

TrainingSet
TrainingSet::flatten(std::vector<std::vector<TrainingSample>> &Parts,
                     unsigned Threads) {
  const size_t P = Parts.size();
  // SampleAt[I] / HashAt[I]: where part I starts; entry P holds the totals.
  std::vector<size_t> SampleAt(P + 1, 0), HashAt(P + 1, 0);
  parallelFor(P, Threads, [&](size_t I) {
    size_t NumHashes = 0;
    for (const TrainingSample &S : Parts[I])
      NumHashes += S.Features.Hashes.size();
    SampleAt[I + 1] = Parts[I].size();
    HashAt[I + 1] = NumHashes;
  });
  for (size_t I = 0; I < P; ++I) {
    SampleAt[I + 1] += SampleAt[I];
    HashAt[I + 1] += HashAt[I];
  }
  TrainingSet Set;
  Set.allocate(SampleAt[P], HashAt[P]);
  parallelFor(P, Threads, [&](size_t I) {
    Set.fill(SampleAt[I], HashAt[I], Parts[I]);
    std::vector<TrainingSample>().swap(Parts[I]);
  });
  return Set;
}

void TrainingSet::allocate(size_t NumSamples, size_t NumHashes) {
  // Not zero-filled: fill() writes every hash, and an untouched page costs
  // no memory until then.
  Pool = std::make_unique_for_overwrite<uint32_t[]>(NumHashes);
  Offsets.assign(NumSamples + 1, 0);
  Offsets[NumSamples] = NumHashes;
  Keys.assign(NumSamples, 0);
  Labels.assign(NumSamples, 0);
}

void TrainingSet::fill(size_t At, size_t HashAt,
                       const std::vector<TrainingSample> &Samples) {
  for (const TrainingSample &S : Samples) {
    Offsets[At] = HashAt;
    Keys[At] = S.Features.PosKey;
    Labels[At] = S.Label;
    std::copy(S.Features.Hashes.begin(), S.Features.Hashes.end(),
              Pool.get() + HashAt);
    HashAt += S.Features.Hashes.size();
    ++At;
  }
}
