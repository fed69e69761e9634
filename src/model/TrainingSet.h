//===- TrainingSet.h - Flat training set of the edge model ϕ ----*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The training samples of §4.2 in one flat, compressed-sparse-row layout
/// (DESIGN.md §13): every sample's feature hashes sit back to back in one
/// uint32 pool, sample I owning Pool[Offsets[I], Offsets[I+1]), with its
/// position-pair key and label in parallel arrays. Training reads samples
/// by index, so shuffling and partitioning move uint32 indices instead of
/// samples that each own a heap vector.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_MODEL_TRAININGSET_H
#define USPEC_MODEL_TRAININGSET_H

#include "model/Features.h"

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace uspec {

/// One labeled training sample, as collectTrainingSamples produces it.
struct TrainingSample {
  EdgeFeatures Features;
  float Label = 0; ///< 1 = edge exists, 0 = non-edge.
};

/// Read-only CSR training set.
class TrainingSet {
public:
  TrainingSet() = default;

  /// Copies \p Samples, in order.
  explicit TrainingSet(const std::vector<TrainingSample> &Samples);

  /// Concatenates \p Parts in order, filling each part's slots (found by
  /// prefix sums over the per-part counts) on up to \p Threads workers
  /// (0 = hardware concurrency). Each part is freed as soon as it has been
  /// copied, so the samples are never resident twice over.
  static TrainingSet flatten(std::vector<std::vector<TrainingSample>> &Parts,
                             unsigned Threads);

  size_t size() const { return Keys.size(); }

  uint16_t key(size_t I) const { return Keys[I]; }
  float label(size_t I) const { return Labels[I]; }
  std::span<const uint32_t> hashes(size_t I) const {
    return {Pool.get() + Offsets[I], Offsets[I + 1] - Offsets[I]};
  }

  /// Cache hints for a reader about to visit sample \p I out of order:
  /// prefetchRow(I) first, prefetchHashes(I) a few samples later (it reads
  /// the offsets prefetchRow fetched).
  void prefetchRow(size_t I) const {
    __builtin_prefetch(&Offsets[I]);
    __builtin_prefetch(&Labels[I]);
  }
  void prefetchHashes(size_t I) const {
    const uint32_t *Row = Pool.get() + Offsets[I];
    __builtin_prefetch(Row);
    __builtin_prefetch(Row + 16); // the row may cross a cache line
  }

private:
  /// Sizes the arrays for \p NumSamples samples holding \p NumHashes hashes.
  void allocate(size_t NumSamples, size_t NumHashes);
  /// Copies \p Samples into slots [At, ...), hashes from pool index
  /// \p HashAt on.
  void fill(size_t At, size_t HashAt,
            const std::vector<TrainingSample> &Samples);

  std::unique_ptr<uint32_t[]> Pool;
  std::vector<size_t> Offsets = {0};
  std::vector<uint16_t> Keys;
  std::vector<float> Labels;
};

} // namespace uspec

#endif // USPEC_MODEL_TRAININGSET_H
