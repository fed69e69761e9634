//===- EdgeModel.h - The probabilistic event graph model ϕ (§4) -*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The probabilistic model ϕ of §4: one logistic regression ψ(x1,x2) per
/// argument-position pair, trained on existing event-graph edges (positives,
/// with leakage-avoiding context pruning) and subsampled non-edges
/// (negatives). ϕ(ftr(e1,e2)) estimates the probability that (e1,e2) ∈ E.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_MODEL_EDGEMODEL_H
#define USPEC_MODEL_EDGEMODEL_H

#include "model/Features.h"
#include "model/LogisticRegression.h"
#include "model/TrainingSet.h"
#include "support/Random.h"

#include <map>
#include <vector>

namespace uspec {

/// Training/prediction configuration.
struct EdgeModelConfig {
  unsigned DimBits = 17;  ///< Per-model weight table size (2^DimBits).
  unsigned Epochs = 4;    ///< SGD passes over the shuffled sample set.
  double LearningRate = 0.2;
  double L2 = 1e-6;
  uint64_t Seed = 0x5eed;
};

/// Model bank ϕ.
class EdgeModel {
public:
  explicit EdgeModel(EdgeModelConfig Config = EdgeModelConfig())
      : Config(Config) {}

  /// Trains the per-position-pair models on \p Set, continuing from any
  /// models already present, on up to \p Threads workers (0 = hardware
  /// concurrency). Each epoch visits the samples in one permutation drawn
  /// from Config.Seed; each model trains on its own samples in that order,
  /// in parallel with the others, so the weights are bit-identical at any
  /// thread count (DESIGN.md §8).
  void train(const TrainingSet &Set, unsigned Threads = 1);
  void train(const std::vector<TrainingSample> &Samples, unsigned Threads = 1) {
    train(TrainingSet(Samples), Threads);
  }

  /// ϕ(ftr) for a pre-extracted feature vector. Position pairs never seen
  /// during training fall back to probability 0.5.
  double predict(const EdgeFeatures &Features) const {
    return predict(Features.PosKey, Features.Hashes);
  }
  double predict(uint16_t PosKey, std::span<const uint32_t> Hashes) const;

  /// Convenience: extract (without pruning) and predict the probability of
  /// the potential edge (E1, E2) in \p G.
  double edgeProbability(const EventGraph &G, EventId E1, EventId E2) const;

  /// Fraction of \p Set classified correctly at threshold 0.5, counted on
  /// up to \p Threads workers.
  double accuracy(const TrainingSet &Set, unsigned Threads = 1) const;
  double accuracy(const std::vector<TrainingSample> &Samples) const {
    return accuracy(TrainingSet(Samples));
  }

  /// Number of per-position-pair models instantiated.
  size_t numModels() const { return Models.size(); }

  //===--------------------------------------------------------------------===//
  // Serialization hooks (artifact/ModelIO)
  //===--------------------------------------------------------------------===//

  const EdgeModelConfig &config() const { return Config; }

  /// The per-position-pair model bank, keyed by posKey(x1, x2).
  const std::map<uint16_t, LogisticRegression> &models() const {
    return Models;
  }

  /// Rebuilds a trained bank from its serialized state.
  static EdgeModel restore(EdgeModelConfig Config,
                           std::map<uint16_t, LogisticRegression> Models) {
    EdgeModel M(Config);
    M.Models = std::move(Models);
    return M;
  }

private:
  EdgeModelConfig Config;
  std::map<uint16_t, LogisticRegression> Models;
};

//===----------------------------------------------------------------------===//
// Training data collection (§4.2)
//===----------------------------------------------------------------------===//

/// Collects training samples from one event graph: every edge becomes a
/// positive sample (with pruned contexts); an equal number of non-edge
/// event pairs from the same calling context is subsampled as negatives.
void collectTrainingSamples(const EventGraph &G, Rng &Rand,
                            std::vector<TrainingSample> &Out);

} // namespace uspec

#endif // USPEC_MODEL_EDGEMODEL_H
