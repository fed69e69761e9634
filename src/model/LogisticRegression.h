//===- LogisticRegression.h - Sparse hashed logistic regression -*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Logistic regression over sparse binary hashed features, trained with SGD.
/// This is our stand-in for the paper's Vowpal Wabbit models (§7.1): the
/// same model class, the same hashed sparse encoding.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_MODEL_LOGISTICREGRESSION_H
#define USPEC_MODEL_LOGISTICREGRESSION_H

#include "support/Random.h"

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace uspec {

/// A single binary logistic regression in a hashed feature space.
class LogisticRegression {
public:
  /// \p DimBits selects the weight-table size (2^DimBits weights).
  explicit LogisticRegression(unsigned DimBits = 17)
      : Mask((1u << DimBits) - 1), Weights(1u << DimBits, 0.0f) {}

  /// σ(w·x + b) for binary features given by raw 32-bit hashes.
  double predict(std::span<const uint32_t> Features) const {
    return sigmoid(margin(Features));
  }

  /// One SGD step toward \p Label ∈ {0, 1}; returns the pre-update
  /// prediction.
  double update(std::span<const uint32_t> Features, double Label,
                double LearningRate, double L2) {
    double P = predict(Features);
    double Gradient = P - Label;
    float Step = static_cast<float>(LearningRate * Gradient);
    Bias -= Step;
    for (uint32_t F : Features) {
      float &W = Weights[F & Mask];
      W -= Step + static_cast<float>(LearningRate * L2) * W;
    }
    return P;
  }

  /// Raw decision value w·x + b.
  double margin(std::span<const uint32_t> Features) const {
    double Z = Bias;
    for (uint32_t F : Features)
      Z += Weights[F & Mask];
    return Z;
  }

  static double sigmoid(double Z) {
    if (Z >= 0)
      return 1.0 / (1.0 + std::exp(-Z));
    double E = std::exp(Z);
    return E / (1.0 + E);
  }

  //===--------------------------------------------------------------------===//
  // Serialization hooks (artifact/ModelIO). Weight tables are always a
  // power of two; restore() rebuilds the mask from the table size.
  //===--------------------------------------------------------------------===//

  float bias() const { return Bias; }
  const std::vector<float> &weights() const { return Weights; }

  /// Rebuilds a trained model from its serialized state. \p Weights must
  /// have power-of-two size.
  static LogisticRegression restore(float Bias, std::vector<float> Weights) {
    assert(!Weights.empty() && (Weights.size() & (Weights.size() - 1)) == 0 &&
           "weight table size must be a power of two");
    LogisticRegression M(0);
    M.Bias = Bias;
    M.Mask = static_cast<uint32_t>(Weights.size() - 1);
    M.Weights = std::move(Weights);
    return M;
  }

private:
  uint32_t Mask;
  float Bias = 0;
  std::vector<float> Weights;
};

} // namespace uspec

#endif // USPEC_MODEL_LOGISTICREGRESSION_H
