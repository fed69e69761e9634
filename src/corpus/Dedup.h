//===- Dedup.h - Corpus deduplication (§7.1) -------------------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §7.1: "We pruned our dataset to be free from project forks and file
/// duplicates." Duplicated files would otherwise multiply a single usage
/// pattern's weight in both model training and candidate match counts.
///
/// Programs are fingerprinted structurally over the lowered IR (instruction
/// kinds, interned method/field/class names, literal values, arities —
/// variable slots and site ids are positional and thus already normalized),
/// so textual noise like comments or whitespace does not defeat the dedup.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_CORPUS_DEDUP_H
#define USPEC_CORPUS_DEDUP_H

#include "ir/IR.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace uspec {

// programFingerprint(const IRProgram &) is declared in ir/IR.h.

/// Indices of entries of \p Fingerprints that repeat an earlier entry.
std::vector<size_t> duplicateIndices(const std::vector<uint64_t> &Fingerprints);

/// Indices of programs whose fingerprint duplicates an earlier program.
std::vector<size_t> duplicateIndices(const std::vector<IRProgram> &Corpus);

/// Removes the elements of \p V at \p Indices (ascending, as
/// duplicateIndices returns them) in one order-preserving pass.
template <typename T>
void eraseIndices(std::vector<T> &V, const std::vector<size_t> &Indices) {
  size_t Write = 0, Next = 0;
  for (size_t Read = 0; Read < V.size(); ++Read) {
    if (Next < Indices.size() && Indices[Next] == Read) {
      ++Next;
      continue;
    }
    if (Write != Read)
      V[Write] = std::move(V[Read]);
    ++Write;
  }
  V.erase(V.begin() + static_cast<std::ptrdiff_t>(Write), V.end());
}

/// Removes duplicates in place (keeping the first occurrence of each
/// fingerprint); returns the number removed.
size_t dedupeCorpus(std::vector<IRProgram> &Corpus);

} // namespace uspec

#endif // USPEC_CORPUS_DEDUP_H
