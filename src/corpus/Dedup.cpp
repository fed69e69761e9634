//===- Dedup.cpp - Corpus deduplication (§7.1) ---------------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "corpus/Dedup.h"

#include <unordered_set>

using namespace uspec;

std::vector<size_t>
uspec::duplicateIndices(const std::vector<uint64_t> &Fingerprints) {
  std::vector<size_t> Duplicates;
  std::unordered_set<uint64_t> Seen;
  Seen.reserve(Fingerprints.size());
  for (size_t I = 0; I < Fingerprints.size(); ++I)
    if (!Seen.insert(Fingerprints[I]).second)
      Duplicates.push_back(I);
  return Duplicates;
}

std::vector<size_t>
uspec::duplicateIndices(const std::vector<IRProgram> &Corpus) {
  std::vector<uint64_t> Fingerprints;
  Fingerprints.reserve(Corpus.size());
  for (const IRProgram &P : Corpus)
    Fingerprints.push_back(programFingerprint(P));
  return duplicateIndices(Fingerprints);
}

size_t uspec::dedupeCorpus(std::vector<IRProgram> &Corpus) {
  std::vector<size_t> Duplicates = duplicateIndices(Corpus);
  eraseIndices(Corpus, Duplicates);
  return Duplicates.size();
}
