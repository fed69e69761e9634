//===- ArtifactIO.h - Typed section codecs for USPB artifacts --*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Typed codecs on top of the USPB container (artifact/Container.h):
///
///   - a serialized string table mapping interner Symbols to artifact-local
///     ids, so specs/candidates are stored position-independently and can
///     be loaded into any StringInterner;
///   - ModelIO: the EdgeModel config plus every per-position-pair logistic
///     regression, with sparse (gap-coded) weight tables;
///   - CandidateIO: the full ScoredCandidate table;
///   - a binary twin of the SpecIO text format for SpecSets;
///   - CorpusManifest: per-program structural fingerprints for cache
///     invalidation.
///
/// All decoders are total on arbitrary bytes: they either produce a value
/// or fail with an ArtifactError naming the section and byte offset.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_ARTIFACT_ARTIFACTIO_H
#define USPEC_ARTIFACT_ARTIFACTIO_H

#include "artifact/Binary.h"
#include "core/Learner.h"
#include "model/EdgeModel.h"
#include "specs/Spec.h"
#include "support/StringInterner.h"

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace uspec {

//===----------------------------------------------------------------------===//
// String table
//===----------------------------------------------------------------------===//

/// Collects every Symbol referenced while encoding and assigns dense
/// artifact-local ids. Local id 0 is always the empty string (the "?"
/// unknown receiver class).
class SymbolTableBuilder {
public:
  explicit SymbolTableBuilder(const StringInterner &Strings)
      : Strings(Strings) {
    Order.push_back(Symbol()); // local id 0 = ""
  }

  /// The artifact-local id for \p Sym, assigning a fresh one on first use.
  uint32_t localId(Symbol Sym);

  /// Encodes the table (string count, then contents in local-id order).
  std::string encode() const;

private:
  const StringInterner &Strings;
  std::unordered_map<uint32_t, uint32_t> Map;
  std::vector<Symbol> Order;
};

/// The decoded string table: artifact-local id -> Symbol in the loading
/// interner.
class SymbolTable {
public:
  static std::optional<SymbolTable> decode(std::string_view Bytes,
                                           StringInterner &Strings,
                                           ArtifactError *Err = nullptr);

  size_t size() const { return Syms.size(); }

  /// Resolves a local id read from \p R, failing \p R when out of range.
  Symbol resolve(uint64_t LocalId, BinaryReader &R) const {
    if (LocalId >= Syms.size()) {
      R.fail("symbol id " + std::to_string(LocalId) + " out of range (table "
             "has " + std::to_string(Syms.size()) + " entries)");
      return Symbol();
    }
    return Syms[static_cast<size_t>(LocalId)];
  }

private:
  std::vector<Symbol> Syms;
};

//===----------------------------------------------------------------------===//
// Specs
//===----------------------------------------------------------------------===//

void encodeSpec(BinaryWriter &W, const Spec &S, SymbolTableBuilder &Syms);

/// Decodes one spec; on malformed input fails \p R and returns a default
/// Spec.
Spec decodeSpec(BinaryReader &R, const SymbolTable &Syms);

/// Binary twin of specs/SpecIO.h: the whole set, insertion order preserved.
std::string encodeSpecSet(const SpecSet &Specs, SymbolTableBuilder &Syms);
std::optional<SpecSet> decodeSpecSet(std::string_view Bytes,
                                     const SymbolTable &Syms,
                                     ArtifactError *Err = nullptr);

//===----------------------------------------------------------------------===//
// Model
//===----------------------------------------------------------------------===//

/// Encodes config + per-position-pair weight tables (sparse gap coding;
/// untouched zero weights are not stored).
std::string encodeModel(const EdgeModel &Model);
std::optional<EdgeModel> decodeModel(std::string_view Bytes,
                                     ArtifactError *Err = nullptr);

//===----------------------------------------------------------------------===//
// Candidates
//===----------------------------------------------------------------------===//

/// Encodes the scored candidate table in order (order is significant: the
/// τ-selection inserts specs in this order).
std::string encodeCandidates(const std::vector<ScoredCandidate> &Candidates,
                             SymbolTableBuilder &Syms);
std::optional<std::vector<ScoredCandidate>>
decodeCandidates(std::string_view Bytes, const SymbolTable &Syms,
                 ArtifactError *Err = nullptr);

//===----------------------------------------------------------------------===//
// Corpus manifest
//===----------------------------------------------------------------------===//

/// Identifies the corpus an artifact was trained on: one structural
/// fingerprint per program (corpus/Dedup.h programFingerprint), plus an
/// optional display name (file path) each. Loaders compare manifests to
/// decide whether a cached artifact is still valid for a corpus.
struct CorpusManifest {
  struct Entry {
    std::string Name;
    uint64_t Fingerprint = 0;

    friend bool operator==(const Entry &A, const Entry &B) {
      return A.Fingerprint == B.Fingerprint && A.Name == B.Name;
    }
  };
  std::vector<Entry> Entries;

  /// Corpus-journal generation this manifest was trained through (0 for
  /// plain file-list training). Lineage metadata like the names: it does
  /// not participate in sameCorpus or equality. Encoded as a trailing
  /// varint; artifacts written before the field existed decode with 0.
  uint64_t Generation = 0;

  /// True when the fingerprint sequences match exactly (names are display
  /// metadata and do not participate).
  bool sameCorpus(const CorpusManifest &Other) const;

  friend bool operator==(const CorpusManifest &A, const CorpusManifest &B) {
    return A.Entries == B.Entries;
  }
};

std::string encodeManifest(const CorpusManifest &Manifest);
std::optional<CorpusManifest> decodeManifest(std::string_view Bytes,
                                             ArtifactError *Err = nullptr);

//===----------------------------------------------------------------------===//
// Journal lineage + candidate ledger (incremental training, DESIGN.md §12)
//===----------------------------------------------------------------------===//

/// Where in a corpus journal an artifact's training stopped. Written as the
/// optional "jrnl" section by journal-driven training; `uspec train
/// --journal` reads it back to decide between warm-start and replay, and
/// the serve hot-swap reports Generation as `model_generation`.
struct JournalLineage {
  /// Journal generation trained through (CorpusJournal entry generations
  /// are non-decreasing; this is the last one covered).
  uint64_t Generation = 0;
  /// incremental::CorpusJournal::chainChecksum over the trained entries;
  /// a prefix-integrity check that the journal grew append-only.
  uint64_t ChainChecksum = 0;
  /// Number of journal entries trained through.
  uint64_t TrainedEntries = 0;

  friend bool operator==(const JournalLineage &A, const JournalLineage &B) {
    return A.Generation == B.Generation &&
           A.ChainChecksum == B.ChainChecksum &&
           A.TrainedEntries == B.TrainedEntries;
  }
};

std::string encodeLineage(const JournalLineage &Lineage);
std::optional<JournalLineage> decodeLineage(std::string_view Bytes,
                                            ArtifactError *Err = nullptr);

/// The optional "gams" section: per-candidate ΓS evidence in first-seen
/// order (core/Candidates.h CandidateLedger), persisted so the next delta
/// run can extend it without revisiting old programs.
std::string encodeLedger(const CandidateLedger &Ledger,
                         SymbolTableBuilder &Syms);
std::optional<CandidateLedger> decodeLedger(std::string_view Bytes,
                                            const SymbolTable &Syms,
                                            ArtifactError *Err = nullptr);

//===----------------------------------------------------------------------===//
// Crash-safe file writes
//===----------------------------------------------------------------------===//

/// The temp path writeFileAtomic stages through: "<path>.tmp".
std::string atomicTempPath(const std::string &Path);

/// Writes \p Bytes to \p Path crash-safely: write to "<path>.tmp", fsync,
/// then atomically rename over \p Path. A crash (or injected kill) at any
/// point leaves either the old file, or the new file, plus at most a stale
/// temp — never a torn \p Path. Fault sites, in order: `artifact.write`
/// (entry), `artifact.write.data` (after write, before fsync),
/// `artifact.write.fsync` (after fsync, before rename),
/// `artifact.write.rename` (after rename). Returns false and fills \p Err
/// on failure (including an injected FaultInjected, which is caught here).
bool writeFileAtomic(const std::string &Path, std::string_view Bytes,
                     std::string *Err = nullptr);

/// Removes a stale "<path>.tmp" left behind by an interrupted write.
/// Returns true (and fills \p Warning) when one was found and discarded.
bool discardStaleTemp(const std::string &Path, std::string *Warning = nullptr);

} // namespace uspec

#endif // USPEC_ARTIFACT_ARTIFACTIO_H
