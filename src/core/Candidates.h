//===- Candidates.h - Candidate extraction & scoring (Alg. 1, §5.2) -*- C++-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Alg. 1: for each event graph, enumerate call-site pairs with the same
/// receiver (bounded history distance, §7.1), match the specification
/// patterns, instantiate candidate specifications, and record the model's
/// confidence on each single induced edge. Scoring functions (§5.2) turn
/// the per-candidate confidence list ΓS into a score.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_CORE_CANDIDATES_H
#define USPEC_CORE_CANDIDATES_H

#include "core/Matching.h"
#include "model/EdgeModel.h"
#include "specs/Spec.h"
#include "support/Stats.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace uspec {

/// Aggregated evidence for one candidate specification.
struct CandidateStats {
  /// ΓS: edge confidences from single-induced-edge matches.
  std::vector<double> Confidences;
  /// Total number of pattern matches (also multi-edge ones).
  size_t Matches = 0;
  /// Number of distinct programs with at least one match.
  size_t Programs = 0;
  std::unordered_set<uint32_t> ProgramIds;
};

/// The scoring alternatives discussed in §5.2/§7.2.
enum class ScoreKind : uint8_t {
  TopKMean,     ///< Mean of the k highest confidences (paper default, k=10).
  MaxConfidence,///< Highest confidence in ΓS.
  P95,          ///< 95th percentile of ΓS.
  MatchCount,   ///< Number of matches (ablation baseline).
  ProgramCount, ///< Number of programs with a match (ablation baseline).
  NameAware,    ///< Top-k mean blended with a naming-convention prior —
                ///< the §5.3 future-work direction (core/Naming.h).
};

/// Computes score(S) from aggregated stats.
double scoreCandidate(const CandidateStats &Stats, ScoreKind Kind,
                      size_t TopK);

/// Same scoring over bare evidence (the CandidateLedger representation,
/// which stores counts instead of program-id sets).
double scoreCandidate(const std::vector<double> &Confidences, size_t Matches,
                      size_t Programs, ScoreKind Kind, size_t TopK);

/// Collects candidate specifications across event graphs.
///
/// The collector is mergeable for sharded extraction: give each worker its
/// own collector over a contiguous range of graphs, then merge the shards
/// left-to-right (lowest graph range first) with merge(). The merged
/// collector is bit-identical — candidate order, per-candidate confidence
/// order, match/program counts — to one collector fed every graph serially
/// in the same overall order.
class CandidateCollector {
public:
  /// \p ExperimentalPatterns additionally instantiates the §5.3 extension
  /// pattern RetRecv on every call site with receiver and return events.
  CandidateCollector(const EdgeModel &Model, unsigned DistanceBound = 10,
                     bool ExperimentalPatterns = false)
      : Model(Model), DistanceBound(DistanceBound),
        Experimental(ExperimentalPatterns) {}

  /// Processes one event graph (Alg. 1). \p ProgramId identifies the program
  /// for per-program match statistics. With a budget, each receiver pair and
  /// each pattern probe consumes steps; on exhaustion extraction stops and
  /// returns false, leaving this collector with a PARTIAL contribution from
  /// \p G — callers that need all-or-nothing semantics stage the graph into
  /// a scratch collector and merge() only on success (see Learner Phase 3).
  /// Returns true when the graph was processed completely.
  bool addGraph(const EventGraph &G, uint32_t ProgramId, Budget *B = nullptr);

  /// Folds \p Other (a shard covering strictly later graphs) into this
  /// collector deterministically: first-seen candidate order is preserved
  /// (this shard's candidates keep their slots, Other's new ones append in
  /// Other's order), confidences concatenate in graph order, matches sum and
  /// program-id sets union. \p Other is consumed.
  void merge(CandidateCollector &&Other);

  /// Aggregated candidates. Deterministic order is provided by candidates().
  const std::unordered_map<Spec, CandidateStats, SpecHash> &stats() const {
    return Candidates;
  }

  /// Candidates in first-seen order.
  const std::vector<Spec> &candidates() const { return Order; }

  /// Receiver pairs enumerated / pattern matches recorded so far (Alg. 1
  /// workload counters; both are invariant under sharding + merge).
  size_t numReceiverPairs() const { return ReceiverPairsSeen; }
  size_t numMatches() const { return TotalMatches; }

private:
  void recordMatch(const Spec &S, const EventGraph &G,
                   const std::vector<InducedEdge> &Edges, uint32_t ProgramId);

  const EdgeModel &Model;
  unsigned DistanceBound;
  bool Experimental;
  std::unordered_map<Spec, CandidateStats, SpecHash> Candidates;
  std::vector<Spec> Order;
  size_t ReceiverPairsSeen = 0;
  size_t TotalMatches = 0;
};

/// A position-independent snapshot of the merged candidate evidence, carried
/// across incremental training runs (DESIGN.md §12). Unlike the collector it
/// keeps only the program *count* per candidate, not the id set — delta runs
/// cover strictly later programs, so their id sets are disjoint from
/// everything already folded in and the counts simply add.
struct CandidateLedger {
  struct Entry {
    Spec S;
    std::vector<double> Confidences; ///< ΓS in global graph order.
    size_t Matches = 0;
    size_t Programs = 0;
  };
  std::vector<Entry> Entries; ///< First-seen candidate order.

  /// Snapshot of a fully merged collector.
  static CandidateLedger fromCollector(const CandidateCollector &C);

  /// Folds a collector over strictly later graphs into the ledger with the
  /// same semantics as CandidateCollector::merge: known candidates keep
  /// their slots (confidences concatenate in graph order, matches and
  /// program counts sum), new ones append in \p Delta's first-seen order.
  void extendWith(const CandidateCollector &Delta);
};

} // namespace uspec

#endif // USPEC_CORE_CANDIDATES_H
