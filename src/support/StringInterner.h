//===- StringInterner.h - Symbol table for interned strings ----*- C++ -*-===//
//
// Part of the USpec reproduction of "Unsupervised Learning of API Aliasing
// Specifications" (PLDI 2019). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interned strings. Every name that flows through the pipeline (method
/// names, class names, literal values) is interned once and referred to by a
/// small integer Symbol, which makes event/feature hashing and equality
/// comparisons cheap and deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_SUPPORT_STRINGINTERNER_H
#define USPEC_SUPPORT_STRINGINTERNER_H

#include "support/Hashing.h"

#include <cassert>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace uspec {

/// A handle to an interned string. Symbols are only meaningful together with
/// the StringInterner that produced them. Symbol 0 is reserved for the empty
/// string so that a default-constructed Symbol is valid.
class Symbol {
public:
  Symbol() = default;
  explicit Symbol(uint32_t Id) : Id(Id) {}

  uint32_t id() const { return Id; }
  bool isEmpty() const { return Id == 0; }

  friend bool operator==(Symbol A, Symbol B) { return A.Id == B.Id; }
  friend bool operator!=(Symbol A, Symbol B) { return A.Id != B.Id; }
  friend bool operator<(Symbol A, Symbol B) { return A.Id < B.Id; }

private:
  uint32_t Id = 0;
};

/// Deduplicating string table. Mutation (intern of a new string) requires
/// external synchronization, but concurrent const access — str(), size(),
/// intern() of an already-present string — is safe while no writer runs.
/// The parallel pipeline phases rely on this read-only contract: all names
/// reach the corpus interner in the front end's serial merge (lowerCorpus),
/// before learn() fans out.
class StringInterner {
public:
  StringInterner() { Storage.emplace_back(); /* Symbol 0 = "" */ }

  // Copying is still disabled to keep move-only semantics uniform across
  // call sites. Moving steals the deque chunks and the index vector, so
  // element addresses (and thus str() references) survive.
  StringInterner(const StringInterner &) = delete;
  StringInterner &operator=(const StringInterner &) = delete;
  StringInterner(StringInterner &&) = default;
  StringInterner &operator=(StringInterner &&) = default;

  /// Interns \p Str and returns its Symbol; repeated calls with equal
  /// contents return the same Symbol. Lookup is heterogeneous — a probe for
  /// an already-interned string allocates nothing.
  Symbol intern(std::string_view Str) {
    if (Str.empty())
      return Symbol();
    if (Index.empty() || IndexCount * 10 >= Index.size() * 7)
      rehash(Index.empty() ? 64 : Index.size() * 2);
    uint64_t Hash = hashBytesWide(Str);
    size_t SlotIdx = probe(Str, Hash);
    if (Index[SlotIdx].Id != 0)
      return Symbol(Index[SlotIdx].Id);
    uint32_t Id = static_cast<uint32_t>(Storage.size());
    // Deque storage never relocates existing elements, so every reference
    // handed out by str() stays valid across arbitrary later intern() calls.
    Storage.emplace_back(Str);
    Index[SlotIdx] = IndexSlot{Hash, Id};
    ++IndexCount;
    return Symbol(Id);
  }

  /// Const probe: the Symbol of \p Str if it is already interned, nullopt
  /// otherwise. Never mutates, so it is safe concurrently with other
  /// readers — this is how const consumers (the query service's client
  /// verbs) resolve externally supplied names against a frozen interner.
  std::optional<Symbol> lookup(std::string_view Str) const {
    if (Str.empty())
      return Symbol();
    if (Index.empty())
      return std::nullopt;
    size_t SlotIdx = probe(Str, hashBytesWide(Str));
    if (Index[SlotIdx].Id == 0)
      return std::nullopt;
    return Symbol(Index[SlotIdx].Id);
  }

  /// Returns the string for \p Sym. The reference is stable for the lifetime
  /// of the interner — storage is chunked (std::deque), so growth never
  /// invalidates previously returned references.
  const std::string &str(Symbol Sym) const {
    assert(Sym.id() < Storage.size() && "symbol from a different interner");
    return Storage[Sym.id()];
  }

  /// Number of interned strings, including the reserved empty string.
  size_t size() const { return Storage.size(); }

private:
  /// One open-addressed slot: cached wide hash (so rehash and most probe
  /// misses never touch Storage) plus the symbol id. Id 0 is the vacant
  /// marker — the empty string short-circuits before reaching the table, so
  /// Symbol 0 never occupies a slot.
  struct IndexSlot {
    uint64_t Hash = 0;
    uint32_t Id = 0;
  };

  /// Returns the slot holding \p Str, or the first vacant slot on its probe
  /// sequence. Requires a non-empty table. Linear probing over a
  /// power-of-two table; string comparison only runs on a full 64-bit hash
  /// match, so collisions are overwhelmingly resolved on the flat array.
  size_t probe(std::string_view Str, uint64_t Hash) const {
    size_t Mask = Index.size() - 1;
    for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
      const IndexSlot &S = Index[I];
      if (S.Id == 0 || (S.Hash == Hash && Storage[S.Id] == Str))
        return I;
    }
  }

  void rehash(size_t NewCap) {
    std::vector<IndexSlot> Old;
    Old.swap(Index);
    Index.resize(NewCap);
    size_t Mask = NewCap - 1;
    for (const IndexSlot &S : Old) {
      if (S.Id == 0)
        continue;
      size_t I = S.Hash & Mask;
      while (Index[I].Id != 0)
        I = (I + 1) & Mask;
      Index[I] = S;
    }
  }

  std::deque<std::string> Storage;
  /// Flat open-addressed (hash, id) table; probes touch one contiguous
  /// array instead of chasing unordered_map buckets.
  std::vector<IndexSlot> Index;
  size_t IndexCount = 0;
};

} // namespace uspec

namespace std {
template <> struct hash<uspec::Symbol> {
  size_t operator()(uspec::Symbol Sym) const noexcept {
    return hash<uint32_t>()(Sym.id());
  }
};
} // namespace std

#endif // USPEC_SUPPORT_STRINGINTERNER_H
