//===- Lowering.h - AST to IR lowering -------------------------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a parsed MiniLang Module into the analysis IR: expressions are
/// flattened into temporaries, `new C(...)` of a program-defined class with
/// an `init` method additionally calls the initializer, and every
/// allocation/literal/call receives a program-unique site id.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_IR_LOWERING_H
#define USPEC_IR_LOWERING_H

#include "ir/IR.h"
#include "lang/AST.h"
#include "lang/Diagnostics.h"
#include "support/StringInterner.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace uspec {

/// Lowers \p M into an IRProgram. Names are interned into \p Strings (which
/// must outlive the result and be shared corpus-wide). Semantic errors (use
/// of undeclared variables, duplicate locals) are reported to \p Diags;
/// returns std::nullopt if any error was emitted.
std::optional<IRProgram> lowerModule(const Module &M, StringInterner &Strings,
                                     DiagnosticSink &Diags);

/// Convenience: parse + lower in one step.
std::optional<IRProgram> parseAndLower(std::string_view Source,
                                       std::string ModuleName,
                                       StringInterner &Strings,
                                       DiagnosticSink &Diags);

/// One input of lowerCorpus, lowered.
struct LoweredSource {
  /// The lowered program; nullopt when the source could not be read or
  /// failed to parse or lower.
  std::optional<IRProgram> Program;
  /// programFingerprint(*Program) in the corpus interner's ids (0 when
  /// Program is empty).
  uint64_t Fingerprint = 0;
  /// True when the source callback could not supply the text.
  bool Unreadable = false;
  /// Why Program is empty: the callback's read error, or the rendered
  /// parse/lowering diagnostics (DiagnosticSink::render).
  std::string Error;
};

/// Supplies the text of input \p I to lowerCorpus, on a worker thread. It
/// returns either a view of memory that outlives lowerCorpus or of text it
/// read into \p Buffer (the worker's buffer, reused from input to input);
/// or nullopt with \p Error set when the input cannot be read.
using CorpusSourceFn = std::function<std::optional<std::string_view>(
    size_t I, std::string &Buffer, std::string &Error)>;

/// Parses and lowers a whole corpus on up to \p Threads workers (0 =
/// hardware concurrency): input I is named Names[I] and its text comes from
/// \p Source. The result is the serial loop's, byte for byte: the programs,
/// the fingerprints and every symbol id, because the ids are assigned in
/// file order.
///
/// With one worker the inputs are lowered straight into \p Strings. With
/// more, each worker lowers into its own scratch symbol table, reused from
/// file to file, and records each file's names in first-intern order. A
/// serial merge then interns those names into \p Strings file by file,
/// which is the first-occurrence order of the serial loop, and a parallel
/// walk rewrites each program's symbols to the merged ids while it computes
/// the fingerprint. Files that fail to lower still contribute the names
/// they interned before the error, as they do in the serial loop. Traced as
/// `corpus.lower`, `corpus.merge` and `corpus.remap`.
std::vector<LoweredSource> lowerCorpus(const std::vector<std::string> &Names,
                                       const CorpusSourceFn &Source,
                                       StringInterner &Strings,
                                       unsigned Threads);

} // namespace uspec

#endif // USPEC_IR_LOWERING_H
