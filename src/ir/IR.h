//===- IR.h - Structured three-address IR for MiniLang ---------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis IR. MiniLang ASTs are lowered (see Lowering.h) into a
/// structured IR: flat instruction lists with nested If/While regions and
/// method-scoped variable slots. All names are interned in a pipeline-wide
/// StringInterner so method identifiers are comparable across programs — the
/// specification learner aggregates candidates corpus-wide.
///
/// Site identifiers (allocations, literals, calls) are unique within one
/// IRProgram; events in the paper are pairs ⟨call site, position⟩ and our
/// SiteId plays the call-site role.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_IR_IR_H
#define USPEC_IR_IR_H

#include "support/StringInterner.h"

#include <cstdint>
#include <string>
#include <vector>

namespace uspec {

/// Index of a variable slot within a method frame. Slot 0 is `this`,
/// slots 1..N are parameters, the rest are locals and compiler temps.
using VarId = uint32_t;

/// Sentinel for "no variable" (e.g. a call whose result is unused).
inline constexpr VarId InvalidVar = ~static_cast<VarId>(0);

/// Comparison operator recorded on If/While guards (mirrors AST CmpOp).
enum class IRCmpOp : uint8_t { None, Eq, Ne, Lt, Gt };

/// Kind of literal produced by a Literal instruction.
enum class LiteralKind : uint8_t { String, Int, Null };

/// A single IR instruction. If/While instructions own nested instruction
/// lists; everything else is a leaf. A tagged struct (rather than a class
/// hierarchy) keeps the interpreter and analyses simple and fast.
struct Instr {
  enum class Kind : uint8_t {
    Alloc,      ///< Dst = new Class          (site)
    Literal,    ///< Dst = literal            (site)
    Copy,       ///< Dst = Src
    LoadField,  ///< Dst = Base.Name
    StoreField, ///< Base.Name = Src
    Call,       ///< [Dst =] Base.Name(Args)  (site, guard)
    If,         ///< if (CondLhs op CondRhs) Inner1 else Inner2
    While,      ///< while (CondLhs op CondRhs) Inner1
    Return,     ///< return [Src]
  };

  Kind TheKind;
  int Line = 0;

  VarId Dst = InvalidVar;  ///< Alloc/Literal/Copy/LoadField/Call result.
  VarId Src = InvalidVar;  ///< Copy/StoreField/Return operand.
  VarId Base = InvalidVar; ///< LoadField/StoreField base, Call receiver.
  Symbol Name;             ///< Class (Alloc), field, or method name.

  LiteralKind LitKind = LiteralKind::Null;
  Symbol StrValue;      ///< Interned literal text (also for ints, canonical
                        ///< decimal) — this feeds valG.
  int64_t IntValue = 0; ///< Int literal payload for the interpreter.

  std::vector<VarId> Args; ///< Call arguments.

  /// Program-unique site id for Alloc/Literal/Call (0 = not a site).
  uint32_t SiteId = 0;
  /// Innermost enclosing guard region id (0 = none); feeds feature γ.
  uint32_t GuardId = 0;

  // Guard condition operands for If/While.
  IRCmpOp CondOp = IRCmpOp::None;
  VarId CondLhs = InvalidVar;
  VarId CondRhs = InvalidVar;

  std::vector<Instr> Inner1; ///< If-then / While-body.
  std::vector<Instr> Inner2; ///< If-else; for While: a copy of the
                             ///< condition-evaluating instructions, re-run
                             ///< per iteration by the concrete interpreter
                             ///< (the analysis unrolls once and ignores it).
};

using InstrList = std::vector<Instr>;

/// A lowered method.
struct IRMethod {
  Symbol Name;
  uint32_t NumParams = 0;
  /// Total number of variable slots (this + params + locals + temps).
  uint32_t NumVars = 0;
  /// Debug names per slot (temps are named "%tN").
  std::vector<std::string> VarNames;
  /// Free names referenced by the method body (e.g. `db` in `db.getFile()`),
  /// treated as external globals holding unknown API objects, exactly like
  /// the partial-program fragments the paper analyzes. Each entry maps the
  /// variable slot to the source name.
  std::vector<std::pair<VarId, Symbol>> Externals;
  InstrList Body;
};

/// A lowered class.
struct IRClass {
  Symbol Name;
  std::vector<Symbol> Fields;
  std::vector<IRMethod> Methods;

  const IRMethod *findMethod(Symbol MethodName) const {
    for (const IRMethod &M : Methods)
      if (M.Name == MethodName)
        return &M;
    return nullptr;
  }
};

/// A lowered program (one MiniLang module).
struct IRProgram {
  std::string Name;
  std::vector<IRClass> Classes;
  /// Total number of site ids handed out (site ids are 1..NumSites).
  uint32_t NumSites = 0;
  /// Total number of guard ids handed out (guard ids are 1..NumGuards).
  uint32_t NumGuards = 0;
  /// Approximate number of source lines (used for per-loc rates in Tab. 4).
  uint32_t SourceLines = 0;

  const IRClass *findClass(Symbol ClassName) const {
    for (const IRClass &C : Classes)
      if (C.Name == ClassName)
        return &C;
    return nullptr;
  }
};

/// Returns a compact disassembly of \p Program for tests and debugging.
std::string disassemble(const IRProgram &Program, const StringInterner &Strings);

/// Structural fingerprint of a program over the lowered IR: instruction
/// kinds, interned class/field/method names, literal values, arities and
/// variable slots (corpus/Dedup.h uses it to drop duplicate programs).
uint64_t programFingerprint(const IRProgram &Program);

/// Rewrites every Symbol of \p Program (class, field, method, external,
/// instruction name and literal text) to Symbol(Map[old id]) and returns
/// programFingerprint of the rewritten program, in one walk. Moves a program
/// lowered against a scratch symbol table onto the corpus interner.
uint64_t remapSymbols(IRProgram &Program, const uint32_t *Map);

} // namespace uspec

#endif // USPEC_IR_IR_H
