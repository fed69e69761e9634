//===- IR.cpp - IR utilities -----------------------------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"

#include "support/Hashing.h"

#include <sstream>
#include <type_traits>

using namespace uspec;

namespace {

/// The fingerprint walk over one instruction list. \p Remap sees every
/// Symbol before it is hashed; when \p List is mutable, Remap may rewrite it,
/// so remapping and fingerprinting share one pass over the IR.
template <typename ListT, typename RemapFn>
uint64_t fingerprintList(ListT &List, uint64_t H, const RemapFn &Remap) {
  for (auto &I : List) {
    Remap(I.Name);
    Remap(I.StrValue);
    H = hashCombine(H, static_cast<uint64_t>(I.TheKind));
    H = hashCombine(H, I.Name.id());
    H = hashCombine(H, I.StrValue.id());
    H = hashCombine(H, static_cast<uint64_t>(I.LitKind));
    H = hashCombine(H, static_cast<uint64_t>(I.IntValue));
    H = hashCombine(H, I.Args.size());
    H = hashCombine(H, static_cast<uint64_t>(I.CondOp));
    // Slots are positional (deterministic lowering), so including them keeps
    // genuinely different data flow apart without depending on names.
    H = hashCombine(H, I.Dst);
    H = hashCombine(H, I.Src);
    H = hashCombine(H, I.Base);
    for (VarId Arg : I.Args)
      H = hashCombine(H, Arg);
    H = fingerprintList(I.Inner1, hashCombine(H, 0x11), Remap);
    if (I.TheKind == Instr::Kind::If)
      H = fingerprintList(I.Inner2, hashCombine(H, 0x22), Remap);
    else if constexpr (!std::is_const_v<ListT>)
      fingerprintList(I.Inner2, 0, Remap); // While's condition copy: not hashed
  }
  return H;
}

template <typename ProgramT, typename RemapFn>
uint64_t fingerprintProgram(ProgramT &Program, const RemapFn &Remap) {
  uint64_t H = 0xF1D0ULL;
  for (auto &Class : Program.Classes) {
    Remap(Class.Name);
    H = hashCombine(H, Class.Name.id());
    for (auto &Field : Class.Fields) {
      Remap(Field);
      H = hashCombine(H, Field.id());
    }
    for (auto &Method : Class.Methods) {
      Remap(Method.Name);
      if constexpr (!std::is_const_v<ProgramT>)
        for (auto &External : Method.Externals)
          Remap(External.second);
      H = hashCombine(H, Method.Name.id());
      H = hashCombine(H, Method.NumParams);
      H = fingerprintList(Method.Body, H, Remap);
    }
  }
  return H;
}

void disassembleList(const InstrList &Body, const IRMethod &Method,
                     const StringInterner &Strings, int Indent,
                     std::ostringstream &Out) {
  auto Pad = [&Out](int N) {
    for (int I = 0; I < N; ++I)
      Out << "  ";
  };
  auto VarName = [&Method](VarId Var) -> std::string {
    if (Var == InvalidVar)
      return "_";
    if (Var < Method.VarNames.size())
      return Method.VarNames[Var];
    return "v" + std::to_string(Var);
  };

  for (const Instr &I : Body) {
    Pad(Indent);
    switch (I.TheKind) {
    case Instr::Kind::Alloc:
      Out << VarName(I.Dst) << " = alloc " << Strings.str(I.Name) << " @"
          << I.SiteId << "\n";
      break;
    case Instr::Kind::Literal:
      Out << VarName(I.Dst) << " = lit ";
      switch (I.LitKind) {
      case LiteralKind::String:
        Out << '"' << Strings.str(I.StrValue) << '"';
        break;
      case LiteralKind::Int:
        Out << I.IntValue;
        break;
      case LiteralKind::Null:
        Out << "null";
        break;
      }
      Out << " @" << I.SiteId << "\n";
      break;
    case Instr::Kind::Copy:
      Out << VarName(I.Dst) << " = " << VarName(I.Src) << "\n";
      break;
    case Instr::Kind::LoadField:
      Out << VarName(I.Dst) << " = " << VarName(I.Base) << "."
          << Strings.str(I.Name) << "\n";
      break;
    case Instr::Kind::StoreField:
      Out << VarName(I.Base) << "." << Strings.str(I.Name) << " = "
          << VarName(I.Src) << "\n";
      break;
    case Instr::Kind::Call:
      if (I.Dst != InvalidVar)
        Out << VarName(I.Dst) << " = ";
      Out << VarName(I.Base) << "." << Strings.str(I.Name) << "(";
      for (size_t A = 0; A < I.Args.size(); ++A) {
        if (A)
          Out << ", ";
        Out << VarName(I.Args[A]);
      }
      Out << ") @" << I.SiteId << "\n";
      break;
    case Instr::Kind::If:
      Out << "if " << VarName(I.CondLhs) << " guard#" << I.GuardId << "\n";
      disassembleList(I.Inner1, Method, Strings, Indent + 1, Out);
      if (!I.Inner2.empty()) {
        Pad(Indent);
        Out << "else\n";
        disassembleList(I.Inner2, Method, Strings, Indent + 1, Out);
      }
      break;
    case Instr::Kind::While:
      Out << "while " << VarName(I.CondLhs) << " guard#" << I.GuardId << "\n";
      disassembleList(I.Inner1, Method, Strings, Indent + 1, Out);
      break;
    case Instr::Kind::Return:
      Out << "return";
      if (I.Src != InvalidVar)
        Out << " " << VarName(I.Src);
      Out << "\n";
      break;
    }
  }
}

} // namespace

std::string uspec::disassemble(const IRProgram &Program,
                               const StringInterner &Strings) {
  std::ostringstream Out;
  for (const IRClass &Class : Program.Classes) {
    Out << "class " << Strings.str(Class.Name) << " {\n";
    for (const IRMethod &Method : Class.Methods) {
      Out << " def " << Strings.str(Method.Name) << "/" << Method.NumParams
          << " {\n";
      disassembleList(Method.Body, Method, Strings, 2, Out);
      Out << " }\n";
    }
    Out << "}\n";
  }
  return Out.str();
}

uint64_t uspec::programFingerprint(const IRProgram &Program) {
  return fingerprintProgram(Program, [](Symbol) {});
}

uint64_t uspec::remapSymbols(IRProgram &Program, const uint32_t *Map) {
  return fingerprintProgram(Program,
                            [Map](Symbol &S) { S = Symbol(Map[S.id()]); });
}
