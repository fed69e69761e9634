//===- Lowering.cpp - AST to IR lowering ------------------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Lowering.h"

#include "lang/Parser.h"
#include "support/ParallelFor.h"
#include "support/Trace.h"

#include <atomic>
#include <unordered_map>

using namespace uspec;

namespace {

/// A lowerCorpus worker's scratch symbol table. It lives for the whole
/// corpus, so a name is stored once per worker, not once per file.
struct ScratchSymbols {
  StringInterner Table;
  /// Per local id: 1 + the index of the last file that interned it.
  std::vector<uint32_t> LastFile;
  /// Local ids in each file's first-intern order, file after file.
  std::vector<uint32_t> Uses;

  /// Records that file \p FileIndex interned local id \p Id.
  void note(uint32_t Id, size_t FileIndex) {
    uint32_t Stamp = static_cast<uint32_t>(FileIndex + 1);
    if (Id >= LastFile.size())
      LastFile.resize(Id + 1, 0);
    if (LastFile[Id] != Stamp) {
      LastFile[Id] = Stamp;
      Uses.push_back(Id);
    }
  }
};

/// Per-module lowering state.
class LoweringContext {
public:
  /// Names go into \p Strings. With \p Scratch, \p Strings is the scratch
  /// table and each name is also recorded for file \p FileIndex.
  LoweringContext(const Module &M, StringInterner &Strings,
                  DiagnosticSink &Diags, ScratchSymbols *Scratch = nullptr,
                  size_t FileIndex = 0)
      : M(M), Strings(Strings), Diags(Diags), Scratch(Scratch),
        FileIndex(FileIndex) {}

  std::optional<IRProgram> run() {
    IRProgram Program;
    Program.Name = M.Name;
    for (const ClassDecl &Class : M.Classes) {
      IRClass IC;
      IC.Name = intern(Class.Name);
      for (const std::string &Field : Class.Fields)
        IC.Fields.push_back(intern(Field));
      for (const MethodDecl &Method : Class.Methods) {
        auto Lowered = lowerMethod(Method);
        if (!Lowered)
          return std::nullopt;
        IC.Methods.push_back(std::move(*Lowered));
      }
      Program.Classes.push_back(std::move(IC));
    }
    Program.NumSites = NextSiteId - 1;
    Program.NumGuards = NextGuardId - 1;
    Program.SourceLines = MaxLine;
    return Program;
  }

private:
  Symbol intern(std::string_view Name) {
    Symbol Sym = Strings.intern(Name);
    if (Scratch && !Sym.isEmpty())
      Scratch->note(Sym.id(), FileIndex);
    return Sym;
  }

  //===--------------------------------------------------------------------===//
  // Method-level state
  //===--------------------------------------------------------------------===//

  struct MethodState {
    IRMethod Method;
    /// Scope stack: innermost last. Maps source name -> slot.
    std::vector<std::unordered_map<std::string, VarId>> Scopes;
    bool HadError = false;
  };

  std::optional<IRMethod> lowerMethod(const MethodDecl &Decl) {
    MethodState State;
    State.Method.Name = intern(Decl.Name);
    State.Method.NumParams = static_cast<uint32_t>(Decl.Params.size());
    State.Scopes.emplace_back();

    // Slot 0 is `this`.
    State.Method.VarNames.push_back("this");
    for (const std::string &Param : Decl.Params) {
      VarId Slot = static_cast<VarId>(State.Method.VarNames.size());
      State.Method.VarNames.push_back(Param);
      if (!State.Scopes.back().emplace(Param, Slot).second) {
        Diags.error(Decl.Line, 0, "duplicate parameter '" + Param + "'");
        State.HadError = true;
      }
    }

    lowerBlock(State, Decl.Body, State.Method.Body);
    State.Method.NumVars = static_cast<uint32_t>(State.Method.VarNames.size());
    if (State.HadError)
      return std::nullopt;
    return std::move(State.Method);
  }

  VarId newTemp(MethodState &State) {
    VarId Slot = static_cast<VarId>(State.Method.VarNames.size());
    State.Method.VarNames.push_back("%t" +
                                    std::to_string(State.Method.VarNames.size()));
    return Slot;
  }

  VarId declareLocal(MethodState &State, const std::string &Name, int Line) {
    if (State.Scopes.back().count(Name)) {
      Diags.error(Line, 0, "redeclaration of '" + Name + "'");
      State.HadError = true;
      return State.Scopes.back()[Name];
    }
    VarId Slot = static_cast<VarId>(State.Method.VarNames.size());
    State.Method.VarNames.push_back(Name);
    State.Scopes.back().emplace(Name, Slot);
    return Slot;
  }

  VarId lookup(MethodState &State, const std::string &Name, int Line) {
    (void)Line;
    for (auto It = State.Scopes.rbegin(); It != State.Scopes.rend(); ++It) {
      auto Found = It->find(Name);
      if (Found != It->end())
        return Found->second;
    }
    // Free name: an external global holding an unknown API object. Register
    // it method-wide (in the outermost scope) so repeated uses share a slot.
    VarId Slot = static_cast<VarId>(State.Method.VarNames.size());
    State.Method.VarNames.push_back(Name);
    State.Scopes.front().emplace(Name, Slot);
    State.Method.Externals.emplace_back(Slot, intern(Name));
    return Slot;
  }

  void noteLine(int Line) {
    if (Line > 0 && static_cast<uint32_t>(Line) > MaxLine)
      MaxLine = static_cast<uint32_t>(Line);
  }

  //===--------------------------------------------------------------------===//
  // Expression lowering
  //===--------------------------------------------------------------------===//

  /// Lowers \p E into \p Out, returning the slot holding its value.
  VarId lowerExpr(MethodState &State, const Expr &E, InstrList &Out) {
    noteLine(E.getLine());
    switch (E.getKind()) {
    case Expr::Kind::New:
      return lowerNew(State, *cast<NewExpr>(&E), Out);
    case Expr::Kind::StringLit: {
      const auto &Lit = *cast<StringLitExpr>(&E);
      Instr I;
      I.TheKind = Instr::Kind::Literal;
      I.Line = E.getLine();
      I.Dst = newTemp(State);
      I.LitKind = LiteralKind::String;
      I.StrValue = intern(Lit.Value);
      I.SiteId = NextSiteId++;
      Out.push_back(std::move(I));
      return Out.back().Dst;
    }
    case Expr::Kind::IntLit: {
      const auto &Lit = *cast<IntLitExpr>(&E);
      Instr I;
      I.TheKind = Instr::Kind::Literal;
      I.Line = E.getLine();
      I.Dst = newTemp(State);
      I.LitKind = LiteralKind::Int;
      I.StrValue = intern(std::to_string(Lit.Value));
      I.IntValue = Lit.Value;
      I.SiteId = NextSiteId++;
      Out.push_back(std::move(I));
      return Out.back().Dst;
    }
    case Expr::Kind::Null: {
      Instr I;
      I.TheKind = Instr::Kind::Literal;
      I.Line = E.getLine();
      I.Dst = newTemp(State);
      I.LitKind = LiteralKind::Null;
      I.SiteId = NextSiteId++;
      Out.push_back(std::move(I));
      return Out.back().Dst;
    }
    case Expr::Kind::This:
      return 0;
    case Expr::Kind::VarRef:
      return lookup(State, cast<VarRefExpr>(&E)->Name, E.getLine());
    case Expr::Kind::FieldRead: {
      const auto &Read = *cast<FieldReadExpr>(&E);
      VarId Base = lowerExpr(State, *Read.Base, Out);
      Instr I;
      I.TheKind = Instr::Kind::LoadField;
      I.Line = E.getLine();
      I.Dst = newTemp(State);
      I.Base = Base;
      I.Name = intern(Read.Field);
      Out.push_back(std::move(I));
      return Out.back().Dst;
    }
    case Expr::Kind::Call: {
      const auto &Call = *cast<CallExpr>(&E);
      VarId Recv = Call.Receiver ? lowerExpr(State, *Call.Receiver, Out)
                                 : 0 /* implicit this */;
      std::vector<VarId> Args;
      Args.reserve(Call.Args.size());
      for (const ExprPtr &Arg : Call.Args)
        Args.push_back(lowerExpr(State, *Arg, Out));
      Instr I;
      I.TheKind = Instr::Kind::Call;
      I.Line = E.getLine();
      I.Dst = newTemp(State);
      I.Base = Recv;
      I.Name = intern(Call.Method);
      I.Args = std::move(Args);
      I.SiteId = NextSiteId++;
      I.GuardId = CurrentGuard;
      Out.push_back(std::move(I));
      return Out.back().Dst;
    }
    }
    return InvalidVar; // unreachable: all kinds covered
  }

  VarId lowerNew(MethodState &State, const NewExpr &New, InstrList &Out) {
    std::vector<VarId> Args;
    Args.reserve(New.Args.size());
    for (const ExprPtr &Arg : New.Args)
      Args.push_back(lowerExpr(State, *Arg, Out));

    Instr I;
    I.TheKind = Instr::Kind::Alloc;
    I.Line = New.getLine();
    I.Dst = newTemp(State);
    I.Name = intern(New.ClassName);
    I.SiteId = NextSiteId++;
    Out.push_back(std::move(I));
    VarId Obj = Out.back().Dst;

    // If this instantiates a program-defined class with an `init` method,
    // lower the constructor call; otherwise arguments are dropped (API-class
    // construction is opaque).
    const ClassDecl *Class = M.findClass(New.ClassName);
    if (Class && Class->findMethod("init")) {
      Instr CallInit;
      CallInit.TheKind = Instr::Kind::Call;
      CallInit.Line = New.getLine();
      CallInit.Dst = InvalidVar;
      CallInit.Base = Obj;
      CallInit.Name = intern("init");
      CallInit.Args = std::move(Args);
      CallInit.SiteId = NextSiteId++;
      CallInit.GuardId = CurrentGuard;
      Out.push_back(std::move(CallInit));
    }
    return Obj;
  }

  //===--------------------------------------------------------------------===//
  // Statement lowering
  //===--------------------------------------------------------------------===//

  void lowerCondition(MethodState &State, const Condition &Cond, Instr &Target,
                      InstrList &Out) {
    Target.CondLhs = lowerExpr(State, *Cond.Lhs, Out);
    switch (Cond.Op) {
    case CmpOp::None:
      Target.CondOp = IRCmpOp::None;
      break;
    case CmpOp::Eq:
      Target.CondOp = IRCmpOp::Eq;
      break;
    case CmpOp::Ne:
      Target.CondOp = IRCmpOp::Ne;
      break;
    case CmpOp::Lt:
      Target.CondOp = IRCmpOp::Lt;
      break;
    case CmpOp::Gt:
      Target.CondOp = IRCmpOp::Gt;
      break;
    }
    if (Cond.Rhs)
      Target.CondRhs = lowerExpr(State, *Cond.Rhs, Out);
  }

  void lowerBlock(MethodState &State, const Block &B, InstrList &Out) {
    State.Scopes.emplace_back();
    for (const StmtPtr &S : B)
      lowerStmt(State, *S, Out);
    State.Scopes.pop_back();
  }

  void lowerStmt(MethodState &State, const Stmt &S, InstrList &Out) {
    noteLine(S.getLine());
    switch (S.getKind()) {
    case Stmt::Kind::VarDecl: {
      const auto &Decl = *cast<VarDeclStmt>(&S);
      VarId Init = InvalidVar;
      if (Decl.Init)
        Init = lowerExpr(State, *Decl.Init, Out);
      VarId Slot = declareLocal(State, Decl.Name, S.getLine());
      if (Init != InvalidVar) {
        Instr I;
        I.TheKind = Instr::Kind::Copy;
        I.Line = S.getLine();
        I.Dst = Slot;
        I.Src = Init;
        Out.push_back(std::move(I));
      }
      return;
    }
    case Stmt::Kind::Assign: {
      const auto &Assign = *cast<AssignStmt>(&S);
      if (const auto *Var = dyn_cast<VarRefExpr>(Assign.Target.get())) {
        VarId Value = lowerExpr(State, *Assign.Value, Out);
        VarId Slot = lookup(State, Var->Name, S.getLine());
        Instr I;
        I.TheKind = Instr::Kind::Copy;
        I.Line = S.getLine();
        I.Dst = Slot;
        I.Src = Value;
        Out.push_back(std::move(I));
        return;
      }
      const auto &Field = *cast<FieldReadExpr>(Assign.Target.get());
      VarId Base = lowerExpr(State, *Field.Base, Out);
      VarId Value = lowerExpr(State, *Assign.Value, Out);
      Instr I;
      I.TheKind = Instr::Kind::StoreField;
      I.Line = S.getLine();
      I.Base = Base;
      I.Name = intern(Field.Field);
      I.Src = Value;
      Out.push_back(std::move(I));
      return;
    }
    case Stmt::Kind::ExprStmt: {
      VarId Result = lowerExpr(State, *cast<ExprStmt>(&S)->E, Out);
      // Mark unused call results: keep Dst, analyses don't care.
      (void)Result;
      return;
    }
    case Stmt::Kind::If: {
      const auto &If = *cast<IfStmt>(&S);
      Instr I;
      I.TheKind = Instr::Kind::If;
      I.Line = S.getLine();
      lowerCondition(State, If.Cond, I, Out);
      uint32_t Guard = NextGuardId++;
      I.GuardId = Guard;
      uint32_t SavedGuard = CurrentGuard;
      CurrentGuard = Guard;
      lowerBlock(State, If.Then, I.Inner1);
      lowerBlock(State, If.Else, I.Inner2);
      CurrentGuard = SavedGuard;
      Out.push_back(std::move(I));
      return;
    }
    case Stmt::Kind::While: {
      const auto &While = *cast<WhileStmt>(&S);
      Instr I;
      I.TheKind = Instr::Kind::While;
      I.Line = S.getLine();
      // The condition is evaluated once before the loop (for the analysis'
      // single unrolling); a copy of its instructions is kept on the loop so
      // the interpreter can re-evaluate it per iteration.
      InstrList CondInstrs;
      lowerCondition(State, While.Cond, I, CondInstrs);
      I.Inner2 = CondInstrs;
      for (Instr &C : CondInstrs)
        Out.push_back(std::move(C));
      uint32_t Guard = NextGuardId++;
      I.GuardId = Guard;
      uint32_t SavedGuard = CurrentGuard;
      CurrentGuard = Guard;
      lowerBlock(State, While.Body, I.Inner1);
      CurrentGuard = SavedGuard;
      Out.push_back(std::move(I));
      return;
    }
    case Stmt::Kind::Return: {
      const auto &Ret = *cast<ReturnStmt>(&S);
      Instr I;
      I.TheKind = Instr::Kind::Return;
      I.Line = S.getLine();
      if (Ret.Value)
        I.Src = lowerExpr(State, *Ret.Value, Out);
      Out.push_back(std::move(I));
      return;
    }
    }
  }

  const Module &M;
  StringInterner &Strings;
  DiagnosticSink &Diags;
  ScratchSymbols *Scratch;
  size_t FileIndex;
  uint32_t NextSiteId = 1;
  uint32_t NextGuardId = 1;
  uint32_t CurrentGuard = 0;
  uint32_t MaxLine = 0;
};

/// lowerModule, interning through \p Scratch when given.
std::optional<IRProgram> lowerWith(const Module &M, StringInterner &Strings,
                                   DiagnosticSink &Diags,
                                   ScratchSymbols *Scratch, size_t FileIndex) {
  LoweringContext Ctx(M, Strings, Diags, Scratch, FileIndex);
  auto Result = Ctx.run();
  if (Diags.hasErrors())
    return std::nullopt;
  return Result;
}

/// parseAndLower, interning through \p Scratch when given.
std::optional<IRProgram> parseAndLowerWith(std::string_view Source,
                                           std::string ModuleName,
                                           StringInterner &Strings,
                                           DiagnosticSink &Diags,
                                           ScratchSymbols *Scratch,
                                           size_t FileIndex) {
  auto M = Parser::parse(Source, std::move(ModuleName), Diags);
  if (!M || Diags.hasErrors())
    return std::nullopt;
  return lowerWith(*M, Strings, Diags, Scratch, FileIndex);
}

} // namespace

std::optional<IRProgram> uspec::lowerModule(const Module &M,
                                            StringInterner &Strings,
                                            DiagnosticSink &Diags) {
  return lowerWith(M, Strings, Diags, nullptr, 0);
}

std::optional<IRProgram> uspec::parseAndLower(std::string_view Source,
                                              std::string ModuleName,
                                              StringInterner &Strings,
                                              DiagnosticSink &Diags) {
  return parseAndLowerWith(Source, std::move(ModuleName), Strings, Diags,
                           nullptr, 0);
}

std::vector<LoweredSource>
uspec::lowerCorpus(const std::vector<std::string> &Names,
                   const CorpusSourceFn &Source, StringInterner &Strings,
                   unsigned Threads) {
  const size_t N = Names.size();
  std::vector<LoweredSource> Out(N);
  const unsigned Workers = effectiveThreads(N, Threads);
  auto SpanArgs = [N](TraceSpan &Span) {
    if (Span.active())
      Span.arg("programs", std::to_string(N));
  };

  // Reads, parses and lowers input I into Table. Without Scratch, Table is
  // the corpus interner and the fingerprint is final at once.
  auto LowerOne = [&](size_t I, std::string &Buffer, StringInterner &Table,
                      ScratchSymbols *Scratch) {
    LoweredSource &L = Out[I];
    std::optional<std::string_view> Text = Source(I, Buffer, L.Error);
    if (!Text) {
      L.Unreadable = true;
      return;
    }
    DiagnosticSink Diags;
    L.Program = parseAndLowerWith(*Text, Names[I], Table, Diags, Scratch, I);
    if (!L.Program)
      L.Error = Diags.render();
    else if (!Scratch)
      L.Fingerprint = programFingerprint(*L.Program);
  };

  if (Workers == 1) {
    TraceSpan Span("corpus.lower");
    SpanArgs(Span);
    std::string Buffer;
    for (size_t I = 0; I < N; ++I)
      LowerOne(I, Buffer, Strings, nullptr);
    return Out;
  }

  // Step 1: parallel read, parse and lower into per-worker scratch tables.
  // Workers pull files from a shared counter; file I's names are the slice
  // [Begin, End) of its worker's Uses.
  struct FileUses {
    uint32_t Worker = 0;
    size_t Begin = 0, End = 0;
  };
  std::vector<FileUses> Uses(N);
  std::vector<ScratchSymbols> Scratch(Workers);
  {
    TraceSpan Span("corpus.lower");
    SpanArgs(Span);
    std::atomic<size_t> Next{0};
    parallelFor(Workers, Workers, [&](size_t W) {
      ScratchSymbols &S = Scratch[W];
      std::string Buffer;
      for (size_t I = Next.fetch_add(1); I < N; I = Next.fetch_add(1)) {
        size_t Begin = S.Uses.size();
        LowerOne(I, Buffer, S.Table, &S);
        Uses[I] = {static_cast<uint32_t>(W), Begin, S.Uses.size()};
      }
    });
  }

  // Step 2: serial merge in file order. Each file's new names reach the
  // corpus interner in the order the serial loop would have interned them,
  // so they get the same ids. Map[W][local id] = corpus id (0 = not yet).
  std::vector<std::vector<uint32_t>> Map(Workers);
  {
    TraceSpan Span("corpus.merge");
    SpanArgs(Span);
    for (unsigned W = 0; W < Workers; ++W)
      Map[W].assign(Scratch[W].Table.size(), 0);
    for (size_t I = 0; I < N; ++I) {
      const ScratchSymbols &S = Scratch[Uses[I].Worker];
      std::vector<uint32_t> &M = Map[Uses[I].Worker];
      for (size_t K = Uses[I].Begin; K < Uses[I].End; ++K) {
        uint32_t Local = S.Uses[K];
        if (!M[Local])
          M[Local] = Strings.intern(S.Table.str(Symbol(Local))).id();
      }
    }
    std::vector<ScratchSymbols>().swap(Scratch);
  }

  // Step 3: parallel remap onto the corpus ids, fingerprinting in the walk.
  {
    TraceSpan Span("corpus.remap");
    SpanArgs(Span);
    parallelFor(N, Workers, [&](size_t I) {
      if (Out[I].Program)
        Out[I].Fingerprint =
            remapSymbols(*Out[I].Program, Map[Uses[I].Worker].data());
    });
  }
  return Out;
}
