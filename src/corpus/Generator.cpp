//===- Generator.cpp - Synthetic corpus generator ------------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "corpus/Generator.h"

#include "ir/Lowering.h"
#include "lang/Diagnostics.h"

#include <cassert>
#include <sstream>

using namespace uspec;

namespace {

class ProgramBuilder {
public:
  ProgramBuilder(const LanguageProfile &P, const GeneratorConfig &Cfg,
                 Rng &Rand)
      : P(P), Cfg(Cfg), Rand(Rand) {
    // Pre-compute getter sites: (class, method) pairs usable by the
    // repeated-getter idiom. The class must be instantiable somehow.
    for (const ApiClass &C : P.Registry.classes()) {
      if (!C.Constructible && C.ProducerVar.empty())
        continue;
      for (const ApiMethod &M : C.Methods) {
        if (M.Semantics == MethodSemantics::Load ||
            M.Semantics == MethodSemantics::StatelessGetter)
          Getters.push_back({&C, &M});
        if (M.Semantics == MethodSemantics::MutatingReader)
          Mutators.push_back({&C, &M});
      }
    }
  }

  std::string build() {
    unsigned NumIdioms = static_cast<unsigned>(
        Rand.range(Cfg.MinIdioms, Cfg.MaxIdioms));
    for (unsigned I = 0; I < NumIdioms; ++I) {
      emitIdiom();
      if (Rand.chance(Cfg.NoiseProb))
        emitNoise();
    }
    if (MainLines.empty())
      emitDirect();

    std::ostringstream Out;
    Out << "class Main {\n";
    for (const std::string &Field : Fields)
      Out << "  var " << Field << ";\n";
    Out << "  def main() {\n";
    for (const std::string &Line : MainLines)
      Out << "    " << Line << "\n";
    Out << "  }\n";
    for (const std::string &Method : ExtraMethods)
      Out << Method;
    Out << "}\n";
    for (const std::string &Helper : Helpers)
      Out << Helper;
    return Out.str();
  }

private:
  struct MethodRef {
    const ApiClass *Class;
    const ApiMethod *Method;
  };

  //===--------------------------------------------------------------------===//
  // Small emission helpers
  //===--------------------------------------------------------------------===//

  void line(const std::string &Text) { MainLines.push_back(Text); }

  std::string freshVar(const char *Prefix = "v") {
    return std::string(Prefix) + std::to_string(VarCounter++);
  }

  /// A key literal: string from the pool or a small int.
  std::string keyLit() {
    if (Rand.chance(0.75))
      return "\"" + Rand.pick(P.KeyPool) + "\"";
    return std::to_string(Rand.range(0, 9));
  }

  std::string argList(const std::vector<std::string> &Args) {
    std::string Out = "(";
    for (size_t I = 0; I < Args.size(); ++I) {
      if (I)
        Out += ", ";
      Out += Args[I];
    }
    return Out + ")";
  }

  /// Instantiates an API class: `new C()` or its producer call. Returns the
  /// variable holding the instance.
  std::string instantiate(const ApiClass &Class) {
    std::string Var = freshVar();
    if (Class.Constructible) {
      line("var " + Var + " = new " + Class.Name + "();");
      return Var;
    }
    std::vector<std::string> Args;
    for (unsigned I = 0; I < Class.ProducerArity; ++I)
      Args.push_back(keyLit());
    line("var " + Var + " = " + Class.ProducerVar + "." +
         Class.ProducerMethod + argList(Args) + ";");
    return Var;
  }

  /// Resolves a use-method's arity: first in the concept's own class, then
  /// uniquely across the registry (0 if unknown).
  unsigned useArity(const Concept &C, const std::string &Method) {
    if (const ApiClass *Own = P.Registry.findClass(C.Name))
      for (unsigned A = 0; A <= 3; ++A)
        if (Own->findMethod(Method, A))
          return A;
    for (unsigned A = 0; A <= 3; ++A)
      if (P.Registry.findUniqueMethod(Method, A))
        return A;
    return 0;
  }

  /// Produces a concept value via one of its producers; returns the variable
  /// and the concept. Returns false if no producible concept exists.
  bool produceValue(std::string &VarOut, const Concept *&ConceptOut,
                    const std::string *ForcedKey = nullptr) {
    std::vector<const Concept *> Producible;
    for (const Concept &C : P.Concepts)
      if (!C.Producers.empty())
        Producible.push_back(&C);
    if (Producible.empty())
      return false;
    const Concept *C = Rand.pick(Producible);
    const Concept::Producer &Prod = C->Producers[Rand.below(
        C->Producers.size())];
    std::vector<std::string> Args;
    for (unsigned I = 0; I < Prod.KeyArgs; ++I)
      Args.push_back(ForcedKey && I == 0 ? *ForcedKey : keyLit());
    std::string Var = freshVar();
    line("var " + Var + " = " + Prod.Var + "." + Prod.Method +
         argList(Args) + ";");
    VarOut = Var;
    ConceptOut = C;
    return true;
  }

  /// Uses a value: receiver-style use methods when the concept has them
  /// (bindable, chainable), otherwise a consume-once sink.
  void useValue(const std::string &Var, const Concept &C, unsigned Times,
                int Depth = 0) {
    if (!C.UseMethods.empty()) {
      for (unsigned T = 0; T < Times; ++T) {
        const std::string &Method = Rand.pick(C.UseMethods);
        unsigned Arity = useArity(C, Method);
        std::vector<std::string> Args;
        for (unsigned A = 0; A < Arity; ++A)
          Args.push_back(keyLit());
        std::string Call = Var + "." + Method + argList(Args);
        // Occasionally bind the result and keep using it (chains like
        // file.getParent().getName()).
        const ApiMethod *M = nullptr;
        if (const ApiClass *Own = P.Registry.findClass(C.Name))
          M = Own->findMethod(Method, Arity);
        if (!M)
          P.Registry.findUniqueMethod(Method, Arity, nullptr);
        const Concept *RetC =
            M && !M->ReturnsConcept.empty() ? P.findConcept(M->ReturnsConcept)
                                            : nullptr;
        if (Depth < 1 && RetC && !RetC->UseMethods.empty() &&
            Rand.chance(0.3)) {
          std::string Bound = freshVar();
          line("var " + Bound + " = " + Call + ";");
          useValue(Bound, *RetC, 1, Depth + 1);
        } else {
          line(Call + ";");
        }
      }
      return;
    }
    if (!C.Sinks.empty()) {
      auto [SinkVar, SinkMethod] = Rand.pick(C.Sinks);
      line(SinkVar + "." + SinkMethod + "(" + Var + ");");
    }
  }

  //===--------------------------------------------------------------------===//
  // Idioms
  //===--------------------------------------------------------------------===//

  void emitIdiom() {
    double Total = Cfg.WDirect + Cfg.WRoundtrip + Cfg.WGetter +
                   Cfg.WMutating + Cfg.WComplex;
    double Roll = Rand.real() * Total;
    if ((Roll -= Cfg.WDirect) < 0)
      return emitDirect();
    if ((Roll -= Cfg.WRoundtrip) < 0)
      return emitRoundtrip();
    if ((Roll -= Cfg.WGetter) < 0)
      return emitRepeatedGetter();
    if ((Roll -= Cfg.WMutating) < 0)
      return emitMutatingTrap();
    emitComplex();
  }

  void emitDirect() {
    std::string Var;
    const Concept *C = nullptr;
    std::string Key = keyLit();
    if (!produceValue(Var, C, &Key))
      return;
    useValue(Var, *C, 1 + static_cast<unsigned>(Rand.below(3)));
    // Repeat the same production with the same key: teaches the RetSame
    // shape for stateless producers.
    if (Rand.chance(0.4) && !C->Producers.empty()) {
      std::string Var2;
      const Concept *C2 = nullptr;
      if (produceValue(Var2, C2, &Key))
        useValue(Var2, *C2, 1);
    }
  }

  void emitRoundtrip() {
    if (P.Containers.empty())
      return emitDirect();
    const ContainerInfo &Container =
        P.Containers[Rand.below(P.Containers.size())];
    const ApiClass &Class = *Container.Class;
    const ApiMethod &Store = *Container.Store;
    if (!Class.Constructible && Class.ProducerVar.empty())
      return emitDirect();

    std::string Recv = instantiate(Class);

    // Keys for every non-value position.
    std::vector<std::string> Keys;
    for (unsigned I = 1; I <= Store.Arity; ++I)
      if (I != Store.StorePos)
        Keys.push_back(keyLit());

    // The stored value: a produced concept (80%) or a literal.
    std::string ValueVar;
    const Concept *ValueConcept = nullptr;
    if (!Rand.chance(0.2) && produceValue(ValueVar, ValueConcept)) {
      // produced above
    } else {
      ValueVar = keyLit();
      ValueConcept = nullptr;
    }

    // Store call with the value at StorePos.
    {
      std::vector<std::string> Args;
      size_t KeyIdx = 0;
      for (unsigned I = 1; I <= Store.Arity; ++I)
        Args.push_back(I == Store.StorePos ? ValueVar : Keys[KeyIdx++]);
      line(Recv + "." + Store.Name + argList(Args) + ";");
    }

    // A little unrelated churn between store and load.
    if (Rand.chance(Cfg.NoiseProb))
      emitNoise();

    // Load with matching keys (or a mismatch, as corpus noise).
    if (Store.PairedLoads.empty())
      return;
    const std::string &LoadName = Rand.pick(Store.PairedLoads);
    const ApiMethod *Load = Class.findMethod(LoadName, Store.Arity - 1);
    if (!Load)
      return;
    bool Match = Rand.chance(Cfg.KeyMatchProb);
    std::vector<std::string> LoadArgs;
    for (size_t I = 0; I < Keys.size(); ++I)
      LoadArgs.push_back(Match ? Keys[I] : keyLit());
    std::string Result = freshVar();
    line("var " + Result + " = " + Recv + "." + Load->Name +
         argList(LoadArgs) + ";");

    // Use the loaded value like the stored concept.
    if (ValueConcept) {
      if (Rand.chance(0.3)) {
        line("if (" + Result + " != null) {");
        MainLines.back() += " " + useInline(Result, *ValueConcept) + " }";
      } else {
        useValue(Result, *ValueConcept, 1 + Rand.below(2));
      }
    }
  }

  /// One inline use statement (for guarded one-liners).
  std::string useInline(const std::string &Var, const Concept &C) {
    if (!C.UseMethods.empty()) {
      const std::string &Method = Rand.pick(C.UseMethods);
      unsigned Arity = useArity(C, Method);
      std::vector<std::string> Args;
      for (unsigned A = 0; A < Arity; ++A)
        Args.push_back(keyLit());
      return Var + "." + Method + argList(Args) + ";";
    }
    if (!C.Sinks.empty()) {
      auto [SinkVar, SinkMethod] = Rand.pick(C.Sinks);
      return SinkVar + "." + SinkMethod + "(" + Var + ");";
    }
    return Var + ".touch();";
  }

  void emitRepeatedGetter() {
    if (Getters.empty())
      return emitDirect();
    const MethodRef &G = Getters[Rand.below(Getters.size())];
    std::string Recv = instantiate(*G.Class);
    std::vector<std::string> Args;
    for (unsigned I = 0; I < G.Method->Arity; ++I)
      Args.push_back(keyLit());
    const Concept *RetC = G.Method->ReturnsConcept.empty()
                              ? nullptr
                              : P.findConcept(G.Method->ReturnsConcept);

    unsigned Reads = 2 + Rand.below(2);
    for (unsigned I = 0; I < Reads; ++I) {
      std::string Var = freshVar();
      line("var " + Var + " = " + Recv + "." + G.Method->Name +
           argList(Args) + ";");
      // Reusing the result (people do) is the training signal that makes the
      // induced use->use edges of RetSame candidates familiar to the model.
      // Mostly one use, though: Alg. 1 only scores matches with a single
      // induced edge, i.e. single-use rets on both sides.
      if (RetC)
        useValue(Var, *RetC, Rand.chance(0.3) ? 2 : 1);
      if (Rand.chance(Cfg.NoiseProb * 0.5))
        emitNoise();
    }
    // Occasionally a differently-keyed read.
    if (G.Method->Arity > 0 && Rand.chance(0.4)) {
      std::vector<std::string> Other;
      for (unsigned I = 0; I < G.Method->Arity; ++I)
        Other.push_back(keyLit());
      std::string Var = freshVar();
      line("var " + Var + " = " + Recv + "." + G.Method->Name +
           argList(Other) + ";");
      if (RetC)
        useValue(Var, *RetC, 1);
    }
  }

  void emitMutatingTrap() {
    if (Mutators.empty())
      return emitDirect();
    const MethodRef &M = Mutators[Rand.below(Mutators.size())];
    std::string Recv;
    // Iterators come from collections.
    if (M.Class->Name == "Iterator") {
      std::string List = freshVar();
      line("var " + List + " = new ArrayList();");
      std::string Elem;
      const Concept *EC = nullptr;
      if (produceValue(Elem, EC))
        line(List + ".add(" + Elem + ");");
      Recv = freshVar("it");
      line("var " + Recv + " = " + List + ".iterator();");
      if (Rand.chance(0.5)) {
        // Loop form: while (it.hasNext()) { sink(it.next()); }
        std::string E = freshVar("e");
        line("while (" + Recv + ".hasNext()) {");
        MainLines.back() += " var " + E + " = " + Recv + ".next();";
        const Concept *Elc = P.findConcept("Elem");
        if (Elc && !Elc->Sinks.empty()) {
          auto [SV, SM] = Rand.pick(Elc->Sinks);
          MainLines.back() += " " + SV + "." + SM + "(" + E + ");";
        }
        MainLines.back() += " }";
        return;
      }
    } else {
      Recv = instantiate(*M.Class);
      // Seed containers before popping from them.
      if (M.Class->findMethod("append", 1)) {
        std::string V;
        const Concept *VC = nullptr;
        if (produceValue(V, VC))
          line(Recv + ".append(" + V + ");");
      }
    }
    const Concept *RetC = M.Method->ReturnsConcept.empty()
                              ? nullptr
                              : P.findConcept(M.Method->ReturnsConcept);
    unsigned Calls = 2;
    for (unsigned I = 0; I < Calls; ++I) {
      std::vector<std::string> Args;
      for (unsigned A = 0; A < M.Method->Arity; ++A)
        Args.push_back(keyLit());
      std::string Var = freshVar();
      line("var " + Var + " = " + Recv + "." + M.Method->Name +
           argList(Args) + ";");
      if (RetC)
        useValue(Var, *RetC, 1 + Rand.below(2));
    }
  }

  void emitComplex() {
    switch (Rand.below(4)) {
    case 0:
      return emitHelperPassthrough();
    case 1:
      return emitFieldCache();
    case 2:
      return emitFluentChain();
    default:
      return emitBranchStore();
    }
  }

  void emitFluentChain() {
    // Builder-style usage. Sequential calls on one variable teach the model
    // the receiver-continuation shape; chained calls (receiver = previous
    // return) are what the RetRecv pattern must explain.
    std::vector<MethodRef> Fluents;
    for (const ApiClass &C : P.Registry.classes()) {
      if (!C.Constructible)
        continue;
      for (const ApiMethod &M : C.Methods)
        if (M.Semantics == MethodSemantics::Fluent)
          Fluents.push_back({&C, &M});
    }
    if (Fluents.empty())
      return emitBranchStore();
    const MethodRef &F = Fluents[Rand.below(Fluents.size())];
    std::string Recv = instantiate(*F.Class);
    unsigned Calls = 2 + static_cast<unsigned>(Rand.below(2));
    if (Rand.chance(0.5)) {
      // Sequential style.
      for (unsigned I = 0; I < Calls; ++I) {
        std::vector<std::string> Args;
        for (unsigned A = 0; A < F.Method->Arity; ++A)
          Args.push_back(keyLit());
        line(Recv + "." + F.Method->Name + argList(Args) + ";");
      }
    } else {
      // Chained style.
      std::string Chain = Recv;
      for (unsigned I = 0; I < Calls; ++I) {
        std::vector<std::string> Args;
        for (unsigned A = 0; A < F.Method->Arity; ++A)
          Args.push_back(keyLit());
        Chain += "." + F.Method->Name + argList(Args);
      }
      line(Chain + ";");
    }
    // Finish the builder.
    if (const ApiMethod *Finish = F.Class->findMethod("toString", 0)) {
      std::string Out = freshVar();
      line("var " + Out + " = " + Recv + "." + Finish->Name + "();");
      if (const Concept *C = P.findConcept(Finish->ReturnsConcept))
        useValue(Out, *C, 1);
    }
  }

  void emitHelperPassthrough() {
    // A helper method fetches from a container; exercises inlining.
    if (P.Containers.empty())
      return emitDirect();
    const ContainerInfo &Container =
        P.Containers[Rand.below(P.Containers.size())];
    const ApiClass &Class = *Container.Class;
    const ApiMethod &Store = *Container.Store;
    if (!Class.Constructible || Store.Arity != 2 || Store.StorePos != 2 ||
        Store.PairedLoads.empty())
      return emitRoundtrip();
    const std::string &LoadName = Store.PairedLoads[0];
    if (!Class.findMethod(LoadName, 1))
      return emitRoundtrip();

    std::string HelperName = "Helper" + std::to_string(HelperCounter++);
    Helpers.push_back("class " + HelperName +
                      " {\n  def fetch(m, k) { return m." + LoadName +
                      "(k); }\n}\n");
    std::string Key = keyLit();
    std::string Recv = instantiate(Class);
    std::string ValueVar;
    const Concept *ValueConcept = nullptr;
    if (!produceValue(ValueVar, ValueConcept))
      return;
    line(Recv + "." + Store.Name + "(" + Key + ", " + ValueVar + ");");
    std::string H = freshVar("h");
    line("var " + H + " = new " + HelperName + "();");
    std::string Result = freshVar();
    line("var " + Result + " = " + H + ".fetch(" + Recv + ", " + Key + ");");
    useValue(Result, *ValueConcept, 1);
  }

  void emitFieldCache() {
    // Store a container in a field in one method, read it in main.
    if (P.Containers.empty())
      return emitDirect();
    const ContainerInfo &Container =
        P.Containers[Rand.below(P.Containers.size())];
    const ApiClass &Class = *Container.Class;
    const ApiMethod &Store = *Container.Store;
    if (!Class.Constructible || Store.Arity != 2 || Store.StorePos != 2 ||
        Store.PairedLoads.empty() || UsedFieldCache)
      return emitRoundtrip();
    const std::string &LoadName = Store.PairedLoads[0];
    if (!Class.findMethod(LoadName, 1))
      return emitRoundtrip();
    UsedFieldCache = true;

    std::string Key = keyLit();
    Fields.push_back("cache");
    ExtraMethods.push_back(
        "  def setup() {\n"
        "    var m = new " + Class.Name + "();\n"
        "    this.cache = m;\n"
        "  }\n");
    std::string ValueVar;
    const Concept *ValueConcept = nullptr;
    line("setup();");
    if (!produceValue(ValueVar, ValueConcept))
      return;
    std::string M = freshVar("m");
    line("var " + M + " = this.cache;");
    line(M + "." + Store.Name + "(" + Key + ", " + ValueVar + ");");
    std::string Result = freshVar();
    line("var " + Result + " = " + M + "." + LoadName + "(" + Key + ");");
    useValue(Result, *ValueConcept, 1);
  }

  void emitBranchStore() {
    if (P.Containers.empty())
      return emitDirect();
    const ContainerInfo &Container =
        P.Containers[Rand.below(P.Containers.size())];
    const ApiClass &Class = *Container.Class;
    const ApiMethod &Store = *Container.Store;
    if ((!Class.Constructible && Class.ProducerVar.empty()) ||
        Store.Arity != 2 || Store.StorePos != 2 || Store.PairedLoads.empty())
      return emitRoundtrip();
    const std::string &LoadName = Store.PairedLoads[0];
    if (!Class.findMethod(LoadName, 1))
      return emitRoundtrip();

    std::string Recv = instantiate(Class);
    std::string Key = keyLit();
    std::string V1, V2;
    const Concept *C1 = nullptr, *C2 = nullptr;
    if (!produceValue(V1, C1) || !produceValue(V2, C2))
      return;
    line("if (flag != null) { " + Recv + "." + Store.Name + "(" + Key + ", " +
         V1 + "); } else { " + Recv + "." + Store.Name + "(" + Key + ", " +
         V2 + "); }");
    std::string Result = freshVar();
    line("var " + Result + " = " + Recv + "." + LoadName + "(" + Key + ");");
    useValue(Result, *C1, 1);
  }

  void emitNoise() {
    switch (Rand.below(3)) {
    case 0:
      line(P.Name == "Java" ? "metrics.tick();" : "log.info(\"run\");");
      return;
    case 1:
      line(P.Name == "Java" ? "log.info(" + keyLit() + ");"
                            : "log.info(" + keyLit() + ");");
      return;
    default: {
      std::string Var;
      const Concept *C = nullptr;
      if (produceValue(Var, C))
        useValue(Var, *C, 1);
      return;
    }
    }
  }

  const LanguageProfile &P;
  const GeneratorConfig &Cfg;
  Rng &Rand;

  std::vector<std::string> MainLines;
  std::vector<std::string> Fields;
  std::vector<std::string> ExtraMethods;
  std::vector<std::string> Helpers;
  std::vector<MethodRef> Getters;
  std::vector<MethodRef> Mutators;
  int VarCounter = 0;
  int HelperCounter = 0;
  bool UsedFieldCache = false;
};

} // namespace

std::string uspec::generateProgramSource(const LanguageProfile &Profile,
                                         const GeneratorConfig &Config,
                                         Rng &Rand) {
  ProgramBuilder Builder(Profile, Config, Rand);
  return Builder.build();
}

GeneratedCorpus uspec::generateCorpus(const LanguageProfile &Profile,
                                      const GeneratorConfig &Config,
                                      StringInterner &Strings) {
  // Draw every source first (the RNG calls do not depend on lowering), then
  // lower the corpus in parallel; symbol ids are those of a serial loop.
  GeneratedCorpus Corpus;
  std::vector<std::string> Names;
  Rng Rand(Config.Seed);
  for (size_t I = 0; I < Config.NumPrograms; ++I) {
    if (!Corpus.Sources.empty() && Rand.chance(Config.DuplicateProb))
      Corpus.Sources.push_back(
          Corpus.Sources[Rand.below(Corpus.Sources.size())]);
    else
      Corpus.Sources.push_back(generateProgramSource(Profile, Config, Rand));
    Names.push_back(Profile.Name + "_prog" + std::to_string(I));
  }
  std::vector<LoweredSource> Lowered = lowerCorpus(
      Names,
      [&](size_t I, std::string &, std::string &) {
        return std::optional<std::string_view>(Corpus.Sources[I]);
      },
      Strings, /*Threads=*/0);
  size_t Kept = 0;
  for (size_t I = 0; I < Lowered.size(); ++I) {
    assert(Lowered[I].Program && "generated program failed to parse/lower");
    if (!Lowered[I].Program)
      continue;
    Corpus.TotalLines += Lowered[I].Program->SourceLines;
    Corpus.Programs.push_back(std::move(*Lowered[I].Program));
    if (Kept != I)
      Corpus.Sources[Kept] = std::move(Corpus.Sources[I]);
    ++Kept;
  }
  Corpus.Sources.resize(Kept);
  return Corpus;
}
