//===- lowering_test.cpp - Parallel corpus front end determinism ----------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// lowerCorpus (ir/Lowering.h) lowers files on worker threads into scratch
// symbol tables, merges the names into the corpus interner in file order and
// remaps the programs. These tests pin its output to a serial parseAndLower
// loop kept here: interner contents, every Symbol id, disassembly,
// fingerprints and diagnostics, at 1, 2, 4 and 8 threads, from an empty and
// from a pre-filled interner (the journal warm-start path). The suite name
// starts with "CorpusLowering" so the TSan CI job picks it up.
//
//===----------------------------------------------------------------------===//

#include "corpus/Generator.h"
#include "corpus/Profiles.h"
#include "ir/Lowering.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace uspec;

namespace {

/// Generated programs of both profiles, exact duplicates, shared and unique
/// names, int/string literals, guards and loops, and between the good files
/// a parse failure, a lowering failure (which interns names before its
/// error) and an empty file.
std::vector<std::string> mixedSources() {
  std::vector<std::string> Sources;
  GeneratorConfig Cfg;
  Rng Rand(29);
  for (int I = 0; I < 12; ++I)
    Sources.push_back(generateProgramSource(
        I % 3 ? javaProfile() : pythonProfile(), Cfg, Rand));
  Sources.push_back(Sources[2]);
  Sources.push_back("class Main { def main() { var m = new Map(); "
                    "m.put(\"k\", 42); var a = m.get(\"k\"); } }");
  Sources.push_back("this is not minilang {");
  Sources.push_back("class OnlyInBad { def f() { var u = new FailName(); "
                    "u.put(\"only_in_bad\", 7); var u = 1; } }");
  Sources.push_back("");
  Sources.push_back(R"(
    class Box {
      var v;
      def init(x) { this.v = x; }
      def get() { return this.v; }
    }
    class Main {
      def main() {
        var b = new Box(new FailName());
        var i = 0;
        while (i < 3) { b.get(); i = 1; }
        if (b.get() == "s") { ext.call(5, "only_in_good"); }
        else { ext.other(b); }
      }
    })");
  Sources.push_back(Sources[0]);
  Sources.push_back("class Main { def main() { var x = ; } }");
  for (int I = 0; I < 7; ++I)
    Sources.push_back(generateProgramSource(javaProfile(), Cfg, Rand));
  return Sources;
}

std::vector<std::string> namesFor(size_t N) {
  std::vector<std::string> Names;
  for (size_t I = 0; I < N; ++I)
    Names.push_back("f" + std::to_string(I) + ".mini");
  return Names;
}

void collectIds(const InstrList &Body, std::vector<uint32_t> &Ids) {
  for (const Instr &I : Body) {
    Ids.push_back(I.Name.id());
    Ids.push_back(I.StrValue.id());
    collectIds(I.Inner1, Ids);
    collectIds(I.Inner2, Ids);
  }
}

/// Every Symbol id of \p P, in a fixed walk order.
std::vector<uint32_t> symbolIds(const IRProgram &P) {
  std::vector<uint32_t> Ids;
  for (const IRClass &C : P.Classes) {
    Ids.push_back(C.Name.id());
    for (Symbol F : C.Fields)
      Ids.push_back(F.id());
    for (const IRMethod &M : C.Methods) {
      Ids.push_back(M.Name.id());
      for (const auto &E : M.Externals)
        Ids.push_back(E.second.id());
      collectIds(M.Body, Ids);
    }
  }
  return Ids;
}

std::vector<std::string> contents(const StringInterner &Strings) {
  std::vector<std::string> All;
  for (size_t I = 0; I < Strings.size(); ++I)
    All.push_back(Strings.str(Symbol(static_cast<uint32_t>(I))));
  return All;
}

/// Names interned before the corpus, as a warm start's artifact decode
/// does: some the corpus uses, some it does not.
void prefill(StringInterner &Strings) {
  for (const char *S : {"get", "zz_unused", "Map", "42", "FailName", "k"})
    Strings.intern(S);
}

/// Lowers \p Sources with lowerCorpus at \p Threads and checks everything
/// against the serial loop.
void expectSerialResult(const std::vector<std::string> &Sources,
                        unsigned Threads, bool Prefill) {
  SCOPED_TRACE("threads=" + std::to_string(Threads) +
               (Prefill ? " prefilled" : ""));
  std::vector<std::string> Names = namesFor(Sources.size());

  StringInterner SerialStrings;
  if (Prefill)
    prefill(SerialStrings);
  std::vector<std::optional<IRProgram>> Serial;
  std::vector<std::string> SerialDiags;
  for (size_t I = 0; I < Sources.size(); ++I) {
    DiagnosticSink Diags;
    Serial.push_back(parseAndLower(Sources[I], Names[I], SerialStrings, Diags));
    SerialDiags.push_back(Serial.back() ? "" : Diags.render());
  }

  StringInterner Strings;
  if (Prefill)
    prefill(Strings);
  std::vector<LoweredSource> Lowered = lowerCorpus(
      Names,
      [&](size_t I, std::string &, std::string &) {
        return std::optional<std::string_view>(Sources[I]);
      },
      Strings, Threads);

  EXPECT_EQ(contents(Strings), contents(SerialStrings));
  ASSERT_EQ(Lowered.size(), Sources.size());
  size_t Good = 0;
  for (size_t I = 0; I < Sources.size(); ++I) {
    SCOPED_TRACE("file " + std::to_string(I));
    const LoweredSource &L = Lowered[I];
    EXPECT_FALSE(L.Unreadable);
    ASSERT_EQ(L.Program.has_value(), Serial[I].has_value());
    EXPECT_EQ(L.Error, SerialDiags[I]);
    if (!Serial[I]) {
      EXPECT_FALSE(L.Error.empty());
      continue;
    }
    ++Good;
    EXPECT_EQ(L.Program->Name, Names[I]);
    EXPECT_EQ(symbolIds(*L.Program), symbolIds(*Serial[I]));
    EXPECT_EQ(disassemble(*L.Program, Strings),
              disassemble(*Serial[I], SerialStrings));
    EXPECT_EQ(L.Fingerprint, programFingerprint(*Serial[I]));
    EXPECT_EQ(L.Fingerprint, programFingerprint(*L.Program));
  }
  EXPECT_EQ(Good, Sources.size() - 3);
}

} // namespace

TEST(CorpusLowering, MatchesSerialLoopAtEveryThreadCount) {
  std::vector<std::string> Sources = mixedSources();
  for (unsigned Threads : {1u, 2u, 4u, 8u})
    expectSerialResult(Sources, Threads, /*Prefill=*/false);
}

TEST(CorpusLowering, MatchesSerialLoopOnPrefilledInterner) {
  std::vector<std::string> Sources = mixedSources();
  for (unsigned Threads : {1u, 2u, 4u, 8u})
    expectSerialResult(Sources, Threads, /*Prefill=*/true);
}

TEST(CorpusLowering, DuplicateProgramsShareFingerprints) {
  std::vector<std::string> Sources = mixedSources();
  std::vector<std::string> Names = namesFor(Sources.size());
  StringInterner Strings;
  std::vector<LoweredSource> Lowered = lowerCorpus(
      Names,
      [&](size_t I, std::string &, std::string &) {
        return std::optional<std::string_view>(Sources[I]);
      },
      Strings, 4);
  // mixedSources repeats file 2 at 12 and file 0 at 18.
  EXPECT_EQ(Lowered[12].Fingerprint, Lowered[2].Fingerprint);
  EXPECT_EQ(Lowered[18].Fingerprint, Lowered[0].Fingerprint);
  EXPECT_NE(Lowered[0].Fingerprint, Lowered[2].Fingerprint);
}

TEST(CorpusLowering, UnreadableInputsInternNothing) {
  // Odd inputs "cannot be read"; the others are read into the worker's
  // buffer, which is reused from file to file.
  std::vector<std::string> Sources = mixedSources();
  std::vector<std::string> Names = namesFor(Sources.size());
  auto ReadEven = [&](size_t I, std::string &Buffer,
                      std::string &Error) -> std::optional<std::string_view> {
    if (I % 2) {
      Error = "cannot read " + Names[I];
      return std::nullopt;
    }
    Buffer = Sources[I];
    return Buffer;
  };
  StringInterner Serial;
  for (size_t I = 0; I < Sources.size(); I += 2) {
    DiagnosticSink Diags;
    parseAndLower(Sources[I], Names[I], Serial, Diags);
  }
  for (unsigned Threads : {1u, 4u}) {
    StringInterner Strings;
    std::vector<LoweredSource> Lowered =
        lowerCorpus(Names, ReadEven, Strings, Threads);
    EXPECT_EQ(contents(Strings), contents(Serial)) << Threads;
    for (size_t I = 1; I < Sources.size(); I += 2) {
      EXPECT_TRUE(Lowered[I].Unreadable);
      EXPECT_FALSE(Lowered[I].Program);
      EXPECT_EQ(Lowered[I].Error, "cannot read " + Names[I]);
    }
  }
}

TEST(CorpusLowering, EmptyCorpus) {
  StringInterner Strings;
  std::vector<LoweredSource> Lowered = lowerCorpus(
      {}, [](size_t, std::string &, std::string &) {
        return std::optional<std::string_view>();
      },
      Strings, 4);
  EXPECT_TRUE(Lowered.empty());
  EXPECT_EQ(Strings.size(), 1u);
}
