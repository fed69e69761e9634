//===- artifact_test.cpp - Tests for the USPB artifact store ------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// Covers the binary primitives, the USPB container, every typed codec, the
// checkpointed train → save → load → select(τ) pipeline (which must be
// byte-identical to the in-memory learn path), and robustness against
// truncated/mutated artifacts (which must fail with diagnostics, never UB).
//
//===----------------------------------------------------------------------===//

#include "artifact/Checkpoint.h"
#include "artifact/Container.h"
#include "corpus/Generator.h"
#include "corpus/Profiles.h"
#include "specs/SpecIO.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace uspec;

//===----------------------------------------------------------------------===//
// Binary primitives
//===----------------------------------------------------------------------===//

TEST(Binary, FixedWidthRoundTrip) {
  BinaryWriter W;
  W.writeU8(0xAB);
  W.writeU16(0xBEEF);
  W.writeU32(0xDEADBEEFu);
  W.writeU64(0x0123456789ABCDEFull);
  W.writeF32(3.5f);
  W.writeF64(-0.125);
  W.writeString("hello");
  W.writeString("");

  BinaryReader R(W.data(), "test");
  EXPECT_EQ(R.readU8(), 0xAB);
  EXPECT_EQ(R.readU16(), 0xBEEF);
  EXPECT_EQ(R.readU32(), 0xDEADBEEFu);
  EXPECT_EQ(R.readU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(R.readF32(), 3.5f);
  EXPECT_EQ(R.readF64(), -0.125);
  EXPECT_EQ(R.readString(), "hello");
  EXPECT_EQ(R.readString(), "");
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());
}

TEST(Binary, LittleEndianLayout) {
  BinaryWriter W;
  W.writeU32(0x01020304u);
  ASSERT_EQ(W.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(W.data()[0]), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(W.data()[3]), 0x01);
}

TEST(Binary, VarintRoundTrip) {
  const uint64_t Values[] = {0,     1,        127,         128,  16383,
                             16384, 1u << 20, 0xC0FFEEull, ~0ull};
  BinaryWriter W;
  for (uint64_t V : Values)
    W.writeVarint(V);
  BinaryReader R(W.data(), "test");
  for (uint64_t V : Values)
    EXPECT_EQ(R.readVarint(), V);
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());
}

TEST(Binary, TruncatedReadsFailWithoutUB) {
  BinaryWriter W;
  W.writeU32(42);
  std::string Bytes = W.take();
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    BinaryReader R(std::string_view(Bytes).substr(0, Len), "sec");
    R.readU32();
    EXPECT_FALSE(R.ok());
    EXPECT_EQ(R.error().Section, "sec");
    // Sticky: further reads keep failing and return zero.
    EXPECT_EQ(R.readU64(), 0u);
    EXPECT_FALSE(R.ok());
  }
}

TEST(Binary, TruncatedVarintFails) {
  std::string Bytes = "\xFF\xFF"; // two continuation bytes, then EOF
  BinaryReader R(Bytes, "sec");
  R.readVarint();
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.error().Message.find("varint"), std::string::npos);
}

TEST(Binary, OverlongVarintFails) {
  std::string Bytes(11, '\xFF'); // would encode > 64 bits
  BinaryReader R(Bytes, "sec");
  R.readVarint();
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.error().Message.find("overflow"), std::string::npos);
}

TEST(Binary, CountLimitEnforced) {
  BinaryWriter W;
  W.writeVarint(1000);
  BinaryReader R(W.data(), "sec");
  R.readCount(10, "thing");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.error().Message.find("exceeds limit"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Container
//===----------------------------------------------------------------------===//

namespace {

std::string smallContainer() {
  ArtifactWriter W;
  W.addSection("alpha", "first section payload");
  W.addSection("beta", std::string("\x00\x01\x02nul-safe", 11));
  W.addSection("gamma", "");
  return W.finish();
}

} // namespace

TEST(Container, RoundTrip) {
  std::string Bytes = smallContainer();
  ArtifactError Err;
  auto A = ArtifactReader::open(Bytes, &Err);
  ASSERT_TRUE(A.has_value()) << Err.str();
  EXPECT_EQ(A->version(), ArtifactFormatVersion);
  ASSERT_EQ(A->sections().size(), 3u);
  EXPECT_EQ(A->section("alpha"), "first section payload");
  EXPECT_EQ(A->section("beta")->size(), 11u);
  EXPECT_EQ(A->section("gamma"), "");
  EXPECT_FALSE(A->section("delta").has_value());
  EXPECT_TRUE(A->hasSection("beta"));
}

TEST(Container, RejectsBadMagic) {
  std::string Bytes = smallContainer();
  Bytes[0] = 'X';
  ArtifactError Err;
  EXPECT_FALSE(ArtifactReader::open(Bytes, &Err).has_value());
  EXPECT_NE(Err.Message.find("magic"), std::string::npos);
}

TEST(Container, RejectsVersionMismatch) {
  std::string Bytes = smallContainer();
  Bytes[4] = 99; // little-endian version low byte
  ArtifactError Err;
  EXPECT_FALSE(ArtifactReader::open(Bytes, &Err).has_value());
  EXPECT_NE(Err.Message.find("version"), std::string::npos);
  EXPECT_EQ(Err.Offset, 6u); // reported right after reading the u16
}

TEST(Container, DetectsPayloadCorruptionByName) {
  std::string Bytes = smallContainer();
  // Flip a byte inside the payload (the tail holds the section bytes).
  Bytes[Bytes.size() - 3] ^= 0x40;
  ArtifactError Err;
  EXPECT_FALSE(ArtifactReader::open(Bytes, &Err).has_value());
  EXPECT_NE(Err.Message.find("checksum mismatch"), std::string::npos);
  // The diagnostic names the corrupted section.
  EXPECT_NE(Err.Message.find("beta"), std::string::npos);
}

TEST(Container, TruncationAtEveryPrefixFailsCleanly) {
  std::string Bytes = smallContainer();
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    ArtifactError Err;
    auto A = ArtifactReader::open(std::string_view(Bytes).substr(0, Len),
                                  &Err);
    EXPECT_FALSE(A.has_value()) << "prefix " << Len;
    EXPECT_FALSE(Err.Message.empty());
  }
}

//===----------------------------------------------------------------------===//
// Typed codecs
//===----------------------------------------------------------------------===//

namespace {

MethodId mid(StringInterner &S, const char *Class, const char *Name,
             uint8_t Arity) {
  return {Class[0] == '?' && Class[1] == 0 ? Symbol() : S.intern(Class),
          S.intern(Name), Arity};
}

} // namespace

TEST(ArtifactIO, SpecSetRoundTripIncludingUnknownClass) {
  StringInterner S;
  SpecSet Specs;
  Specs.insert(Spec::retSame(mid(S, "Map", "get", 1)));
  Specs.insert(
      Spec::retArg(mid(S, "Map", "get", 1), mid(S, "Map", "put", 2), 2));
  Specs.insert(Spec::retSame(mid(S, "?", "getString", 1)));
  Specs.insert(Spec::retRecv(mid(S, "Builder", "append", 1)));

  SymbolTableBuilder Builder(S);
  std::string SpecBytes = encodeSpecSet(Specs, Builder);
  std::string TableBytes = Builder.encode();

  StringInterner S2;
  ArtifactError Err;
  auto Table = SymbolTable::decode(TableBytes, S2, &Err);
  ASSERT_TRUE(Table.has_value()) << Err.str();
  auto Loaded = decodeSpecSet(SpecBytes, *Table, &Err);
  ASSERT_TRUE(Loaded.has_value()) << Err.str();

  // Insertion order and content survive, so the text twin matches too.
  EXPECT_EQ(serializeSpecs(*Loaded, S2), serializeSpecs(Specs, S));
  EXPECT_TRUE(Loaded->hasRetSame({Symbol(), S2.intern("getString"), 1}));
}

TEST(ArtifactIO, SpecDecodeRejectsMalformed) {
  StringInterner S;
  SymbolTableBuilder Builder(S);
  BinaryWriter W;
  encodeSpec(W, Spec::retSame(mid(S, "Map", "get", 1)), Builder);
  std::string TableBytes = Builder.encode();

  StringInterner S2;
  auto Table = SymbolTable::decode(TableBytes, S2);
  ASSERT_TRUE(Table.has_value());

  {
    // Unknown kind byte.
    std::string Bad = W.data();
    Bad[0] = 7;
    BinaryReader R(Bad, "spec");
    decodeSpec(R, *Table);
    EXPECT_FALSE(R.ok());
    EXPECT_NE(R.error().Message.find("kind"), std::string::npos);
  }
  {
    // Out-of-range symbol id.
    BinaryWriter W2;
    W2.writeU8(0);         // RetSame
    W2.writeVarint(0);     // class ""
    W2.writeVarint(999);   // name: out of table range
    W2.writeU8(1);
    BinaryReader R(W2.data(), "spec");
    decodeSpec(R, *Table);
    EXPECT_FALSE(R.ok());
    EXPECT_NE(R.error().Message.find("out of range"), std::string::npos);
  }
}

TEST(ArtifactIO, ModelRoundTripPredictsIdentically) {
  EdgeModelConfig Cfg;
  Cfg.DimBits = 10;
  EdgeModel Model(Cfg);

  // Train on synthetic feature vectors across two position keys.
  Rng Rand(42);
  std::vector<TrainingSample> Samples;
  for (int I = 0; I < 200; ++I) {
    TrainingSample S;
    S.Features.PosKey = I % 2;
    for (int J = 0; J < 8; ++J)
      S.Features.Hashes.push_back(static_cast<uint32_t>(Rand.next()));
    S.Label = static_cast<float>(I % 3 == 0);
    Samples.push_back(std::move(S));
  }
  Model.train(Samples);
  ASSERT_EQ(Model.numModels(), 2u);

  ArtifactError Err;
  auto Loaded = decodeModel(encodeModel(Model), &Err);
  ASSERT_TRUE(Loaded.has_value()) << Err.str();
  EXPECT_EQ(Loaded->numModels(), Model.numModels());
  EXPECT_EQ(Loaded->config().DimBits, Cfg.DimBits);
  for (const TrainingSample &S : Samples)
    EXPECT_EQ(Loaded->predict(S.Features), Model.predict(S.Features));
  // Unseen position keys still fall back to 0.5.
  EdgeFeatures Unseen;
  Unseen.PosKey = 35;
  EXPECT_EQ(Loaded->predict(Unseen), 0.5);
}

TEST(ArtifactIO, CandidateTableRoundTrip) {
  StringInterner S;
  std::vector<ScoredCandidate> Candidates;
  ScoredCandidate A;
  A.S = Spec::retArg(mid(S, "Map", "get", 1), mid(S, "Map", "put", 2), 2);
  A.Score = 0.875;
  A.Matches = 41;
  A.Programs = 17;
  A.NumConfidences = 12;
  ScoredCandidate B;
  B.S = Spec::retSame(mid(S, "?", "next", 0));
  B.Score = 0.25;
  Candidates.push_back(A);
  Candidates.push_back(B);

  SymbolTableBuilder Builder(S);
  std::string Bytes = encodeCandidates(Candidates, Builder);
  std::string TableBytes = Builder.encode();

  StringInterner S2;
  auto Table = SymbolTable::decode(TableBytes, S2);
  ASSERT_TRUE(Table.has_value());
  ArtifactError Err;
  auto Loaded = decodeCandidates(Bytes, *Table, &Err);
  ASSERT_TRUE(Loaded.has_value()) << Err.str();
  ASSERT_EQ(Loaded->size(), 2u);
  EXPECT_EQ((*Loaded)[0].S.str(S2), A.S.str(S));
  EXPECT_EQ((*Loaded)[0].Score, 0.875);
  EXPECT_EQ((*Loaded)[0].Matches, 41u);
  EXPECT_EQ((*Loaded)[0].Programs, 17u);
  EXPECT_EQ((*Loaded)[0].NumConfidences, 12u);
  EXPECT_TRUE((*Loaded)[1].S.Target.Class.isEmpty());
}

TEST(ArtifactIO, ManifestRoundTripAndMatching) {
  CorpusManifest M;
  M.Entries.push_back({"a.mini", 0x1111});
  M.Entries.push_back({"b.mini", 0x2222});

  ArtifactError Err;
  auto Loaded = decodeManifest(encodeManifest(M), &Err);
  ASSERT_TRUE(Loaded.has_value()) << Err.str();
  EXPECT_EQ(*Loaded, M);
  EXPECT_TRUE(Loaded->sameCorpus(M));

  // Older builds could append a (varint, u64) provenance pair after the
  // generation; those manifests still decode, and the pair is discarded.
  M.Generation = 3;
  BinaryWriter Trailer;
  Trailer.writeVarint(4);
  Trailer.writeU64(0x0123456789abcdefULL);
  std::string Old = encodeManifest(M) + Trailer.take();
  auto FromOld = decodeManifest(Old, &Err);
  ASSERT_TRUE(FromOld.has_value()) << Err.str();
  EXPECT_EQ(*FromOld, M);
  EXPECT_EQ(FromOld->Generation, 3u);
  EXPECT_EQ(encodeManifest(*FromOld), encodeManifest(M));

  CorpusManifest Renamed = M;
  Renamed.Entries[0].Name = "c.mini"; // names are display-only
  EXPECT_TRUE(Renamed.sameCorpus(M));

  CorpusManifest Changed = M;
  Changed.Entries[1].Fingerprint = 0x3333;
  EXPECT_FALSE(Changed.sameCorpus(M));
  CorpusManifest Shorter = M;
  Shorter.Entries.pop_back();
  EXPECT_FALSE(Shorter.sameCorpus(M));
}

//===----------------------------------------------------------------------===//
// Checkpointed pipeline: train → save → load → select(τ) ≡ learn
//===----------------------------------------------------------------------===//

namespace {

struct Trained {
  StringInterner Strings;
  LearnerConfig Config;
  LearnResult Result;
  std::string Artifact;
};

std::unique_ptr<Trained> trainSmall(const LanguageProfile &Profile,
                                    uint64_t Seed, double Tau = 0.6) {
  auto T = std::make_unique<Trained>();
  GeneratorConfig GenCfg;
  GenCfg.NumPrograms = 40;
  GenCfg.Seed = Seed;
  GeneratedCorpus Corpus = generateCorpus(Profile, GenCfg, T->Strings);
  T->Config.Tau = Tau;
  T->Config.Seed = Seed ^ 0xABCDEFull;
  USpecLearner Learner(T->Strings, T->Config);
  T->Result = Learner.learn(Corpus.Programs);
  T->Artifact = Learner.saveArtifacts(T->Result);
  return T;
}

} // namespace

TEST(Checkpoint, SelectFromLoadedArtifactMatchesLearnAcrossSeedsAndProfiles) {
  const LanguageProfile Profiles[] = {javaProfile(), pythonProfile()};
  const uint64_t Seeds[] = {1, 7, 1234};
  for (const LanguageProfile &Profile : Profiles) {
    for (uint64_t Seed : Seeds) {
      auto T = trainSmall(Profile, Seed);
      ASSERT_FALSE(T->Result.Candidates.empty());

      StringInterner Loaded;
      ArtifactError Err;
      auto A = USpecLearner::loadArtifacts(T->Artifact, Loaded, &Err);
      ASSERT_TRUE(A.has_value())
          << Profile.Name << " seed " << Seed << ": " << Err.str();

      // Run statistics and config survive.
      EXPECT_EQ(A->Config.Tau, T->Config.Tau);
      EXPECT_EQ(A->Config.Seed, T->Config.Seed);
      EXPECT_EQ(A->Result.NumTrainingSamples, T->Result.NumTrainingSamples);
      EXPECT_EQ(A->Result.TrainAccuracy, T->Result.TrainAccuracy);
      EXPECT_EQ(A->Result.AddedByExtension, T->Result.AddedByExtension);
      EXPECT_EQ(A->Result.Model.numModels(), T->Result.Model.numModels());

      // Candidate table: same length, same scores/stats/specs (exact).
      ASSERT_EQ(A->Result.Candidates.size(), T->Result.Candidates.size());
      for (size_t I = 0; I < T->Result.Candidates.size(); ++I) {
        const ScoredCandidate &X = T->Result.Candidates[I];
        const ScoredCandidate &Y = A->Result.Candidates[I];
        EXPECT_EQ(X.S.str(T->Strings), Y.S.str(Loaded));
        EXPECT_EQ(X.Score, Y.Score);
        EXPECT_EQ(X.Matches, Y.Matches);
      }

      // The stored selected set is the learn path's, byte for byte.
      EXPECT_EQ(serializeSpecs(A->Result.Selected, Loaded),
                serializeSpecs(T->Result.Selected, T->Strings));

      // Re-selecting from loaded candidates at any τ matches the in-memory
      // pipeline's selection at that τ exactly (text twin included).
      for (double Tau : {0.0, 0.3, 0.6, 0.8, 0.95}) {
        SpecSet FromLoaded =
            USpecLearner::select(A->Result.Candidates, Tau, true);
        SpecSet FromMemory =
            USpecLearner::select(T->Result.Candidates, Tau, true);
        EXPECT_EQ(serializeSpecs(FromLoaded, Loaded),
                  serializeSpecs(FromMemory, T->Strings))
            << Profile.Name << " seed " << Seed << " tau " << Tau;
      }
    }
  }
}

TEST(Checkpoint, ManifestTravelsWithArtifact) {
  StringInterner Strings;
  GeneratorConfig GenCfg;
  GenCfg.NumPrograms = 10;
  GeneratedCorpus Corpus = generateCorpus(javaProfile(), GenCfg, Strings);
  LearnerConfig Cfg;
  USpecLearner Learner(Strings, Cfg);
  LearnResult Result = Learner.learn(Corpus.Programs);

  CorpusManifest Manifest;
  for (size_t I = 0; I < Corpus.Programs.size(); ++I)
    Manifest.Entries.push_back({"p" + std::to_string(I), 1000 + I});
  std::string Bytes = Learner.saveArtifacts(Result, &Manifest);

  StringInterner Loaded;
  auto A = USpecLearner::loadArtifacts(Bytes, Loaded);
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(A->Manifest, Manifest);
}

//===----------------------------------------------------------------------===//
// Robustness fuzzing: mutated/truncated artifacts must never crash
//===----------------------------------------------------------------------===//

TEST(ArtifactFuzz, TruncationAtEveryPrefixNeverCrashes) {
  auto T = trainSmall(javaProfile(), 99);
  const std::string &Bytes = T->Artifact;
  size_t Failures = 0;
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    StringInterner S;
    ArtifactError Err;
    auto A = USpecLearner::loadArtifacts(
        std::string_view(Bytes).substr(0, Len), S, &Err);
    if (!A) {
      ++Failures;
      EXPECT_FALSE(Err.Message.empty()) << "prefix " << Len;
    }
  }
  // Every strict prefix must be rejected: all sections are required and
  // any truncation breaks a checksum or the table bounds.
  EXPECT_EQ(Failures, Bytes.size());

  StringInterner S;
  EXPECT_TRUE(USpecLearner::loadArtifacts(Bytes, S).has_value());
}

TEST(ArtifactFuzz, RandomMutationsNeverCrash) {
  auto T = trainSmall(javaProfile(), 5);
  const std::string &Original = T->Artifact;
  Rng Rand(0xF422);
  size_t Rejected = 0, Accepted = 0;
  for (int Iter = 0; Iter < 500; ++Iter) {
    std::string Mutated = Original;
    size_t Flips = 1 + Rand.below(4);
    for (size_t F = 0; F < Flips; ++F) {
      size_t Pos = Rand.below(Mutated.size());
      Mutated[Pos] = static_cast<char>(Rand.next());
    }
    StringInterner S;
    ArtifactError Err;
    auto A = USpecLearner::loadArtifacts(Mutated, S, &Err);
    if (A) {
      // A no-op mutation (same byte value) can legitimately load; anything
      // else is caught by the section checksums.
      ++Accepted;
      EXPECT_EQ(Mutated, Original);
    } else {
      ++Rejected;
      EXPECT_FALSE(Err.Message.empty());
    }
  }
  EXPECT_GT(Rejected, 450u);
  (void)Accepted;
}

TEST(ArtifactFuzz, RandomGarbageNeverCrashes) {
  Rng Rand(0xBAD);
  for (int Iter = 0; Iter < 200; ++Iter) {
    std::string Garbage(Rand.below(512), '\0');
    for (char &C : Garbage)
      C = static_cast<char>(Rand.next());
    // Give half the inputs a valid magic so parsing goes deeper.
    if (Iter % 2 == 0 && Garbage.size() >= 4)
      Garbage.replace(0, 4, ArtifactMagic);
    StringInterner S;
    ArtifactError Err;
    EXPECT_FALSE(USpecLearner::loadArtifacts(Garbage, S, &Err).has_value());
  }
}
