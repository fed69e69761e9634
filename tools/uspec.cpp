//===- uspec.cpp - The USpec command-line tool ----------------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// Subcommands:
//
//   uspec gen     --profile java|python -n N -o DIR [--seed S]
//       Write a synthetic corpus of MiniLang files into DIR.
//
//   uspec learn   FILES... [-o specs.txt] [--tau X] [--seed S]
//       Learn aliasing specifications from MiniLang files and write them in
//       the SpecIO text format (stdout when -o is omitted). Prints the
//       scored candidate list to stderr.
//
//   uspec train   FILES... -o run.uspb [--tau X] [--seed S] [--resume]
//       Run the same pipeline but checkpoint everything up to τ-selection
//       (model ϕ, scored candidates, selected set, corpus manifest) into a
//       USPB artifact for `uspec select` / `uspec analyze --model`. The
//       artifact is written crash-safely (temp + fsync + atomic rename);
//       --resume discards any stale temp from an interrupted run and skips
//       retraining when the artifact already matches the corpus/tau/seed.
//
//   uspec ingest  FILES... -j corpus.uspj
//       Append MiniLang files to an append-only corpus journal. Every file
//       is parse-validated first; a rotten file aborts the batch and the
//       journal on disk is untouched (all-or-nothing append through the
//       same temp + fsync + rename path artifacts use). One invocation
//       appends one generation.
//
//   uspec train   --journal corpus.uspj -o run.uspb [--replay] [...]
//       Journal-driven training (DESIGN.md §12): reads how far the
//       artifact at -o got (its "jrnl" lineage section), trains only the
//       new journal suffix warm-starting ϕ from the prior model, and
//       reports a quantified spec-level diff. --replay forces a full
//       retrain over the whole journal — byte-identical to training the
//       same corpus from scratch with the same seed. Any lineage/config
//       mismatch demotes warm to full with a printed note.
//
//   uspec select  run.uspb [--tau X] [-o specs.txt]
//       Re-select specifications from a training artifact at threshold τ
//       (the training τ when omitted) without retraining. Emits exactly the
//       text `uspec learn --tau X` would emit for the same corpus and seed.
//
//   uspec info    run.uspb
//       Show an artifact's sections, sizes, training statistics and (for
//       journal-trained artifacts) the journal lineage.
//
//   uspec analyze FILE [--specs specs.txt | --model run.uspb] [--coverage]
//                 [--dot out.dot] [--json]
//       Run the may-alias analysis on FILE (API-aware when --specs or
//       --model is given), print aliasing call-site pairs, optionally dump
//       the event graph in Graphviz format. --json emits the machine-
//       readable payload of the query service (byte-identical to what
//       `uspec serve` answers for the same program and artifact).
//
//   uspec serve   [--model run.uspb | --specs specs.txt] [--workers N]
//                 [--queue N] [--cache N] [--socket PATH]
//                 [--request-timeout MS] [--step-budget N]
//                 [--trace t.json] [--slow-ms N]
//       Run the resident query service: load the specs once, then answer
//       newline-delimited JSON requests over stdin/stdout (default) or a
//       Unix-domain socket. --request-timeout sets the default per-request
//       deadline (a request's own "deadline_ms" wins); --step-budget bounds
//       analysis work per request (exhaustion degrades to a sound "bounded"
//       payload). --slow-ms logs requests slower than N ms to stderr;
//       --trace records spans (DESIGN.md §11). See DESIGN.md §9–10 for the
//       protocol and fault model. In socket mode SIGHUP (or the `reload`
//       verb) hot-swaps the model from --model without dropping requests.
//
//   uspec query   --socket PATH [--retries N] [--retry-seed S]
//                 [--trace-id ID]
//                 (analyze FILE [--coverage] | alias FILE A B
//                 | typestate FILE CHECK USE | taint FILE [--source M]...
//                 [--sink M]... [--sanitizer M]... | specs | cachekeys
//                 | stats | metrics | reload [ARTIFACT] | shutdown
//                 | --json REQUEST)
//       One-shot client for a running `uspec serve --socket` or `uspec
//       route` instance, on the shared line client (service/LineConn.h)
//       with one connection kept across retries. Prints the result
//       payload (byte-identical to `analyze --json` for the analyze
//       verb); errors go to stderr with exit 1. --retries N
//       retries transient failures (connection errors, `overloaded`) with
//       deterministic seeded exponential backoff.
//
//   uspec route   --socket PATH --replicas SOCK1,SOCK2,... [--vnodes N]
//                 [--supervise] [--respawn-cmd CMD | --model PATH]
//                 [--probe-interval-ms N] [--respawn-seed S]
//                 [--hedge-ms N | --hedge-auto] [--warm-keys K]
//       Self-healing consistent-hash router over N `uspec serve --socket`
//       replicas: program-carrying verbs go to the ring owner of the
//       program text, stats/metrics fan out and aggregate, reload
//       broadcasts, and a dead replica answers `replica_down` (transient
//       for `query --retries`) with deterministic ring-walk failover.
//       --supervise probes each replica every --probe-interval-ms and
//       respawns dead ones (via CMD with `{socket}` substituted, or a
//       synthesized `uspec serve` line when --model is given) with
//       deterministic seeded backoff; a recovered replica rejoins the ring
//       only after a successful probe + warm-cache replay. --hedge-ms (or
//       --hedge-auto, p95-derived) fires slow requests at the next ring
//       owner too and takes the first answer — byte-identical either way;
//       the hedge carries no_cache so caches don't bleed. --warm-keys K
//       bounds the per-replica hot-request LRU replayed on rejoin/reload.
//
//   uspec obs     stitch OUT.json SHARD... | top --socket PATH [--watch]
//                 | events FILE [--follow] [--type T]
//       Fleet observability (DESIGN.md §16). `stitch` merges per-process
//       Chrome-trace shards into one Perfetto-loadable trace: shards are
//       aligned onto the shared steady-clock timeline via their uspecBaseNs
//       epoch, every pid gets process_name metadata, and flow events link
//       router forwards to the replica request spans that carry the same
//       trace id. `top` renders a one-shot (or --watch, refreshing) fleet
//       summary from a router or serve socket. `events` prints a
//       structured event log (`serve`/`route --events`, or USPEC_EVENTS in
//       any subcommand), optionally filtered by --type and tailed by
//       --follow.
//
//   uspec check   FILES...
//       Parse and lower files, reporting diagnostics.
//
// Unknown subcommands and unknown flags name the offending token and exit
// with status 2.
//
//===----------------------------------------------------------------------===//

#include "artifact/Checkpoint.h"
#include "artifact/Container.h"
#include "core/USpec.h"
#include "corpus/Dedup.h"
#include "corpus/Generator.h"
#include "corpus/Profiles.h"
#include "distrib/Router.h"
#include "eventgraph/Dot.h"
#include "incremental/Journal.h"
#include "incremental/Trainer.h"
#include "service/LineConn.h"
#include "service/Server.h"
#include "specs/SpecIO.h"
#include "support/EventLog.h"
#include "support/ParallelFor.h"
#include "support/Trace.h"

#include <cerrno>
#include <string_view>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace uspec;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  uspec gen --profile java|python -n N -o DIR [--seed S]\n"
      "  uspec learn FILES... [-o specs.txt] [--tau X] [--seed S] [--dedup]\n"
      "              [--threads N] [--stats] [--strict] [--step-budget N]\n"
      "              [--trace t.json]\n"
      "  uspec train FILES... -o run.uspb [--tau X] [--seed S] [--dedup]\n"
      "              [--threads N] [--stats] [--strict] [--step-budget N]\n"
      "              [--resume] [--trace t.json]\n"
      "  uspec train --journal corpus.uspj -o run.uspb [--replay]\n"
      "              [--tau X] [--seed S] [--threads N] [--stats]\n"
      "              [--step-budget N] [--trace t.json]\n"
      "  uspec route --socket PATH --replicas SOCK1,SOCK2,...\n"
      "              [--vnodes N] [--supervise]\n"
      "              [--respawn-cmd CMD | --model run.uspb]\n"
      "              [--probe-interval-ms N] [--respawn-seed S]\n"
      "              [--hedge-ms N | --hedge-auto] [--warm-keys K]\n"
      "  uspec ingest FILES... -j corpus.uspj\n"
      "  uspec select run.uspb [--tau X] [-o specs.txt]\n"
      "  uspec info run.uspb\n"
      "  uspec analyze FILE [--specs specs.txt | --model run.uspb]\n"
      "               [--coverage] [--dot out] [--json] [--trace t.json]\n"
      "  uspec serve [--model run.uspb | --specs specs.txt] [--workers N]\n"
      "              [--queue N] [--cache N] [--socket PATH]\n"
      "              [--request-timeout MS] [--step-budget N]\n"
      "              [--trace t.json] [--slow-ms N]\n"
      "  uspec query --socket PATH [--retries N] [--trace-id ID]\n"
      "              VERB [ARGS...]\n"
      "  uspec obs stitch OUT.json SHARD...\n"
      "  uspec obs top --socket PATH [--watch] [--interval-ms N]\n"
      "  uspec obs events FILE [--follow] [--type T]\n"
      "  uspec check FILES...\n"
      "(USPEC_TRACE=t.json arms --trace for any subcommand;\n"
      " USPEC_EVENTS=e.jsonl arms --events the same way; serve and route\n"
      " also take --events FILE directly)\n");
  return 2;
}

/// Unknown flag / stray positional: name the offending token and exit 2
/// (never silently fall through to the generic usage text).
int unknownToken(const char *Cmd, const char *Token) {
  std::fprintf(stderr, "error: unknown %s '%s' for 'uspec %s'\n",
               Token[0] == '-' ? "option" : "argument", Token, Cmd);
  usage();
  return 2;
}

/// An option that expects a value hit the end of the argument list.
int missingValue(const char *Cmd, const char *Opt) {
  std::fprintf(stderr, "error: option '%s' for 'uspec %s' requires a value\n",
               Opt, Cmd);
  return 2;
}

/// Reads the whole file at \p Path into \p Out (binary-safe), reusing its
/// capacity: one open, one fstat, then sized reads up to end of file. On
/// failure sets \p Err to "cannot read PATH: <OS error>" and returns false;
/// a directory fails with EISDIR.
bool readFileInto(const std::string &Path, std::string &Out,
                  std::string &Err) {
  auto Fail = [&](int Errno) {
    Err = "cannot read " + Path + ": " + std::strerror(Errno);
    Out.clear();
    return false;
  };
  int Fd;
  do
    Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  while (Fd < 0 && errno == EINTR);
  if (Fd < 0)
    return Fail(errno);
  struct stat St;
  size_t Size = ::fstat(Fd, &St) == 0 && S_ISREG(St.st_mode)
                    ? static_cast<size_t>(St.st_size)
                    : 0;
  // One byte of slack, so a file that did not grow is read to its end
  // (read() == 0) without resizing.
  Out.resize(Size + 1);
  size_t Len = 0;
  for (;;) {
    if (Len == Out.size())
      Out.resize(std::max<size_t>(Out.size() * 2, 4096));
    ssize_t Got = ::read(Fd, Out.data() + Len, Out.size() - Len);
    if (Got < 0) {
      if (errno == EINTR)
        continue;
      int Errno = errno;
      ::close(Fd);
      return Fail(Errno);
    }
    if (Got == 0)
      break;
    Len += static_cast<size_t>(Got);
  }
  ::close(Fd);
  Out.resize(Len);
  return true;
}

/// Reads a whole file (binary-safe); on failure prints the path and the OS
/// error and returns nullopt.
std::optional<std::string> readFile(const std::string &Path) {
  std::string Out, Err;
  if (!readFileInto(Path, Out, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return std::nullopt;
  }
  return Out;
}

/// Writes a whole file (binary-safe); on failure prints the path and the OS
/// error.
bool writeFile(const std::string &Path, const std::string &Content) {
  errno = 0;
  std::ofstream Out(Path, std::ios::binary);
  if (Out)
    Out << Content;
  if (Out)
    Out.flush();
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s: %s\n", Path.c_str(),
                 errno ? std::strerror(errno) : "I/O error");
    return false;
  }
  return true;
}

/// Parses a floating-point option value; rejects empty or partial parses so
/// `--tau banana` errors instead of silently becoming 0.
bool parseDouble(const char *Opt, const char *V, double &Out) {
  char *End = nullptr;
  Out = std::strtod(V, &End);
  if (End == V || *End) {
    std::fprintf(stderr, "error: %s expects a number, got '%s'\n", Opt, V);
    return false;
  }
  return true;
}

/// Same for unsigned integer option values (-n, --seed).
bool parseUInt(const char *Opt, const char *V, uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(V, &End, 10);
  if (End == V || *End) {
    std::fprintf(stderr, "error: %s expects an unsigned integer, got '%s'\n",
                 Opt, V);
    return false;
  }
  return true;
}

/// Simple argument cursor.
struct Args {
  int Argc;
  char **Argv;
  int Pos = 2;

  const char *next() { return Pos < Argc ? Argv[Pos++] : nullptr; }
  bool has() const { return Pos < Argc; }
};

int cmdGen(Args &A) {
  std::string ProfileName = "java", OutDir;
  size_t N = 100;
  uint64_t Seed = 1;
  while (const char *Arg = A.next()) {
    if (!std::strcmp(Arg, "--profile")) {
      const char *V = A.next();
      if (!V)
        return missingValue("gen", Arg);
      ProfileName = V;
    } else if (!std::strcmp(Arg, "-n")) {
      const char *V = A.next();
      if (!V)
        return missingValue("gen", Arg);
      uint64_t Val = 0;
      if (!parseUInt("-n", V, Val))
        return 2;
      N = Val;
    } else if (!std::strcmp(Arg, "-o")) {
      const char *V = A.next();
      if (!V)
        return missingValue("gen", Arg);
      OutDir = V;
    } else if (!std::strcmp(Arg, "--seed")) {
      const char *V = A.next();
      if (!V)
        return missingValue("gen", Arg);
      if (!parseUInt("--seed", V, Seed))
        return 2;
    } else {
      return unknownToken("gen", Arg);
    }
  }
  if (OutDir.empty())
    return usage();
  LanguageProfile Profile =
      ProfileName == "python" ? pythonProfile() : javaProfile();
  std::filesystem::create_directories(OutDir);
  GeneratorConfig Cfg;
  Rng Rand(Seed);
  for (size_t I = 0; I < N; ++I) {
    std::string Source = generateProgramSource(Profile, Cfg, Rand);
    std::string Path =
        OutDir + "/prog" + std::to_string(I) + ".mini";
    if (!writeFile(Path, Source))
      return 1;
  }
  std::fprintf(stderr, "wrote %zu %s programs to %s\n", N,
               Profile.Name.c_str(), OutDir.c_str());
  return 0;
}

/// Parses + lowers \p Files on \p Threads workers (ir/Lowering.h
/// lowerCorpus, each file read inside its worker's task); also records one
/// manifest entry per program. By default a file that cannot be read or
/// parsed is *quarantined*: it is reported on stderr, recorded in
/// \p Quarantined (by its index in \p Files) and never enters the corpus or
/// manifest, so one rotten file cannot sink a whole training run. \p Strict
/// restores the old abort-on-first-error behavior (`learn/train --strict`).
/// Diagnostics are printed in file order, whatever the thread count.
bool loadCorpus(const std::vector<std::string> &Files, StringInterner &Strings,
                std::vector<IRProgram> &Corpus, CorpusManifest &Manifest,
                bool Strict, std::vector<QuarantineRecord> &Quarantined,
                unsigned Threads) {
  std::vector<LoweredSource> Lowered = lowerCorpus(
      Files,
      [&](size_t I, std::string &Buffer,
          std::string &Err) -> std::optional<std::string_view> {
        if (!readFileInto(Files[I], Buffer, Err))
          return std::nullopt;
        return Buffer;
      },
      Strings, Threads);
  Corpus.reserve(Files.size());
  for (size_t I = 0; I < Files.size(); ++I) {
    const std::string &Path = Files[I];
    LoweredSource &L = Lowered[I];
    if (L.Unreadable) {
      std::fprintf(stderr, "error: %s\n", L.Error.c_str());
      if (Strict)
        return false;
      std::fprintf(stderr, "warning: quarantined %s (unreadable)\n",
                   Path.c_str());
      Quarantined.push_back({I, Path, "read"});
      continue;
    }
    if (!L.Program) {
      std::fprintf(stderr, "%s:\n%s", Path.c_str(), L.Error.c_str());
      if (Strict)
        return false;
      std::fprintf(stderr, "warning: quarantined %s (parse error)\n",
                   Path.c_str());
      Quarantined.push_back({I, Path, "parse"});
      continue;
    }
    Manifest.Entries.push_back({Path, L.Fingerprint});
    Corpus.push_back(std::move(*L.Program));
  }
  if (Corpus.empty()) {
    std::fprintf(stderr, "error: no loadable programs in the corpus\n");
    return false;
  }
  return true;
}

/// Frees the corpus slot by slot on \p Threads workers, like learn()'s
/// `learn.release`, instead of in one thread's destructors at exit.
void releaseCorpus(std::vector<IRProgram> &Corpus, unsigned Threads) {
  TraceSpan Span("cli.release");
  if (Span.active())
    Span.arg("programs", std::to_string(Corpus.size()));
  parallelFor(Corpus.size(), Threads,
              [&](size_t I) { Corpus[I] = IRProgram(); });
  std::vector<IRProgram>().swap(Corpus);
}

/// Prints the per-run summary + candidate table to stderr (shared by
/// learn/train/select so their diagnostics line up).
void printCandidates(const StringInterner &Strings, size_t NumPrograms,
                     const std::vector<ScoredCandidate> &Candidates,
                     size_t NumSelected, double Tau) {
  std::fprintf(stderr, "%zu programs, %zu candidates, %zu selected "
               "(tau=%.2f)\n",
               NumPrograms, Candidates.size(), NumSelected, Tau);
  for (const ScoredCandidate &C : Candidates)
    std::fprintf(stderr, "  %-55s %.3f (%zu matches)\n",
                 C.S.str(Strings).c_str(), C.Score, C.Matches);
}

/// Shared implementation of `learn` (text specs out) and `train` (USPB
/// artifact out).
int cmdLearnOrTrain(Args &A, bool Train) {
  std::vector<std::string> Files;
  std::string OutPath, TracePath, JournalPath;
  double Tau = 0.6;
  uint64_t Seed = 0xC0FFEE;
  uint64_t Threads = 0; // 0 = hardware concurrency
  uint64_t StepBudget = 0;
  bool Dedup = false, Stats = false, Strict = false, Resume = false;
  bool Replay = false;
  const char *Cmd = Train ? "train" : "learn";
  while (const char *Arg = A.next()) {
    if (!std::strcmp(Arg, "--dedup")) {
      Dedup = true;
    } else if (!std::strcmp(Arg, "--stats")) {
      Stats = true;
    } else if (!std::strcmp(Arg, "--strict")) {
      Strict = true;
    } else if (Train && !std::strcmp(Arg, "--resume")) {
      Resume = true;
    } else if (Train && !std::strcmp(Arg, "--journal")) {
      const char *V = A.next();
      if (!V)
        return missingValue(Cmd, Arg);
      JournalPath = V;
    } else if (Train && !std::strcmp(Arg, "--replay")) {
      Replay = true;
    } else if (!std::strcmp(Arg, "--trace")) {
      const char *V = A.next();
      if (!V)
        return missingValue(Cmd, Arg);
      TracePath = V;
    } else if (!std::strcmp(Arg, "--step-budget")) {
      const char *V = A.next();
      if (!V)
        return missingValue(Cmd, Arg);
      if (!parseUInt("--step-budget", V, StepBudget))
        return 2;
    } else if (!std::strcmp(Arg, "--threads")) {
      const char *V = A.next();
      if (!V)
        return missingValue(Cmd, Arg);
      if (!parseUInt("--threads", V, Threads))
        return 2;
    } else if (!std::strcmp(Arg, "-o")) {
      const char *V = A.next();
      if (!V)
        return missingValue(Cmd, Arg);
      OutPath = V;
    } else if (!std::strcmp(Arg, "--tau")) {
      const char *V = A.next();
      if (!V)
        return missingValue(Cmd, Arg);
      if (!parseDouble("--tau", V, Tau))
        return 2;
    } else if (!std::strcmp(Arg, "--seed")) {
      const char *V = A.next();
      if (!V)
        return missingValue(Cmd, Arg);
      if (!parseUInt("--seed", V, Seed))
        return 2;
    } else if (Arg[0] == '-' && Arg[1] != '\0') {
      return unknownToken(Cmd, Arg);
    } else {
      Files.push_back(Arg);
    }
  }
  if (Files.empty() && JournalPath.empty())
    return usage();
  if (Train && OutPath.empty()) {
    std::fprintf(stderr, "error: train requires -o ARTIFACT\n");
    return usage();
  }
  if (!JournalPath.empty()) {
    if (!Files.empty())
      return unknownToken(Cmd, Files.front().c_str());
    if (Dedup || Strict || Resume) {
      std::fprintf(stderr, "error: --journal is incompatible with --dedup, "
                           "--strict and --resume (entries are validated at "
                           "ingest; lineage replaces --resume)\n");
      return 2;
    }
  } else if (Replay) {
    std::fprintf(stderr, "error: --replay requires --journal\n");
    return 2;
  }
  if (!TracePath.empty()) {
    std::string Err;
    if (!trace::startToFile(TracePath, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
  }

  if (!JournalPath.empty()) {
    incremental::CorpusJournal J;
    std::string Err;
    if (!incremental::loadJournal(JournalPath, J, /*MissingOk=*/false,
                                  &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    // The artifact at -o anchors the lineage: its "jrnl" section records how
    // far a previous run trained. Absent just means a full run; unreadable
    // bytes demote to full inside trainFromJournal.
    std::string PrevBytes;
    std::error_code Ec;
    if (std::filesystem::exists(OutPath, Ec)) {
      auto Bytes = readFile(OutPath);
      if (!Bytes)
        return 1;
      PrevBytes = std::move(*Bytes);
    }
    StringInterner Strings;
    LearnerConfig Cfg;
    Cfg.Tau = Tau;
    Cfg.Seed = Seed;
    Cfg.Threads = static_cast<unsigned>(Threads);
    Cfg.ProgramStepBudget = StepBudget;
    auto Outcome = incremental::trainFromJournal(J, Cfg, Strings, PrevBytes,
                                                 Replay, &Err);
    if (!Outcome) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    for (const std::string &Note : Outcome->Notes)
      std::fprintf(stderr, "note: %s\n", Note.c_str());
    if (Outcome->Mode == incremental::TrainMode::UpToDate) {
      std::fprintf(stderr,
                   "%s is up to date with %s (generation %llu, %zu entries); "
                   "nothing to train\n",
                   OutPath.c_str(), JournalPath.c_str(),
                   static_cast<unsigned long long>(J.lastGeneration()),
                   J.Entries.size());
      return 0;
    }
    printCandidates(Strings, J.Entries.size(), Outcome->Result.Candidates,
                    Outcome->Result.Selected.size(), Tau);
    if (Stats)
      std::fprintf(stderr, "%s\n", Outcome->Result.Stats.json().c_str());
    // Warm runs quantify the spec-level change against the prior artifact
    // (the byte-identity contract belongs to --replay, not warm-start).
    if (!Outcome->DiffJson.empty())
      std::fprintf(stderr, "diff: %s\n", Outcome->DiffJson.c_str());
    std::string WriteErr;
    if (!writeFileAtomic(OutPath,
                         saveLearnArtifacts(Outcome->Result, Cfg, Strings,
                                            Outcome->Manifest,
                                            &Outcome->Lineage,
                                            &Outcome->Result.Ledger),
                         &WriteErr)) {
      std::fprintf(stderr, "error: %s\n", WriteErr.c_str());
      return 1;
    }
    std::fprintf(
        stderr,
        "wrote artifact %s (%s, %zu of %zu journal entries trained this "
        "run, generation %llu)\n",
        OutPath.c_str(),
        std::string(incremental::trainModeName(Outcome->Mode)).c_str(),
        Outcome->ProgramsTrained, J.Entries.size(),
        static_cast<unsigned long long>(Outcome->Lineage.Generation));
    return 0;
  }

  StringInterner Strings;
  std::vector<IRProgram> Corpus;
  CorpusManifest Manifest;
  std::vector<QuarantineRecord> ParseQuarantine;
  if (!loadCorpus(Files, Strings, Corpus, Manifest, Strict, ParseQuarantine,
                  static_cast<unsigned>(Threads)))
    return 1;

  if (Dedup) {
    // The manifest already holds every program's fingerprint.
    std::vector<uint64_t> Fingerprints;
    Fingerprints.reserve(Manifest.Entries.size());
    for (const CorpusManifest::Entry &E : Manifest.Entries)
      Fingerprints.push_back(E.Fingerprint);
    std::vector<size_t> Dups = duplicateIndices(Fingerprints);
    eraseIndices(Corpus, Dups);
    eraseIndices(Manifest.Entries, Dups);
    std::fprintf(stderr, "dedup: removed %zu duplicate program(s)\n",
                 Dups.size());
  }

  if (Train && Resume) {
    // A previous run killed mid-write leaves a ".tmp" next to the artifact;
    // the artifact itself is either absent or a complete older version
    // (writeFileAtomic renames atomically), so it is safe to inspect.
    std::string Warning;
    if (discardStaleTemp(OutPath, &Warning))
      std::fprintf(stderr, "warning: %s\n", Warning.c_str());
    std::error_code Ec;
    if (std::filesystem::exists(OutPath, Ec)) {
      auto Bytes = readFile(OutPath);
      if (!Bytes)
        return 1;
      StringInterner OldStrings;
      ArtifactError Err;
      auto Old = USpecLearner::loadArtifacts(*Bytes, OldStrings, &Err);
      if (Old && Old->Manifest.sameCorpus(Manifest) &&
          Old->Config.Tau == Tau && Old->Config.Seed == Seed) {
        std::fprintf(stderr,
                     "resume: %s is up to date (same corpus, tau, seed); "
                     "skipping retrain\n",
                     OutPath.c_str());
        return 0;
      }
      std::fprintf(stderr, "resume: %s %s; retraining\n", OutPath.c_str(),
                   Old ? "was trained on a different corpus/config"
                       : "is not a loadable artifact");
    }
  }

  LearnerConfig Cfg;
  Cfg.Tau = Tau;
  Cfg.Seed = Seed;
  Cfg.Threads = static_cast<unsigned>(Threads);
  Cfg.ProgramStepBudget = StepBudget;
  USpecLearner Learner(Strings, Cfg);
  LearnResult Result = Learner.learn(Corpus);
  printCandidates(Strings, Corpus.size(), Result.Candidates,
                  Result.Selected.size(), Tau);
  // Specs/artifacts go to stdout or -o; stats stay on stderr so pipelines
  // that consume the primary output are unaffected.
  if (Stats) {
    // CLI-level parse quarantine (indices into the FILES list) goes in
    // front of the learner's in-corpus quarantine records.
    Result.Stats.Quarantined.insert(Result.Stats.Quarantined.begin(),
                                    ParseQuarantine.begin(),
                                    ParseQuarantine.end());
    std::fprintf(stderr, "%s\n", Result.Stats.json().c_str());
  }

  auto WriteOutput = [&] {
    if (Train) {
      std::string WriteErr;
      if (!writeFileAtomic(OutPath, Learner.saveArtifacts(Result, &Manifest),
                           &WriteErr)) {
        std::fprintf(stderr, "error: %s\n", WriteErr.c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "wrote artifact %s (%zu programs, %zu candidates)\n",
                   OutPath.c_str(), Manifest.Entries.size(),
                   Result.Candidates.size());
      return 0;
    }
    std::string Text = serializeSpecs(Result.Selected, Strings);
    if (OutPath.empty()) {
      std::fputs(Text.c_str(), stdout);
      return 0;
    }
    if (!writeFile(OutPath, Text))
      return 1;
    std::fprintf(stderr, "wrote %s\n", OutPath.c_str());
    return 0;
  };
  int Rc = WriteOutput();
  releaseCorpus(Corpus, Cfg.Threads);
  return Rc;
}

/// `uspec ingest FILES... -j corpus.uspj`: parse-validate every file, then
/// append them all as one new generation. All-or-nothing: a file that fails
/// to read or parse aborts before any byte of the journal is rewritten.
int cmdIngest(Args &A) {
  std::vector<std::string> Files;
  std::string JournalPath;
  while (const char *Arg = A.next()) {
    if (!std::strcmp(Arg, "-j") || !std::strcmp(Arg, "--journal")) {
      const char *V = A.next();
      if (!V)
        return missingValue("ingest", Arg);
      JournalPath = V;
    } else if (Arg[0] == '-' && Arg[1] != '\0') {
      return unknownToken("ingest", Arg);
    } else {
      Files.push_back(Arg);
    }
  }
  if (Files.empty() || JournalPath.empty()) {
    std::fprintf(stderr, "error: ingest requires FILES... and -j JOURNAL\n");
    return usage();
  }

  incremental::CorpusJournal J;
  std::string Err;
  if (!incremental::loadJournal(JournalPath, J, /*MissingOk=*/true, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  uint64_t Generation = J.lastGeneration() + 1;
  for (const std::string &Path : Files) {
    auto Source = readFile(Path);
    if (!Source) {
      std::fprintf(stderr, "error: ingest aborted; %s unchanged\n",
                   JournalPath.c_str());
      return 1;
    }
    StringInterner Strings;
    DiagnosticSink Diags;
    if (!parseAndLower(*Source, Path, Strings, Diags)) {
      std::fprintf(stderr, "%s:\n%s", Path.c_str(), Diags.render().c_str());
      std::fprintf(stderr, "error: ingest aborted; %s unchanged\n",
                   JournalPath.c_str());
      return 1;
    }
    J.append(Generation, Path, std::move(*Source));
  }
  if (!incremental::saveJournal(JournalPath, J, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "ingested %zu program(s) into %s as generation %llu "
               "(%zu entries total, chain %016llx)\n",
               Files.size(), JournalPath.c_str(),
               static_cast<unsigned long long>(Generation), J.Entries.size(),
               static_cast<unsigned long long>(J.chainChecksum()));
  return 0;
}

int cmdSelect(Args &A) {
  std::string ArtifactPath, OutPath;
  std::optional<double> Tau;
  while (const char *Arg = A.next()) {
    if (!std::strcmp(Arg, "-o")) {
      const char *V = A.next();
      if (!V)
        return missingValue("select", Arg);
      OutPath = V;
    } else if (!std::strcmp(Arg, "--tau")) {
      const char *V = A.next();
      if (!V)
        return missingValue("select", Arg);
      double Val = 0;
      if (!parseDouble("--tau", V, Val))
        return 2;
      Tau = Val;
    } else if (Arg[0] == '-' && Arg[1] != '\0') {
      return unknownToken("select", Arg);
    } else if (ArtifactPath.empty()) {
      ArtifactPath = Arg;
    } else {
      return unknownToken("select", Arg);
    }
  }
  if (ArtifactPath.empty())
    return usage();

  auto Bytes = readFile(ArtifactPath);
  if (!Bytes)
    return 1;
  StringInterner Strings;
  ArtifactError Err;
  auto Artifacts = USpecLearner::loadArtifacts(*Bytes, Strings, &Err);
  if (!Artifacts) {
    std::fprintf(stderr, "error: %s: %s\n", ArtifactPath.c_str(),
                 Err.str().c_str());
    return 1;
  }

  const LearnResult &R = Artifacts->Result;
  double UseTau = Tau.value_or(Artifacts->Config.Tau);
  SpecSet Selected;
  if (Tau && *Tau != Artifacts->Config.Tau)
    Selected = USpecLearner::select(R.Candidates, UseTau,
                                    Artifacts->Config.ExtendConsistency);
  else
    Selected = R.Selected;
  printCandidates(Strings, Artifacts->Manifest.Entries.size(), R.Candidates,
                  Selected.size(), UseTau);

  std::string Text = serializeSpecs(Selected, Strings);
  if (OutPath.empty()) {
    std::fputs(Text.c_str(), stdout);
    return 0;
  }
  if (!writeFile(OutPath, Text))
    return 1;
  std::fprintf(stderr, "wrote %s\n", OutPath.c_str());
  return 0;
}

int cmdInfo(Args &A) {
  const char *Path = A.next();
  if (!Path)
    return usage();
  if (Path[0] == '-' && Path[1] != '\0')
    return unknownToken("info", Path);
  if (A.has())
    return unknownToken("info", A.next());
  auto Bytes = readFile(Path);
  if (!Bytes)
    return 1;

  ArtifactError Err;
  auto Container = ArtifactReader::open(*Bytes, &Err);
  if (!Container) {
    std::fprintf(stderr, "error: %s: %s\n", Path, Err.str().c_str());
    return 1;
  }
  std::printf("%s: USPB artifact, format version %u, %zu bytes\n", Path,
              Container->version(), Bytes->size());
  for (const ArtifactReader::Section &S : Container->sections())
    std::printf("  section %-6s %8zu bytes (checksum ok)\n",
                std::string(S.Name).c_str(), S.Bytes.size());

  StringInterner Strings;
  auto Artifacts = USpecLearner::loadArtifacts(*Bytes, Strings, &Err);
  if (!Artifacts) {
    std::fprintf(stderr, "error: %s: %s\n", Path, Err.str().c_str());
    return 1;
  }
  const LearnResult &R = Artifacts->Result;
  std::printf("trained on %zu programs (tau=%.2f, seed=%llu)\n",
              Artifacts->Manifest.Entries.size(), Artifacts->Config.Tau,
              static_cast<unsigned long long>(Artifacts->Config.Seed));
  std::printf("%zu candidates, %zu selected (+%zu by extension), "
              "%zu position-pair models, %zu training samples, "
              "%.3f in-sample accuracy\n",
              R.Candidates.size(), R.Selected.size(), R.AddedByExtension,
              R.Model.numModels(), R.NumTrainingSamples, R.TrainAccuracy);
  if (Artifacts->Lineage) {
    const JournalLineage &L = *Artifacts->Lineage;
    std::printf("journal lineage: generation %llu, trained through %llu "
                "entr%s, chain checksum %016llx%s\n",
                static_cast<unsigned long long>(L.Generation),
                static_cast<unsigned long long>(L.TrainedEntries),
                L.TrainedEntries == 1 ? "y" : "ies",
                static_cast<unsigned long long>(L.ChainChecksum),
                Artifacts->Ledger ? ", evidence ledger present" : "");
  }
  return 0;
}

/// Loads the spec set for `analyze --json` / `serve` in canonical text form
/// (see ServiceSpecs) from either a spec text file or a USPB artifact.
/// Returns nullopt after printing a diagnostic.
std::optional<service::ServiceSpecs>
loadServiceSpecs(const std::string &SpecsPath, const std::string &ModelPath) {
  if (!SpecsPath.empty()) {
    auto Text = readFile(SpecsPath);
    if (!Text)
      return std::nullopt;
    size_t BadLine = 0;
    auto Specs = service::ServiceSpecs::fromText(*Text, &BadLine);
    if (!Specs) {
      std::fprintf(stderr, "%s:%zu: malformed specification\n",
                   SpecsPath.c_str(), BadLine);
      return std::nullopt;
    }
    return Specs;
  }
  if (!ModelPath.empty()) {
    auto Bytes = readFile(ModelPath);
    if (!Bytes)
      return std::nullopt;
    StringInterner Strings;
    ArtifactError Err;
    auto Artifacts = USpecLearner::loadArtifacts(*Bytes, Strings, &Err);
    if (!Artifacts) {
      std::fprintf(stderr, "error: %s: %s\n", ModelPath.c_str(),
                   Err.str().c_str());
      return std::nullopt;
    }
    return service::ServiceSpecs::fromSpecSet(Artifacts->Result.Selected,
                                              Strings);
  }
  return service::ServiceSpecs();
}

int cmdAnalyze(Args &A) {
  std::string File, SpecsPath, ModelPath, DotPath, TracePath;
  bool Coverage = false, Json = false;
  while (const char *Arg = A.next()) {
    if (!std::strcmp(Arg, "--specs")) {
      const char *V = A.next();
      if (!V)
        return missingValue("analyze", Arg);
      SpecsPath = V;
    } else if (!std::strcmp(Arg, "--trace")) {
      const char *V = A.next();
      if (!V)
        return missingValue("analyze", Arg);
      TracePath = V;
    } else if (!std::strcmp(Arg, "--model")) {
      const char *V = A.next();
      if (!V)
        return missingValue("analyze", Arg);
      ModelPath = V;
    } else if (!std::strcmp(Arg, "--dot")) {
      const char *V = A.next();
      if (!V)
        return missingValue("analyze", Arg);
      DotPath = V;
    } else if (!std::strcmp(Arg, "--coverage")) {
      Coverage = true;
    } else if (!std::strcmp(Arg, "--json")) {
      Json = true;
    } else if (Arg[0] == '-' && Arg[1] != '\0') {
      return unknownToken("analyze", Arg);
    } else if (File.empty()) {
      File = Arg;
    } else {
      return unknownToken("analyze", Arg);
    }
  }
  if (File.empty() || (!SpecsPath.empty() && !ModelPath.empty()))
    return usage();
  if (!TracePath.empty()) {
    std::string Err;
    if (!trace::startToFile(TracePath, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
  }

  auto Source = readFile(File);
  if (!Source)
    return 1;

  if (Json) {
    // The service engine: same specs canonicalization, same analysis, same
    // serializer as the `analyze` verb of `uspec serve` — byte-identical by
    // construction (and pinned by tests/service_test.cpp).
    auto Specs = loadServiceSpecs(SpecsPath, ModelPath);
    if (!Specs)
      return 1;
    std::string Error;
    auto PA = service::analyzeSource(*Source, File, *Specs, Coverage, &Error);
    if (!PA) {
      std::string Out = "{\"error\":";
      Out += service::errorBody("parse_error", Error);
      Out += "}";
      std::fprintf(stdout, "%s\n", Out.c_str());
      return 1;
    }
    std::fprintf(stdout, "%s\n", PA->AnalyzeJson.c_str());
    return 0;
  }
  StringInterner Strings;
  DiagnosticSink Diags;
  auto P = parseAndLower(*Source, File, Strings, Diags);
  if (!P) {
    std::fprintf(stderr, "%s", Diags.render().c_str());
    return 1;
  }

  SpecSet Specs;
  AnalysisOptions Options;
  if (!SpecsPath.empty()) {
    auto Text = readFile(SpecsPath);
    if (!Text)
      return 1;
    size_t ErrorLine = 0;
    Specs = parseSpecs(*Text, Strings, &ErrorLine);
    if (ErrorLine) {
      std::fprintf(stderr, "%s:%zu: malformed specification\n",
                   SpecsPath.c_str(), ErrorLine);
      return 1;
    }
    Options.ApiAware = true;
    Options.Specs = &Specs;
    Options.CoverageExtension = Coverage;
    std::printf("loaded %zu specifications (API-aware analysis%s)\n",
                Specs.size(), Coverage ? " + coverage extension" : "");
  } else if (!ModelPath.empty()) {
    auto Bytes = readFile(ModelPath);
    if (!Bytes)
      return 1;
    ArtifactError Err;
    auto Artifacts = USpecLearner::loadArtifacts(*Bytes, Strings, &Err);
    if (!Artifacts) {
      std::fprintf(stderr, "error: %s: %s\n", ModelPath.c_str(),
                   Err.str().c_str());
      return 1;
    }
    Specs = std::move(Artifacts->Result.Selected);
    Options.ApiAware = true;
    Options.Specs = &Specs;
    Options.CoverageExtension = Coverage;
    std::printf("loaded %zu specifications from artifact %s (API-aware "
                "analysis%s)\n",
                Specs.size(), ModelPath.c_str(),
                Coverage ? " + coverage extension" : "");
  } else {
    std::printf("no specifications (API-unaware baseline)\n");
  }

  AnalysisResult R = analyzeProgram(*P, Strings, Options);
  EventGraph G = EventGraph::build(R);

  // Report may-aliasing between call-site return values.
  std::printf("\nmay-alias call-site return pairs:\n");
  size_t Pairs = 0;
  const auto &Sites = G.callSites();
  for (size_t I = 0; I < Sites.size(); ++I) {
    for (size_t J = I + 1; J < Sites.size(); ++J) {
      if (Sites[I].Ret == InvalidEvent || Sites[J].Ret == InvalidEvent)
        continue;
      if (!R.retMayAlias(Sites[I].Ret, Sites[J].Ret))
        continue;
      std::printf("  %s  ~  %s\n",
                  Sites[I].Method.str(Strings).c_str(),
                  Sites[J].Method.str(Strings).c_str());
      ++Pairs;
    }
  }
  std::printf("%zu aliasing pairs, %zu events, %zu objects\n", Pairs,
              R.Events.size(), R.Objects.size());

  if (!DotPath.empty()) {
    if (writeFile(DotPath, toDot(G, Strings)))
      std::printf("event graph written to %s\n", DotPath.c_str());
  }
  return 0;
}

int cmdCheck(Args &A) {
  bool Ok = true;
  while (const char *Arg = A.next()) {
    if (Arg[0] == '-' && Arg[1] != '\0')
      return unknownToken("check", Arg);
    auto Source = readFile(Arg);
    if (!Source) {
      Ok = false;
      continue;
    }
    StringInterner Strings;
    DiagnosticSink Diags;
    auto P = parseAndLower(*Source, Arg, Strings, Diags);
    if (!P) {
      std::fprintf(stderr, "%s:\n%s", Arg, Diags.render().c_str());
      Ok = false;
    } else {
      std::printf("%s: ok (%u sites, %u guards)\n", Arg, P->NumSites,
                  P->NumGuards);
    }
  }
  return Ok ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

/// Set by the SIGTERM/SIGINT handler; polled by the socket accept loop and —
/// because the handler is installed *without* SA_RESTART — also unblocks the
/// stdin getline in stream mode via EINTR.
volatile int GStopRequested = 0;

void onStopSignal(int) { GStopRequested = 1; }

/// Set by the SIGHUP handler (socket mode only — a stream-mode getline has
/// no safe point to reload from); the accept loop clears it and hot-swaps
/// the model from --model. No SA_RESTART so a blocking accept/poll wakes
/// promptly via EINTR.
volatile int GReloadRequested = 0;

void onReloadSignal(int) { GReloadRequested = 1; }

int cmdServe(Args &A) {
  std::string ModelPath, SpecsPath, SocketPath, TracePath, EventsPath;
  service::ServerConfig Cfg;
  while (const char *Arg = A.next()) {
    if (!std::strcmp(Arg, "--trace")) {
      const char *V = A.next();
      if (!V)
        return missingValue("serve", Arg);
      TracePath = V;
    } else if (!std::strcmp(Arg, "--events")) {
      const char *V = A.next();
      if (!V)
        return missingValue("serve", Arg);
      EventsPath = V;
    } else if (!std::strcmp(Arg, "--slow-ms")) {
      const char *V = A.next();
      if (!V)
        return missingValue("serve", Arg);
      uint64_t Val = 0;
      if (!parseUInt("--slow-ms", V, Val))
        return 2;
      Cfg.SlowRequestMs = static_cast<unsigned>(Val);
    } else if (!std::strcmp(Arg, "--model")) {
      const char *V = A.next();
      if (!V)
        return missingValue("serve", Arg);
      ModelPath = V;
    } else if (!std::strcmp(Arg, "--specs")) {
      const char *V = A.next();
      if (!V)
        return missingValue("serve", Arg);
      SpecsPath = V;
    } else if (!std::strcmp(Arg, "--socket")) {
      const char *V = A.next();
      if (!V)
        return missingValue("serve", Arg);
      SocketPath = V;
    } else if (!std::strcmp(Arg, "--workers")) {
      const char *V = A.next();
      if (!V)
        return missingValue("serve", Arg);
      uint64_t Val = 0;
      if (!parseUInt("--workers", V, Val))
        return 2;
      Cfg.Workers = static_cast<unsigned>(Val);
    } else if (!std::strcmp(Arg, "--queue")) {
      const char *V = A.next();
      if (!V)
        return missingValue("serve", Arg);
      uint64_t Val = 0;
      if (!parseUInt("--queue", V, Val))
        return 2;
      if (!Val) {
        std::fprintf(stderr, "error: --queue must be at least 1\n");
        return 2;
      }
      Cfg.QueueCapacity = Val;
    } else if (!std::strcmp(Arg, "--cache")) {
      const char *V = A.next();
      if (!V)
        return missingValue("serve", Arg);
      uint64_t Val = 0;
      if (!parseUInt("--cache", V, Val))
        return 2;
      Cfg.CacheCapacity = Val;
    } else if (!std::strcmp(Arg, "--request-timeout")) {
      const char *V = A.next();
      if (!V)
        return missingValue("serve", Arg);
      uint64_t Val = 0;
      if (!parseUInt("--request-timeout", V, Val))
        return 2;
      Cfg.RequestTimeoutMs = static_cast<unsigned>(Val);
    } else if (!std::strcmp(Arg, "--step-budget")) {
      const char *V = A.next();
      if (!V)
        return missingValue("serve", Arg);
      uint64_t Val = 0;
      if (!parseUInt("--step-budget", V, Val))
        return 2;
      Cfg.MaxStepsPerRequest = Val;
    } else {
      return unknownToken("serve", Arg);
    }
  }
  if (!SpecsPath.empty() && !ModelPath.empty()) {
    std::fprintf(stderr, "error: --specs and --model are mutually "
                         "exclusive\n");
    return 2;
  }
  if (!TracePath.empty()) {
    std::string Err;
    if (!trace::startToFile(TracePath, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
  }
  if (!EventsPath.empty()) {
    std::string Err;
    if (!events::startToFile(EventsPath, /*MaxBytes=*/0, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
  }

  // --model loads a versioned ModelState (journal generation, hot-swap
  // source path); --specs / no flags keep the unversioned generation-0
  // path. ServerConfig::ModelPath is what SIGHUP / `reload` without an
  // explicit path re-reads.
  std::optional<service::ModelState> Model;
  if (!ModelPath.empty()) {
    Cfg.ModelPath = ModelPath;
    std::string Err;
    Model = service::loadModelState(ModelPath, &Err);
    if (!Model) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
  } else {
    auto Specs = loadServiceSpecs(SpecsPath, ModelPath);
    if (!Specs)
      return 1;
    Model = service::ModelState::make(
        std::move(*Specs), 0, SpecsPath.empty() ? "inline" : SpecsPath);
  }

  size_t NumSpecs = Model->Specs.Lines.size();
  uint64_t Generation = Model->Generation;
  service::Server Server(Cfg, std::move(*Model));

  // Graceful drain on SIGTERM/SIGINT. Deliberately no SA_RESTART so a
  // blocking stdin read returns EINTR and the stream loop can wind down.
  GStopRequested = 0;
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onStopSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0;
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);

  if (!SocketPath.empty()) {
    // Live reload on SIGHUP — socket mode only: the handler must not
    // interrupt a stream-mode stdin getline, which would end the session.
    GReloadRequested = 0;
    struct sigaction HupSA;
    std::memset(&HupSA, 0, sizeof(HupSA));
    HupSA.sa_handler = onReloadSignal;
    sigemptyset(&HupSA.sa_mask);
    HupSA.sa_flags = 0;
    sigaction(SIGHUP, &HupSA, nullptr);
    std::fprintf(stderr,
                 "uspec serve: %zu specs (generation %llu), listening on "
                 "%s\n",
                 NumSpecs, static_cast<unsigned long long>(Generation),
                 SocketPath.c_str());
    return Server.serveUnixSocket(SocketPath, &GStopRequested,
                                  &GReloadRequested);
  }
  std::fprintf(stderr, "uspec serve: %zu specs, reading stdin\n", NumSpecs);
  return Server.serveStream(std::cin, std::cout);
}

//===----------------------------------------------------------------------===//
// route (routed serving, DESIGN.md §14)
//===----------------------------------------------------------------------===//

/// `uspec route --socket PATH --replicas SOCK1,SOCK2,... [--vnodes N]
///  [--supervise] [--respawn-cmd CMD] [--model PATH]
///  [--probe-interval-ms N] [--respawn-seed S]
///  [--hedge-ms N | --hedge-auto] [--warm-keys K]`:
/// the self-healing consistent-hash router in front of N `uspec serve
/// --socket` replicas. `--supervise` probes replicas each interval and
/// respawns dead ones: via CMD (every `{socket}` replaced by the replica's
/// socket path), or — when only `--model` is given — via a synthesized
/// `<this binary> serve --socket {socket} --model PATH`.
int cmdRoute(Args &A) {
  std::string SocketPath, ReplicaList, RespawnCmd, ModelPath, TracePath,
      EventsPath;
  uint64_t Vnodes = 64, ProbeIntervalMs = 500, RespawnSeed = 0, HedgeMs = 0,
           WarmKeys = 32;
  bool Supervise = false, HedgeAuto = false;
  while (const char *Arg = A.next()) {
    if (!std::strcmp(Arg, "--socket")) {
      const char *V = A.next();
      if (!V)
        return missingValue("route", Arg);
      SocketPath = V;
    } else if (!std::strcmp(Arg, "--replicas")) {
      const char *V = A.next();
      if (!V)
        return missingValue("route", Arg);
      ReplicaList = V;
    } else if (!std::strcmp(Arg, "--vnodes")) {
      const char *V = A.next();
      if (!V)
        return missingValue("route", Arg);
      if (!parseUInt("--vnodes", V, Vnodes))
        return 2;
      if (!Vnodes) {
        std::fprintf(stderr, "error: --vnodes must be at least 1\n");
        return 2;
      }
    } else if (!std::strcmp(Arg, "--supervise")) {
      Supervise = true;
    } else if (!std::strcmp(Arg, "--respawn-cmd")) {
      const char *V = A.next();
      if (!V)
        return missingValue("route", Arg);
      RespawnCmd = V;
    } else if (!std::strcmp(Arg, "--model")) {
      const char *V = A.next();
      if (!V)
        return missingValue("route", Arg);
      ModelPath = V;
    } else if (!std::strcmp(Arg, "--probe-interval-ms")) {
      const char *V = A.next();
      if (!V)
        return missingValue("route", Arg);
      if (!parseUInt("--probe-interval-ms", V, ProbeIntervalMs))
        return 2;
      if (!ProbeIntervalMs) {
        std::fprintf(stderr,
                     "error: --probe-interval-ms must be at least 1\n");
        return 2;
      }
    } else if (!std::strcmp(Arg, "--respawn-seed")) {
      const char *V = A.next();
      if (!V)
        return missingValue("route", Arg);
      if (!parseUInt("--respawn-seed", V, RespawnSeed))
        return 2;
    } else if (!std::strcmp(Arg, "--hedge-ms")) {
      const char *V = A.next();
      if (!V)
        return missingValue("route", Arg);
      if (!parseUInt("--hedge-ms", V, HedgeMs))
        return 2;
    } else if (!std::strcmp(Arg, "--hedge-auto")) {
      HedgeAuto = true;
    } else if (!std::strcmp(Arg, "--warm-keys")) {
      const char *V = A.next();
      if (!V)
        return missingValue("route", Arg);
      if (!parseUInt("--warm-keys", V, WarmKeys))
        return 2;
    } else if (!std::strcmp(Arg, "--trace")) {
      const char *V = A.next();
      if (!V)
        return missingValue("route", Arg);
      TracePath = V;
    } else if (!std::strcmp(Arg, "--events")) {
      const char *V = A.next();
      if (!V)
        return missingValue("route", Arg);
      EventsPath = V;
    } else {
      return unknownToken("route", Arg);
    }
  }
  if (!TracePath.empty()) {
    std::string Err;
    if (!trace::startToFile(TracePath, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
  }
  if (!EventsPath.empty()) {
    std::string Err;
    if (!events::startToFile(EventsPath, /*MaxBytes=*/0, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
  }
  distrib::RouterConfig Cfg;
  Cfg.VirtualNodes = static_cast<unsigned>(Vnodes);
  Cfg.Supervise = Supervise;
  Cfg.ProbeIntervalMs = static_cast<unsigned>(ProbeIntervalMs);
  Cfg.RespawnSeed = RespawnSeed;
  Cfg.HedgeMs = static_cast<unsigned>(HedgeMs);
  Cfg.HedgeAuto = HedgeAuto;
  Cfg.WarmKeys = static_cast<unsigned>(WarmKeys);
  if (!RespawnCmd.empty()) {
    Cfg.RespawnCmd = RespawnCmd;
  } else if (Supervise && !ModelPath.empty()) {
    // Own the replica processes outright: respawn them as this very binary.
    char Self[4096];
    ssize_t N = ::readlink("/proc/self/exe", Self, sizeof(Self) - 1);
    if (N > 0) {
      Self[N] = '\0';
      Cfg.RespawnCmd = std::string("'") + Self +
                       "' serve --socket '{socket}' --model '" + ModelPath +
                       "' >/dev/null 2>&1";
    }
  }
  for (size_t Pos = 0; Pos <= ReplicaList.size();) {
    size_t Comma = ReplicaList.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = ReplicaList.size();
    if (Comma > Pos)
      Cfg.Replicas.push_back(ReplicaList.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  if (SocketPath.empty() || Cfg.Replicas.empty()) {
    std::fprintf(stderr, "error: route requires --socket PATH and "
                         "--replicas SOCK1,SOCK2,...\n");
    return 2;
  }

  distrib::Router Router(Cfg);
  GStopRequested = 0;
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onStopSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0;
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
  std::fprintf(stderr,
               "uspec route: %zu replicas, %llu vnodes each, listening on "
               "%s%s%s%s\n",
               Cfg.Replicas.size(), static_cast<unsigned long long>(Vnodes),
               SocketPath.c_str(),
               Cfg.Supervise ? (Cfg.RespawnCmd.empty()
                                    ? " (supervise: probe/rejoin)"
                                    : " (supervise: respawn)")
                             : "",
               Cfg.HedgeAuto ? " (hedge: auto-p95)" : "",
               !Cfg.HedgeAuto && Cfg.HedgeMs
                   ? (" (hedge: " + std::to_string(Cfg.HedgeMs) + " ms)")
                         .c_str()
                   : "");
  return Router.serveUnixSocket(SocketPath, &GStopRequested);
}

//===----------------------------------------------------------------------===//
// query
//===----------------------------------------------------------------------===//

/// Sends \p RequestLine to a `uspec serve` or `uspec route` socket over
/// \p Conn — which reconnects by itself after a failure — and reads one
/// response line into \p ResponseLine. Failures are reported on stderr.
bool roundTrip(service::ConnPool &Conn, const std::string &RequestLine,
               std::string &ResponseLine) {
  std::string Err;
  if (Conn.roundTrip(RequestLine, ResponseLine, &Err))
    return true;
  std::fprintf(stderr, "error: %s\n", Err.c_str());
  return false;
}

/// Appends `,"KEY":"VALUE"` with JSON escaping.
void appendField(std::string &Out, const char *Key, std::string_view Value) {
  Out += ",\"";
  Out += Key;
  Out += "\":";
  service::appendJsonString(Out, Value);
}

int cmdQuery(Args &A) {
  std::string SocketPath, RawRequest, TraceId;
  std::vector<const char *> Positional;
  bool Coverage = false;
  uint64_t Retries = 0, RetrySeed = 0;
  std::vector<std::string> Sources, Sinks, Sanitizers;
  while (const char *Arg = A.next()) {
    if (!std::strcmp(Arg, "--socket")) {
      const char *V = A.next();
      if (!V)
        return missingValue("query", Arg);
      SocketPath = V;
    } else if (!std::strcmp(Arg, "--trace-id")) {
      const char *V = A.next();
      if (!V)
        return missingValue("query", Arg);
      TraceId = V;
    } else if (!std::strcmp(Arg, "--retries")) {
      const char *V = A.next();
      if (!V)
        return missingValue("query", Arg);
      if (!parseUInt("--retries", V, Retries))
        return 2;
    } else if (!std::strcmp(Arg, "--retry-seed")) {
      const char *V = A.next();
      if (!V)
        return missingValue("query", Arg);
      if (!parseUInt("--retry-seed", V, RetrySeed))
        return 2;
    } else if (!std::strcmp(Arg, "--json")) {
      const char *V = A.next();
      if (!V)
        return missingValue("query", Arg);
      RawRequest = V;
    } else if (!std::strcmp(Arg, "--coverage")) {
      Coverage = true;
    } else if (!std::strcmp(Arg, "--source")) {
      const char *V = A.next();
      if (!V)
        return missingValue("query", Arg);
      Sources.push_back(V);
    } else if (!std::strcmp(Arg, "--sink")) {
      const char *V = A.next();
      if (!V)
        return missingValue("query", Arg);
      Sinks.push_back(V);
    } else if (!std::strcmp(Arg, "--sanitizer")) {
      const char *V = A.next();
      if (!V)
        return missingValue("query", Arg);
      Sanitizers.push_back(V);
    } else if (Arg[0] == '-' && Arg[1] != '\0') {
      return unknownToken("query", Arg);
    } else {
      Positional.push_back(Arg);
    }
  }
  if (SocketPath.empty()) {
    std::fprintf(stderr, "error: query requires --socket PATH\n");
    return 2;
  }

  std::string Request;
  if (!RawRequest.empty()) {
    if (!Positional.empty())
      return unknownToken("query", Positional.front());
    Request = RawRequest;
  } else {
    if (Positional.empty()) {
      std::fprintf(stderr, "error: query requires a verb (analyze, alias, "
                           "typestate, taint, specs, cachekeys, stats, "
                           "metrics, reload, shutdown) or --json REQUEST\n");
      return 2;
    }
    std::string VerbName = Positional.front();
    auto NeedArgs = [&](size_t N, const char *Shape) -> bool {
      if (Positional.size() == N + 1)
        return true;
      std::fprintf(stderr, "error: usage: uspec query --socket PATH %s\n",
                   Shape);
      return false;
    };
    auto ReadProgram = [&](size_t Index,
                           std::string &Out) -> bool {
      auto Source = readFile(Positional[Index]);
      if (!Source)
        return false;
      Out = std::move(*Source);
      return true;
    };
    std::string Program;
    if (VerbName == "analyze") {
      if (!NeedArgs(1, "analyze FILE [--coverage]"))
        return 2;
      if (!ReadProgram(1, Program))
        return 1;
      Request = "{\"verb\":\"analyze\"";
      appendField(Request, "program", Program);
      if (Coverage)
        Request += ",\"coverage\":true";
      Request += "}";
    } else if (VerbName == "alias") {
      if (!NeedArgs(3, "alias FILE A B"))
        return 2;
      if (!ReadProgram(1, Program))
        return 1;
      Request = "{\"verb\":\"alias\"";
      appendField(Request, "program", Program);
      appendField(Request, "a", Positional[2]);
      appendField(Request, "b", Positional[3]);
      Request += "}";
    } else if (VerbName == "typestate") {
      if (!NeedArgs(3, "typestate FILE CHECK USE"))
        return 2;
      if (!ReadProgram(1, Program))
        return 1;
      Request = "{\"verb\":\"typestate\"";
      appendField(Request, "program", Program);
      appendField(Request, "check", Positional[2]);
      appendField(Request, "use", Positional[3]);
      Request += "}";
    } else if (VerbName == "taint") {
      if (!NeedArgs(1, "taint FILE [--source M]... [--sink M]... "
                       "[--sanitizer M]..."))
        return 2;
      if (!ReadProgram(1, Program))
        return 1;
      Request = "{\"verb\":\"taint\"";
      appendField(Request, "program", Program);
      auto AppendList = [&](const char *Key,
                            const std::vector<std::string> &Names) {
        Request += ",\"";
        Request += Key;
        Request += "\":[";
        for (size_t I = 0; I < Names.size(); ++I) {
          if (I)
            Request += ',';
          service::appendJsonString(Request, Names[I]);
        }
        Request += ']';
      };
      AppendList("sources", Sources);
      AppendList("sinks", Sinks);
      AppendList("sanitizers", Sanitizers);
      Request += "}";
    } else if (VerbName == "reload") {
      // `reload` swaps the server's model in place: no path re-reads the
      // server's own --model, an explicit path is read *by the server*
      // (this is a server-side file name, not program content).
      if (Positional.size() > 2)
        return unknownToken("query", Positional[2]);
      Request = "{\"verb\":\"reload\"";
      if (Positional.size() == 2)
        appendField(Request, "path", Positional[1]);
      Request += "}";
    } else if (VerbName == "specs" || VerbName == "cachekeys" ||
               VerbName == "stats" || VerbName == "metrics" ||
               VerbName == "shutdown") {
      if (!NeedArgs(0, (VerbName).c_str()))
        return 2;
      Request = "{\"verb\":\"" + VerbName + "\"}";
    } else {
      return unknownToken("query", Positional.front());
    }
    if (!TraceId.empty()) {
      Request.pop_back(); // reopen the object to append the trace id
      appendField(Request, "trace_id", TraceId);
      Request += '}';
    }
  }

  // Transient failures — a connect/send/recv error (server restarting), a
  // structured `overloaded` rejection (queue full), or a router's
  // `replica_down` (the replica is marked down on the way out, so the retry
  // deterministically fails over to the next live ring owner) — are retried
  // with deterministic exponential backoff: the delay for a given
  // (seed, attempt) is always the same (service::retryDelayMs), so retry
  // traces reproduce.
  std::string Response;
  service::ConnPool Conn(SocketPath);
  for (unsigned Attempt = 0;; ++Attempt) {
    bool Ok = roundTrip(Conn, Request, Response);
    const char *Reason = nullptr;
    if (!Ok)
      Reason = "connection failed";
    else if (Response.find("\"kind\":\"overloaded\"") != std::string::npos)
      Reason = "overloaded";
    else if (Response.find("\"kind\":\"replica_down\"") != std::string::npos)
      Reason = "replica down";
    if (!Reason)
      break;
    if (Attempt >= Retries) {
      if (!Ok)
        return 1;
      break; // Transient error with no retries left: fall through, print it.
    }
    uint64_t DelayMs = service::retryDelayMs(Attempt, RetrySeed);
    std::fprintf(stderr, "retry %u/%llu in %llu ms (%s)\n", Attempt + 1,
                 static_cast<unsigned long long>(Retries),
                 static_cast<unsigned long long>(DelayMs), Reason);
    std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
  }

  // `uspec query` sends no id, so a success is exactly
  // {"ok":true,"result":PAYLOAD} — or, when --trace-id was sent,
  // {"trace_id":"...","ok":true,"result":PAYLOAD}. Strip the envelope to
  // recover the payload byte-exactly (the analyze payload then matches
  // `analyze --json`).
  static const char OkPrefix[] = "{\"ok\":true,\"result\":";
  const size_t PrefixLen = sizeof(OkPrefix) - 1;
  size_t PayloadStart = std::string::npos;
  if (Response.size() > PrefixLen + 1 &&
      !Response.compare(0, PrefixLen, OkPrefix) && Response.back() == '}') {
    PayloadStart = PrefixLen;
  } else if (!TraceId.empty() &&
             !Response.compare(0, 12, "{\"trace_id\":") &&
             Response.size() > 1 && Response.back() == '}') {
    static const char OkMember[] = ",\"ok\":true,\"result\":";
    size_t Pos = Response.find(OkMember, 12);
    if (Pos != std::string::npos)
      PayloadStart = Pos + sizeof(OkMember) - 1;
  }
  if (PayloadStart != std::string::npos) {
    std::string_view Payload(Response.data() + PayloadStart,
                             Response.size() - PayloadStart - 1);
    // A string payload (the `metrics` verb) is decoded so the Prometheus
    // exposition text prints ready to scrape; structured payloads pass
    // through byte-exact.
    if (!Payload.empty() && Payload.front() == '"') {
      service::JsonValue V;
      if (service::parseJson(Payload, V, nullptr) && V.isString()) {
        std::fwrite(V.StringValue.data(), 1, V.StringValue.size(), stdout);
        if (V.StringValue.empty() || V.StringValue.back() != '\n')
          std::fputc('\n', stdout);
        return 0;
      }
    }
    std::fwrite(Payload.data(), 1, Payload.size(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  std::fprintf(stderr, "%s\n", Response.c_str());
  return 1;
}

//===----------------------------------------------------------------------===//
// obs (fleet observability: stitch / top / events; DESIGN.md §16)
//===----------------------------------------------------------------------===//

/// Serializes \p V back to JSON text. Member and array order are preserved
/// (JsonValue keeps both as vectors); integral numbers print without a
/// decimal point and everything else at the trace serializer's microsecond
/// precision (%.3f), so a round-tripped trace shard keeps its shape.
void writeJson(const service::JsonValue &V, std::string &Out) {
  using service::JsonValue;
  switch (V.TheKind) {
  case JsonValue::Kind::Null:
    Out += "null";
    break;
  case JsonValue::Kind::Bool:
    Out += V.BoolValue ? "true" : "false";
    break;
  case JsonValue::Kind::Number: {
    char Buf[64];
    double Whole;
    if (std::modf(V.NumberValue, &Whole) == 0.0 &&
        std::fabs(Whole) < 9.0e15)
      std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(Whole));
    else
      std::snprintf(Buf, sizeof(Buf), "%.3f", V.NumberValue);
    Out += Buf;
    break;
  }
  case JsonValue::Kind::String:
    service::appendJsonString(Out, V.StringValue);
    break;
  case JsonValue::Kind::Array:
    Out += '[';
    for (size_t I = 0; I < V.Items.size(); ++I) {
      if (I)
        Out += ',';
      writeJson(V.Items[I], Out);
    }
    Out += ']';
    break;
  case JsonValue::Kind::Object:
    Out += '{';
    for (size_t I = 0; I < V.Members.size(); ++I) {
      if (I)
        Out += ',';
      service::appendJsonString(Out, V.Members[I].first);
      Out += ':';
      writeJson(V.Members[I].second, Out);
    }
    Out += '}';
    break;
  }
}

/// String member \p Key of the "args" object of trace event \p E ("" when
/// absent) — where spans carry their trace_id correlation key.
std::string obsSpanArg(const service::JsonValue &E, const char *Key) {
  const service::JsonValue *Args = E.find("args");
  if (!Args || !Args->isObject())
    return {};
  const service::JsonValue *V = Args->find(Key);
  return V && V->isString() ? V->StringValue : std::string();
}

/// `uspec obs stitch OUT.json SHARD...`: merge per-process Chrome-trace
/// shards into one Perfetto-loadable document. Shards are aligned onto the
/// shared machine-wide steady clock via their uspecBaseNs session epoch,
/// each pid gets a process_name metadata record naming its role (inferred
/// from span-name prefixes) and source shard, and flow events connect
/// router.forward spans to the replica service.request spans that carry the
/// same trace_id.
int cmdObsStitch(const std::vector<const char *> &Pos) {
  if (Pos.size() < 3) {
    std::fprintf(stderr,
                 "error: usage: uspec obs stitch OUT.json SHARD...\n");
    return 2;
  }
  struct Shard {
    std::string Label; ///< Basename, shown in process_name metadata.
    double ShiftUs = 0;
    service::JsonValue Doc;
  };
  std::vector<Shard> Shards;
  double MinBaseNs = -1;
  for (size_t I = 2; I < Pos.size(); ++I) {
    auto Text = readFile(Pos[I]);
    if (!Text)
      return 1;
    Shard S;
    std::string Err;
    if (!service::parseJson(*Text, S.Doc, &Err) || !S.Doc.isObject()) {
      std::fprintf(stderr, "error: %s: not a trace shard: %s\n", Pos[I],
                   Err.empty() ? "not a JSON object" : Err.c_str());
      return 1;
    }
    const service::JsonValue *Events = S.Doc.find("traceEvents");
    if (!Events || !Events->isArray()) {
      std::fprintf(stderr, "error: %s: no traceEvents array\n", Pos[I]);
      return 1;
    }
    S.Label = Pos[I];
    size_t Slash = S.Label.find_last_of('/');
    if (Slash != std::string::npos)
      S.Label.erase(0, Slash + 1);
    if (const service::JsonValue *Base = S.Doc.find("uspecBaseNs"))
      if (Base->TheKind == service::JsonValue::Kind::Number &&
          Base->NumberValue > 0) {
        S.ShiftUs = Base->NumberValue / 1e3;
        if (MinBaseNs < 0 || Base->NumberValue < MinBaseNs)
          MinBaseNs = Base->NumberValue;
      }
    Shards.push_back(std::move(S));
  }
  // Normalize: the earliest session epoch becomes t=0; shards without an
  // epoch (foreign traces) keep their own timestamps.
  for (Shard &S : Shards)
    S.ShiftUs = S.ShiftUs > 0 ? S.ShiftUs - MinBaseNs / 1e3 : 0;

  // Pass 1 over every event: shift timestamps in place, classify each pid's
  // role by span-name prefix, and index flow sources / destinations by
  // their correlation key.
  struct SpanRef {
    long Pid;
    double Tid, Ts;
  };
  std::map<long, std::pair<std::string, int>> PidRole; // pid -> label, rank
  std::map<std::string, std::vector<SpanRef>> FlowSrc, FlowDst;
  static const std::pair<const char *, const char *> Roles[] = {
      {"router.", "uspec route"},
      {"service.", "uspec serve"},
      {"learn.", "uspec train"},
  };
  for (Shard &S : Shards) {
    // find() is const; locate the traceEvents member mutably.
    for (auto &Member : S.Doc.Members) {
      if (Member.first != "traceEvents" || !Member.second.isArray())
        continue;
      for (service::JsonValue &E : Member.second.Items) {
        if (!E.isObject())
          continue;
        double Ts = 0;
        for (auto &M : E.Members)
          if (M.first == "ts" &&
              M.second.TheKind == service::JsonValue::Kind::Number) {
            M.second.NumberValue += S.ShiftUs;
            Ts = M.second.NumberValue;
          }
        const service::JsonValue *NameV = E.find("name");
        const service::JsonValue *PidV = E.find("pid");
        if (!NameV || !NameV->isString() || !PidV)
          continue;
        const std::string &Name = NameV->StringValue;
        long Pid = static_cast<long>(PidV->NumberValue);
        for (int R = 0; R < static_cast<int>(std::size(Roles)); ++R) {
          if (Name.compare(0, std::strlen(Roles[R].first), Roles[R].first))
            continue;
          auto It = PidRole.find(Pid);
          if (It == PidRole.end() || R < It->second.second)
            PidRole[Pid] = {std::string(Roles[R].second) + " — " +
                                S.Label,
                            R};
          break;
        }
        const service::JsonValue *TidV = E.find("tid");
        SpanRef Ref{Pid, TidV ? TidV->NumberValue : 0, Ts};
        bool Src = Name == "router.forward";
        if (Src || Name == "service.request") {
          std::string Key = obsSpanArg(E, "trace_id");
          if (!Key.empty())
            (Src ? FlowSrc : FlowDst)[Key].push_back(Ref);
        }
      }
    }
    // Pids with no recognized span prefix still get named after the shard.
    for (const service::JsonValue &E :
         S.Doc.find("traceEvents")->Items) {
      const service::JsonValue *PidV = E.isObject() ? E.find("pid") : nullptr;
      if (!PidV)
        continue;
      long Pid = static_cast<long>(PidV->NumberValue);
      if (!PidRole.count(Pid))
        PidRole[Pid] = {std::string("uspec — ") + S.Label,
                        static_cast<int>(std::size(Roles))};
    }
  }

  // Pass 2: emit. Original events (shifted), then process_name metadata,
  // then one s/f flow pair per (source span, cross-process matching span).
  std::string Out;
  Out.reserve(1 << 16);
  Out += "{\"traceEvents\":[";
  bool First = true;
  for (const Shard &S : Shards)
    for (const service::JsonValue &E :
         S.Doc.find("traceEvents")->Items) {
      if (!First)
        Out += ',';
      First = false;
      writeJson(E, Out);
    }
  char Buf[192];
  for (const auto &[Pid, Role] : PidRole) {
    if (!First)
      Out += ',';
    First = false;
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%ld,"
                  "\"tid\":0,\"args\":{\"name\":",
                  Pid);
    Out += Buf;
    service::appendJsonString(Out, Role.first);
    Out += "}}";
  }
  uint64_t FlowId = 0, Flows = 0;
  for (const auto &[Key, Srcs] : FlowSrc) {
    auto DstIt = FlowDst.find(Key);
    if (DstIt == FlowDst.end())
      continue;
    for (const SpanRef &Src : Srcs)
      for (const SpanRef &Dst : DstIt->second) {
        if (Dst.Pid == Src.Pid)
          continue;
        ++FlowId;
        ++Flows;
        std::snprintf(Buf, sizeof(Buf),
                      ",{\"name\":\"request\",\"cat\":\"uspec\",\"ph\":"
                      "\"s\",\"id\":%llu,\"pid\":%ld,\"tid\":%u,"
                      "\"ts\":%.3f}",
                      static_cast<unsigned long long>(FlowId), Src.Pid,
                      static_cast<unsigned>(Src.Tid), Src.Ts);
        Out += Buf;
        std::snprintf(Buf, sizeof(Buf),
                      ",{\"name\":\"request\",\"cat\":\"uspec\",\"ph\":"
                      "\"f\",\"bp\":\"e\",\"id\":%llu,\"pid\":%ld,"
                      "\"tid\":%u,\"ts\":%.3f}",
                      static_cast<unsigned long long>(FlowId), Dst.Pid,
                      static_cast<unsigned>(Dst.Tid), Dst.Ts);
        Out += Buf;
      }
  }
  Out += "]}";
  if (!writeFile(Pos[1], Out))
    return 1;
  std::fprintf(stderr,
               "stitched %zu shards: %zu processes, %llu flow links -> %s\n",
               Shards.size(), PidRole.size(),
               static_cast<unsigned long long>(Flows), Pos[1]);
  return 0;
}

/// Number member \p Key of object \p V (\p Dflt when absent).
double obsNum(const service::JsonValue *V, const char *Key, double Dflt = 0) {
  if (!V || !V->isObject())
    return Dflt;
  const service::JsonValue *M = V->find(Key);
  return M && M->TheKind == service::JsonValue::Kind::Number ? M->NumberValue
                                                            : Dflt;
}

/// Renders one fleet summary from a `stats` payload — the router fan-out
/// shape ({"router":...,"replicas":[...]}) gets the per-replica table, a
/// plain serve payload gets a single-process line.
void renderObsTop(const service::JsonValue &Payload) {
  const service::JsonValue *R = Payload.find("router");
  if (!R) {
    std::printf("serve: uptime %.1fs, %.0f completed (qps %.1f), "
                "cache hit %.0f%%, p95 %.2f ms\n",
                obsNum(&Payload, "uptime_s"),
                obsNum(Payload.find("requests"), "completed"),
                obsNum(&Payload, "qps"),
                obsNum(Payload.find("cache"), "hit_rate") * 100,
                obsNum(Payload.find("latency_ms"), "p95"));
    return;
  }
  const service::JsonValue *Reps = Payload.find("replicas");
  size_t Total = Reps && Reps->isArray() ? Reps->Items.size() : 0;
  size_t NumDown = 0;
  if (const service::JsonValue *D = R->find("down"))
    if (D->isArray())
      NumDown = D->Items.size();
  std::printf("fleet: %zu replicas (%zu down), router uptime %.1fs\n",
              Total, NumDown, obsNum(R, "uptime_s"));
  std::printf("router: %.0f requests, %.0f forwarded, %.0f hedged "
              "(%.0f wins), %.0f respawns, %.0f rejoins, %.0f warm "
              "replays\n",
              obsNum(R, "requests"), obsNum(R, "forwarded"),
              obsNum(R, "hedged"), obsNum(R, "hedged_wins"),
              obsNum(R, "respawns"), obsNum(R, "rejoins"),
              obsNum(R, "warm_replays"));
  if (!Reps || !Reps->isArray())
    return;
  for (size_t I = 0; I < Reps->Items.size(); ++I) {
    const service::JsonValue &Rep = Reps->Items[I];
    const service::JsonValue *Addr = Rep.find("addr");
    const service::JsonValue *DownV = Rep.find("down");
    bool IsDown = DownV && DownV->isBool() && DownV->BoolValue;
    const service::JsonValue *Stats = Rep.find("stats");
    if (Stats) {
      std::printf("  [%zu] %-28s %-4s uptime %7.1fs  %6.0f done  "
                  "hit %3.0f%%  p95 %7.2f ms\n",
                  I, Addr && Addr->isString() ? Addr->StringValue.c_str()
                                              : "?",
                  IsDown ? "DOWN" : "up", obsNum(Stats, "uptime_s"),
                  obsNum(Stats->find("requests"), "completed"),
                  obsNum(Stats->find("cache"), "hit_rate") * 100,
                  obsNum(Stats->find("latency_ms"), "p95"));
    } else {
      std::printf("  [%zu] %-28s %s\n", I,
                  Addr && Addr->isString() ? Addr->StringValue.c_str() : "?",
                  IsDown ? "DOWN (unreachable)" : "up (no stats)");
    }
  }
}

/// `uspec obs top --socket PATH [--watch] [--interval-ms N]`: one-shot (or
/// refreshing) fleet summary over the router's stats fan-out — or a single
/// serve socket's stats.
int cmdObsTop(const std::vector<const char *> &Pos) {
  std::string SocketPath;
  bool Watch = false;
  uint64_t IntervalMs = 2000;
  for (size_t I = 1; I < Pos.size(); ++I) {
    if (!std::strcmp(Pos[I], "--socket")) {
      if (++I == Pos.size())
        return missingValue("obs", "--socket");
      SocketPath = Pos[I];
    } else if (!std::strcmp(Pos[I], "--watch")) {
      Watch = true;
    } else if (!std::strcmp(Pos[I], "--interval-ms")) {
      if (++I == Pos.size())
        return missingValue("obs", "--interval-ms");
      if (!parseUInt("--interval-ms", Pos[I], IntervalMs) || !IntervalMs)
        return 2;
    } else {
      return unknownToken("obs", Pos[I]);
    }
  }
  if (SocketPath.empty()) {
    std::fprintf(stderr, "error: obs top requires --socket PATH\n");
    return 2;
  }
  GStopRequested = 0;
  if (Watch) {
    struct sigaction SA;
    std::memset(&SA, 0, sizeof(SA));
    SA.sa_handler = onStopSignal;
    sigemptyset(&SA.sa_mask);
    sigaction(SIGTERM, &SA, nullptr);
    sigaction(SIGINT, &SA, nullptr);
  }
  service::ConnPool Conn(SocketPath);
  for (;;) {
    std::string Response;
    if (!roundTrip(Conn, "{\"verb\":\"stats\"}", Response))
      return 1;
    service::JsonValue Doc;
    std::string Err;
    const service::JsonValue *Ok = nullptr, *Result = nullptr;
    if (service::parseJson(Response, Doc, &Err)) {
      Ok = Doc.find("ok");
      Result = Doc.find("result");
    }
    if (!Ok || !Ok->isBool() || !Ok->BoolValue || !Result) {
      std::fprintf(stderr, "error: stats failed: %s\n", Response.c_str());
      return 1;
    }
    if (Watch)
      std::printf("\x1b[H\x1b[2J");
    renderObsTop(*Result);
    std::fflush(stdout);
    if (!Watch)
      return 0;
    for (uint64_t Slept = 0; Slept < IntervalMs && !GStopRequested;
         Slept += 100)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (GStopRequested)
      return 0;
  }
}

/// `uspec obs events FILE [--follow] [--type T]`: print (and optionally
/// tail) a structured event log, filtered by event type. Torn or foreign
/// lines are skipped, not fatal — the log is append-only JSONL from
/// multiple processes.
int cmdObsEvents(const std::vector<const char *> &Pos) {
  std::string Path, Type;
  bool Follow = false;
  for (size_t I = 1; I < Pos.size(); ++I) {
    if (!std::strcmp(Pos[I], "--follow")) {
      Follow = true;
    } else if (!std::strcmp(Pos[I], "--type")) {
      if (++I == Pos.size())
        return missingValue("obs", "--type");
      Type = Pos[I];
    } else if (Pos[I][0] == '-' && Pos[I][1] != '\0') {
      return unknownToken("obs", Pos[I]);
    } else if (Path.empty()) {
      Path = Pos[I];
    } else {
      return unknownToken("obs", Pos[I]);
    }
  }
  if (Path.empty()) {
    std::fprintf(stderr,
                 "error: usage: uspec obs events FILE [--follow] "
                 "[--type T]\n");
    return 2;
  }
  errno = 0;
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot read %s: %s\n", Path.c_str(),
                 errno ? std::strerror(errno) : "unknown error");
    return 1;
  }
  GStopRequested = 0;
  if (Follow) {
    struct sigaction SA;
    std::memset(&SA, 0, sizeof(SA));
    SA.sa_handler = onStopSignal;
    sigemptyset(&SA.sa_mask);
    sigaction(SIGTERM, &SA, nullptr);
    sigaction(SIGINT, &SA, nullptr);
  }
  std::string Line;
  for (;;) {
    while (std::getline(In, Line)) {
      if (Line.empty())
        continue;
      service::JsonValue Doc;
      if (!service::parseJson(Line, Doc, nullptr) || !Doc.isObject())
        continue; // torn tail line or foreign text
      if (!Type.empty()) {
        const service::JsonValue *T = Doc.find("type");
        if (!T || !T->isString() || T->StringValue != Type)
          continue;
      }
      std::fwrite(Line.data(), 1, Line.size(), stdout);
      std::fputc('\n', stdout);
    }
    if (!Follow || GStopRequested)
      return 0;
    std::fflush(stdout);
    In.clear(); // new appends clear the EOF condition on the next read
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
}

/// `uspec obs (stitch|top|events) ...` dispatch.
int cmdObs(Args &A) {
  std::vector<const char *> Pos;
  while (const char *Arg = A.next())
    Pos.push_back(Arg);
  if (Pos.empty()) {
    std::fprintf(stderr,
                 "error: obs requires a mode: stitch, top or events\n");
    return 2;
  }
  if (!std::strcmp(Pos[0], "stitch"))
    return cmdObsStitch(Pos);
  if (!std::strcmp(Pos[0], "top"))
    return cmdObsTop(Pos);
  if (!std::strcmp(Pos[0], "events"))
    return cmdObsEvents(Pos);
  return unknownToken("obs", Pos[0]);
}

int runSubcommand(Args &A, const char *Cmd) {
  if (!std::strcmp(Cmd, "gen"))
    return cmdGen(A);
  if (!std::strcmp(Cmd, "learn"))
    return cmdLearnOrTrain(A, /*Train=*/false);
  if (!std::strcmp(Cmd, "train"))
    return cmdLearnOrTrain(A, /*Train=*/true);
  if (!std::strcmp(Cmd, "ingest"))
    return cmdIngest(A);
  if (!std::strcmp(Cmd, "select"))
    return cmdSelect(A);
  if (!std::strcmp(Cmd, "info"))
    return cmdInfo(A);
  if (!std::strcmp(Cmd, "analyze"))
    return cmdAnalyze(A);
  if (!std::strcmp(Cmd, "serve"))
    return cmdServe(A);
  if (!std::strcmp(Cmd, "route"))
    return cmdRoute(A);
  if (!std::strcmp(Cmd, "query"))
    return cmdQuery(A);
  if (!std::strcmp(Cmd, "obs"))
    return cmdObs(A);
  if (!std::strcmp(Cmd, "check"))
    return cmdCheck(A);
  std::fprintf(stderr, "error: unknown subcommand '%s'\n", Cmd);
  return usage();
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  // USPEC_TRACE=t.json arms tracing for any subcommand; an explicit --trace
  // (learn/train/analyze/serve/route) re-arms with its own output path.
  // USPEC_EVENTS=e.jsonl arms the structured event log the same way.
  trace::loadFromEnv();
  events::loadFromEnv();
  Args A{Argc, Argv};
  int Rc = runSubcommand(A, Argv[1]);
  std::string TraceErr;
  if (!trace::finish(&TraceErr))
    std::fprintf(stderr, "warning: failed to write trace: %s\n",
                 TraceErr.c_str());
  events::finish();
  return Rc;
}
