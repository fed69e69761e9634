//===- replay.cpp - In-process, span-traced replays of the user paths -----===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced half of the benchmark. Each replay calls the layers' public
/// functions in the order the real path calls them, with a span around
/// every call, and runs three times: untraced (a warm-up whose heap growth
/// and page faults the later passes do not pay), traced, and untraced
/// again. The difference between the last two walls is the tracing
/// overhead; the spans give each layer's self time.
///
///  - trace-train replays `uspec train FILES -o OUT` (tools/uspec.cpp's
///    loadCorpus + USpecLearner::learn + save) on one thread and checks that
///    the artifact is byte-identical to the reference `uspec train
///    --threads 1` produced.
///  - trace-serve sends the request stream through an in-process
///    distrib::Router over in-process service::Server replicas on Unix
///    sockets. For the same line it also times Server::handle on a mirror
///    replica that has seen the same lines (the replica's share of the
///    routed request) and the component functions (parseRequest, cache
///    probe/insert, parse, lower, aware analysis, serialization) on a mirror
///    cache. All three answers must be byte-identical. The traced pass
///    traces the warm-up too: its cache misses are where the API-aware
///    analysis runs.
///
//===----------------------------------------------------------------------===//

#include "pbtool.h"

#include "artifact/ArtifactIO.h"
#include "artifact/Checkpoint.h"
#include "core/Candidates.h"
#include "core/Learner.h"
#include "core/Naming.h"
#include "corpus/Dedup.h"
#include "distrib/Router.h"
#include "distrib/Wire.h"
#include "eventgraph/EventGraph.h"
#include "ir/Lowering.h"
#include "lang/Diagnostics.h"
#include "lang/Parser.h"
#include "model/EdgeModel.h"
#include "pointsto/Analysis.h"
#include "service/Cache.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "support/Hashing.h"
#include "support/Random.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

namespace pb {
namespace {

using namespace uspec;

std::map<std::string, std::string> parseOptions(int Argc, char **Argv,
                                                const char *Cmd) {
  std::map<std::string, std::string> Opts;
  for (int I = 0; I + 1 < Argc; I += 2)
    Opts[Argv[I]] = Argv[I + 1];
  if (Argc % 2)
    throw std::runtime_error(std::string(Cmd) + ": odd option list");
  return Opts;
}

const std::string &need(const std::map<std::string, std::string> &Opts,
                        const char *Key) {
  auto It = Opts.find(Key);
  if (It == Opts.end())
    throw std::runtime_error(std::string("missing option ") + Key);
  return It->second;
}

double get(const std::map<std::string, double> &M, const char *Key) {
  auto It = M.find(Key);
  return It == M.end() ? 0.0 : It->second;
}

/// Layer spans are named `<module>.<step>`; the per-request root span
/// ("request") holds only the replay's own glue.
bool isLayerSpan(const std::string &Name) {
  return Name.find('.') != std::string::npos;
}

//===----------------------------------------------------------------------===//
// train
//===----------------------------------------------------------------------===//

struct TrainCounts {
  double SourceBytes = 0, Objects = 0, Events = 0, GraphEvents = 0,
         Samples = 0, ReceiverPairs = 0, Matches = 0, Candidates = 0,
         ArtifactBytes = 0;
};

/// tools/uspec.cpp `train FILES -o OUT` (defaults: tau 0.6, seed 0xC0FFEE)
/// with USpecLearner::learn at one thread, call for call.
std::string replayTrain(const std::vector<std::string> &Files,
                        const std::string &OutPath, Tracer &T,
                        TrainCounts &C) {
  StringInterner Strings;
  std::vector<IRProgram> Corpus;
  CorpusManifest Manifest;
  Corpus.reserve(Files.size());
  for (size_t I = 0; I < Files.size(); ++I) {
    uint32_t Req = static_cast<uint32_t>(I);
    std::string Source;
    {
      Scope S(T, "cli.read", Req);
      if (!readWholeFile(Files[I], Source))
        throw std::runtime_error("cannot read " + Files[I]);
    }
    C.SourceBytes += static_cast<double>(Source.size());
    DiagnosticSink Diags;
    std::optional<Module> M;
    {
      Scope S(T, "lang.parse", Req);
      M = Parser::parse(Source, Files[I], Diags);
    }
    if (!M || Diags.hasErrors())
      throw std::runtime_error("parse error in " + Files[I]);
    std::optional<IRProgram> P;
    {
      Scope S(T, "ir.lower", Req);
      P = lowerModule(*M, Strings, Diags);
    }
    if (!P)
      throw std::runtime_error("lowering error in " + Files[I]);
    {
      Scope S(T, "cli.teardown", Req);
      M.reset();
      Source = std::string();
    }
    {
      Scope S(T, "corpus.fingerprint", Req);
      Manifest.Entries.push_back({Files[I], programFingerprint(*P)});
    }
    Corpus.push_back(std::move(*P));
  }

  LearnerConfig Cfg;
  Cfg.Threads = 1;
  LearnResult Result;
  Result.Model = EdgeModel(Cfg.Model);
  const size_t N = Corpus.size();
  std::vector<std::unique_ptr<AnalysisResult>> Analyses(N);
  std::vector<EventGraph> Graphs(N);
  std::vector<std::vector<TrainingSample>> PerProgram(N);
  for (size_t I = 0; I < N; ++I) {
    uint32_t Req = static_cast<uint32_t>(I);
    {
      Scope S(T, "pointsto.analyze", Req);
      Analyses[I] = std::make_unique<AnalysisResult>(
          analyzeProgram(Corpus[I], Strings, Cfg.Analysis));
    }
    if (Analyses[I]->Bounded)
      throw std::runtime_error("unbudgeted analysis came back bounded");
    C.Objects += static_cast<double>(Analyses[I]->Objects.size());
    C.Events += static_cast<double>(Analyses[I]->Events.size());
    {
      Scope S(T, "eventgraph.build", Req);
      Graphs[I] = EventGraph::build(*Analyses[I]);
    }
    C.GraphEvents += static_cast<double>(Graphs[I].numEvents());
    {
      Scope S(T, "model.collect", Req);
      Rng Rand(hashValues(Cfg.Seed, I));
      collectTrainingSamples(Graphs[I], Rand, PerProgram[I]);
    }
  }

  std::vector<TrainingSample> Samples;
  {
    Scope S(T, "model.train", 0);
    for (std::vector<TrainingSample> &Local : PerProgram) {
      Samples.insert(Samples.end(), std::make_move_iterator(Local.begin()),
                     std::make_move_iterator(Local.end()));
      Local.clear();
    }
    Result.NumTrainingSamples = Samples.size();
    Result.Model.train(Samples);
  }
  {
    Scope S(T, "model.accuracy", 0);
    Result.TrainAccuracy = Result.Model.accuracy(Samples);
  }
  C.Samples = static_cast<double>(Samples.size());

  CandidateCollector Collector(Result.Model, Cfg.DistanceBound,
                               Cfg.ExperimentalPatterns);
  for (size_t I = 0; I < N; ++I) {
    Scope S(T, "core.extract", static_cast<uint32_t>(I));
    Collector.addGraph(Graphs[I], static_cast<uint32_t>(I));
  }
  C.ReceiverPairs = static_cast<double>(Collector.numReceiverPairs());
  C.Matches = static_cast<double>(Collector.numMatches());
  C.Candidates = static_cast<double>(Collector.candidates().size());
  {
    Scope S(T, "core.score", 0);
    const std::vector<Spec> &Order = Collector.candidates();
    Result.Candidates.resize(Order.size());
    for (size_t I = 0; I < Order.size(); ++I) {
      const CandidateStats &Stats = Collector.stats().at(Order[I]);
      ScoredCandidate SC;
      SC.S = Order[I];
      SC.Score = scoreCandidate(Stats, Cfg.Scoring, Cfg.TopK);
      if (Cfg.Scoring == ScoreKind::NameAware)
        SC.Score = blendWithNamingPrior(SC.Score, namingPrior(SC.S, Strings));
      SC.Matches = Stats.Matches;
      SC.Programs = Stats.Programs;
      SC.NumConfidences = Stats.Confidences.size();
      Result.Candidates[I] = std::move(SC);
    }
    std::stable_sort(Result.Candidates.begin(), Result.Candidates.end(),
                     [](const ScoredCandidate &A, const ScoredCandidate &B) {
                       if (A.Score != B.Score)
                         return A.Score > B.Score;
                       return A.Matches > B.Matches;
                     });
  }
  {
    Scope S(T, "core.select", 0);
    Result.Selected =
        USpecLearner::select(Result.Candidates, Cfg.Tau, Cfg.ExtendConsistency,
                             &Result.AddedByExtension);
    Result.Ledger = CandidateLedger::fromCollector(Collector);
  }
  std::string Bytes;
  {
    Scope S(T, "artifact.encode", 0);
    Bytes = saveLearnArtifacts(Result, Cfg, Strings, Manifest);
  }
  {
    Scope S(T, "artifact.write", 0);
    std::string Err;
    if (!writeFileAtomic(OutPath, Bytes, &Err))
      throw std::runtime_error(Err);
  }
  C.ArtifactBytes = static_cast<double>(Bytes.size());
  {
    // What the CLI pays when cmdLearnOrTrain's locals go out of scope.
    Scope S(T, "cli.teardown", 0);
    std::vector<std::unique_ptr<AnalysisResult>>().swap(Analyses);
    std::vector<EventGraph>().swap(Graphs);
    std::vector<TrainingSample>().swap(Samples);
    std::vector<IRProgram>().swap(Corpus);
    Result = LearnResult();
  }
  return Bytes;
}

} // namespace

/// `pbtool trace-train --files LIST --reference REF --out OUT --trace-out
/// TRACE`: prints one JSON object of per-layer metrics; trace.failed counts
/// the passes whose artifact differs from REF.
int cmdTraceTrain(int Argc, char **Argv) {
  auto Opts = parseOptions(Argc, Argv, "trace-train");
  std::vector<std::string> Files;
  std::string Reference;
  if (!readLines(need(Opts, "--files"), Files) ||
      !readWholeFile(need(Opts, "--reference"), Reference))
    throw std::runtime_error("cannot read --files or --reference");
  const std::string &OutPath = need(Opts, "--out");

  TrainCounts Counts;
  Tracer Off(false), On(true);
  int Failed = 0;
  double Wall[3];
  for (int Pass = 0; Pass < 3; ++Pass) {
    Counts = TrainCounts();
    int64_t T0 = nowNs();
    Failed += replayTrain(Files, OutPath, Pass == 1 ? On : Off, Counts) !=
              Reference;
    Wall[Pass] = static_cast<double>(nowNs() - T0) * 1e-9;
  }
  if (!On.writeChromeTrace(need(Opts, "--trace-out")))
    throw std::runtime_error("cannot write the trace");

  double TracedS = Wall[1], UntracedS = Wall[2];
  std::map<std::string, double> Self = On.selfSeconds();
  double Attributed = 0;
  for (const auto &[Name, Secs] : Self)
    if (isLayerSpan(Name))
      Attributed += Secs;
  Metrics M = {
      {"cli.read_s", get(Self, "cli.read")},
      {"cli.teardown_s", get(Self, "cli.teardown")},
      {"lang.parse_s", get(Self, "lang.parse")},
      {"lang.source_bytes", Counts.SourceBytes},
      {"ir.lower_s", get(Self, "ir.lower")},
      {"corpus.fingerprint_s", get(Self, "corpus.fingerprint")},
      {"pointsto.analyze_s", get(Self, "pointsto.analyze")},
      {"pointsto.objects", Counts.Objects},
      {"pointsto.events", Counts.Events},
      {"eventgraph.build_s", get(Self, "eventgraph.build")},
      {"eventgraph.events", Counts.GraphEvents},
      {"model.collect_s", get(Self, "model.collect")},
      {"model.samples", Counts.Samples},
      {"model.train_s", get(Self, "model.train")},
      {"model.accuracy_s", get(Self, "model.accuracy")},
      {"core.extract_s", get(Self, "core.extract")},
      {"core.receiver_pairs", Counts.ReceiverPairs},
      {"core.matches", Counts.Matches},
      {"core.candidates", Counts.Candidates},
      {"core.score_s", get(Self, "core.score")},
      {"core.select_s", get(Self, "core.select")},
      {"artifact.encode_s", get(Self, "artifact.encode")},
      {"artifact.write_s", get(Self, "artifact.write")},
      {"artifact.bytes", Counts.ArtifactBytes},
      {"trace.traced_s", TracedS},
      {"trace.untraced_s", UntracedS},
      {"trace.overhead_pct", 100.0 * (TracedS - UntracedS) / UntracedS},
      {"trace.unattributed_pct", 100.0 * (TracedS - Attributed) / TracedS},
      {"trace.checks", 3},
      {"trace.failed", static_cast<double>(Failed)},
  };
  std::printf("%s\n", metricsJson(M).c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

namespace {

/// Two in-process replicas serving Unix sockets, the router over them, and
/// the mirrors the decomposition runs on.
class Fleet {
public:
  Fleet(const service::ModelState &Model, service::ServerConfig Cfg,
        const std::string &SockDir, unsigned Replicas)
      : Model(Model) {
    distrib::RouterConfig RCfg;
    for (unsigned I = 0; I < Replicas; ++I) {
      std::string Path = SockDir + "/replica" + std::to_string(I) + ".sock";
      RCfg.Replicas.push_back(Path);
      Servers.push_back(std::make_unique<service::Server>(Cfg, Model));
      Mirrors.push_back(std::make_unique<service::Server>(Cfg, Model));
      Caches.push_back(std::make_unique<service::AnalysisCache>(
          Cfg.CacheCapacity, Cfg.CacheShards));
    }
    for (unsigned I = 0; I < Replicas; ++I)
      Threads.emplace_back([this, I, Path = RCfg.Replicas[I]] {
        Servers[I]->serveUnixSocket(Path, &Stop);
      });
    R = std::make_unique<distrib::Router>(RCfg);
    // The router marks a replica down on a failed forward; wait until every
    // replica answers before the first routed request.
    for (const std::string &Path : RCfg.Replicas) {
      std::string Resp;
      int64_t Deadline = nowNs() + 10'000'000'000LL;
      while (!distrib::clientRoundTrip(Path, "{\"verb\":\"stats\"}", Resp)) {
        if (nowNs() > Deadline) {
          stop();
          throw std::runtime_error("in-process replica did not come up");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }

  ~Fleet() { stop(); }

  Fleet(const Fleet &) = delete;
  Fleet &operator=(const Fleet &) = delete;

  /// Source bytes of the requests that missed the mirror cache, and the
  /// number of fresh analyses they needed.
  struct Misses {
    double Bytes = 0;
    size_t Analyses = 0;
  };

  /// One request through the router, the mirror replica and the component
  /// functions. Returns false when the three answers disagree or the
  /// routed one is not an ok envelope.
  bool request(Tracer &T, uint32_t Id, const std::string &Line, Misses &Miss);

private:
  void stop() {
    Stop = 1;
    for (std::thread &T : Threads)
      if (T.joinable())
        T.join();
  }

  const service::ModelState &Model;
  std::vector<std::unique_ptr<service::Server>> Servers, Mirrors;
  std::vector<std::unique_ptr<service::AnalysisCache>> Caches;
  std::unique_ptr<distrib::Router> R;
  volatile int Stop = 0;
  std::vector<std::thread> Threads;
};

bool Fleet::request(Tracer &T, uint32_t Id, const std::string &Line,
                    Misses &Miss) {
  Scope Root(T, "request", Id);
  std::string Routed;
  {
    Scope S(T, "distrib.route", Id);
    Routed = R->handleLine(Line);
  }
  service::Request Req;
  std::string Err;
  bool Parsed;
  {
    Scope S(T, "service.protocol", Id);
    Parsed = service::parseRequest(Line, Req, &Err);
  }
  if (!Parsed)
    return false;
  size_t Owner = R->ownerOf(Req.Program);
  std::string Mirrored;
  {
    Scope S(T, "service.handle", Id);
    Mirrored = Mirrors[Owner]->handle(Line);
  }

  // Server::analysisFor, call for call, on the owner's mirror cache.
  service::AnalysisCache &Cache = *Caches[Owner];
  uint64_t SourceKey =
      hashValues(hashString(Req.Program), Req.Coverage ? 1ull : 0ull,
                 Model.Checksum);
  std::shared_ptr<const service::ProgramAnalysis> PA;
  {
    Scope S(T, "service.cache", Id);
    PA = Cache.findBySource(SourceKey);
  }
  if (!PA) {
    Miss.Bytes += static_cast<double>(Req.Program.size());
    service::ParsedProgram Prog;
    DiagnosticSink Diags;
    std::optional<Module> M;
    {
      Scope S(T, "lang.parse", Id);
      M = Parser::parse(Req.Program,
                        Req.Name.empty() ? "<query>" : Req.Name, Diags);
    }
    if (!M || Diags.hasErrors())
      return false;
    std::optional<IRProgram> P;
    {
      Scope S(T, "ir.lower", Id);
      P = lowerModule(*M, Prog.Strings, Diags);
    }
    if (!P)
      return false;
    {
      Scope S(T, "corpus.fingerprint", Id);
      Prog.Program = std::make_unique<IRProgram>(std::move(*P));
      Prog.Fingerprint = programFingerprint(*Prog.Program);
    }
    uint64_t FpKey = hashValues(Prog.Fingerprint, Req.Coverage ? 1ull : 0ull,
                                Model.Checksum);
    {
      Scope S(T, "service.cache", Id);
      PA = Cache.findByFingerprint(FpKey);
      if (PA)
        Cache.aliasSource(SourceKey, FpKey);
    }
    if (!PA) {
      // service::finishAnalysis, split at its layer boundaries.
      ++Miss.Analyses;
      auto Fresh = std::make_shared<service::ProgramAnalysis>();
      Fresh->Strings = std::move(Prog.Strings);
      Fresh->Program = std::move(Prog.Program);
      Fresh->Fingerprint = Prog.Fingerprint;
      Fresh->Coverage = Req.Coverage;
      {
        Scope S(T, "pointsto.aware_analyze", Id);
        Fresh->Specs = parseSpecs(Model.Specs.Text, Fresh->Strings);
        AnalysisOptions Options;
        Options.ApiAware = !Fresh->Specs.empty();
        Options.Specs = &Fresh->Specs;
        Options.CoverageExtension = Req.Coverage;
        Fresh->Result = std::make_unique<AnalysisResult>(
            analyzeProgram(*Fresh->Program, Fresh->Strings, Options));
      }
      {
        Scope S(T, "eventgraph.build", Id);
        Fresh->Graph =
            std::make_unique<EventGraph>(EventGraph::build(*Fresh->Result));
      }
      {
        Scope S(T, "service.serialize", Id);
        Fresh->AnalyzeJson = service::analyzePayload(*Fresh);
      }
      Scope S(T, "service.cache", Id);
      PA = Cache.insert(SourceKey, FpKey, std::move(Fresh));
    }
  }
  std::string Direct;
  {
    Scope S(T, "service.serialize", Id);
    Direct = service::okResponse(Req.Id, PA->AnalyzeJson, Req.TraceId);
  }
  return Routed == Direct && Mirrored == Direct &&
         Direct.find("\"ok\":true") != std::string::npos;
}

} // namespace

/// `pbtool trace-serve --model M --templates T --sequence S --warmup W
/// --count N --cache C --workers K --replicas R --sockdir D --trace-out
/// TRACE`: replays the requests the sequence names, W warm-up requests
/// (unmeasured, as the fleet run's warm-up) then N measured ones, and prints
/// per-layer metrics.
int cmdTraceServe(int Argc, char **Argv) {
  auto Opts = parseOptions(Argc, Argv, "trace-serve");
  std::vector<std::string> Bodies, SeqLines;
  if (!readLines(need(Opts, "--templates"), Bodies) || Bodies.empty())
    throw std::runtime_error("cannot read --templates");
  if (!readLines(need(Opts, "--sequence"), SeqLines) || SeqLines.empty())
    throw std::runtime_error("cannot read --sequence");
  std::vector<size_t> Sequence;
  for (const std::string &L : SeqLines)
    Sequence.push_back(std::stoul(L) % Bodies.size());
  size_t Warmup = std::stoul(need(Opts, "--warmup"));
  size_t Count = std::stoul(need(Opts, "--count"));
  const std::string &ModelPath = need(Opts, "--model");
  service::ServerConfig Cfg;
  Cfg.Workers = static_cast<unsigned>(std::stoul(need(Opts, "--workers")));
  Cfg.CacheCapacity = std::stoul(need(Opts, "--cache"));
  unsigned Replicas = static_cast<unsigned>(std::stoul(need(Opts, "--replicas")));

  // artifact.decode: the USPB decode every replica runs at start-up.
  std::string Bytes;
  if (!readWholeFile(ModelPath, Bytes))
    throw std::runtime_error("cannot read " + ModelPath);
  std::vector<double> Decode;
  for (int I = 0; I < 5; ++I) {
    StringInterner Strings;
    ArtifactError AErr;
    int64_t T0 = nowNs();
    if (!loadLearnArtifacts(Bytes, Strings, &AErr))
      throw std::runtime_error("model artifact does not decode");
    Decode.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
  }
  std::sort(Decode.begin(), Decode.end());
  std::string Err;
  std::optional<service::ModelState> Model =
      service::loadModelState(ModelPath, &Err);
  if (!Model)
    throw std::runtime_error(Err);

  auto LineAt = [&](size_t I) {
    return "{\"id\":" + std::to_string(I + 1) +
           Bodies[Sequence[I % Sequence.size()]];
  };
  std::filesystem::path SockDir = need(Opts, "--sockdir");
  size_t Failed = 0;
  Fleet::Misses WarmMiss, TimedMiss;
  size_t FirstTimedSpan = 0;
  double Wall[3] = {0, 0, 0};
  Tracer Off(false), On(true);
  for (int Pass = 0; Pass < 3; ++Pass) {
    Tracer &T = Pass == 1 ? On : Off;
    std::filesystem::path Dir = SockDir / ("pass" + std::to_string(Pass));
    std::filesystem::create_directories(Dir);
    Fleet F(*Model, Cfg, Dir.string(), Replicas);
    Fleet::Misses Warm, Timed;
    for (size_t I = 0; I < Warmup; ++I)
      Failed += !F.request(T, static_cast<uint32_t>(I + 1), LineAt(I), Warm);
    if (Pass == 1)
      FirstTimedSpan = T.size();
    int64_t T0 = nowNs();
    for (size_t I = Warmup; I < Warmup + Count; ++I)
      Failed += !F.request(T, static_cast<uint32_t>(I + 1), LineAt(I), Timed);
    Wall[Pass] = static_cast<double>(nowNs() - T0) * 1e-9;
    if (Pass == 1) {
      WarmMiss = Warm;
      TimedMiss = Timed;
    }
  }
  if (!On.writeChromeTrace(need(Opts, "--trace-out")))
    throw std::runtime_error("cannot write the trace");

  // The warm-up's spans give the miss path; the measured requests' spans
  // give everything else.
  std::map<std::string, double> WarmSelf = On.selfSeconds(0, FirstTimedSpan);
  std::map<std::string, double> Self = On.selfSeconds(FirstTimedSpan);
  std::map<std::string, double> Total = On.totalSeconds(FirstTimedSpan);
  double Attributed = 0;
  for (const auto &[Name, Secs] : Self)
    if (isLayerSpan(Name))
      Attributed += Secs;
  const double PerReqUs = 1e6 / static_cast<double>(Count);
  Metrics M = {
      {"lang.parse_s", get(Self, "lang.parse")},
      {"lang.source_bytes", TimedMiss.Bytes},
      {"ir.lower_s", get(Self, "ir.lower")},
      {"corpus.fingerprint_s", get(Self, "corpus.fingerprint")},
      {"pointsto.aware_analyze_us",
       WarmMiss.Analyses ? get(WarmSelf, "pointsto.aware_analyze") * 1e6 /
                               static_cast<double>(WarmMiss.Analyses)
                         : 0.0},
      {"eventgraph.build_s", get(Self, "eventgraph.build")},
      {"artifact.decode_s", Decode[Decode.size() / 2]},
      {"service.protocol_us", get(Self, "service.protocol") * PerReqUs},
      {"service.cache_probe_us", get(Self, "service.cache") * PerReqUs},
      {"service.serialize_us", get(Self, "service.serialize") * PerReqUs},
      {"service.handle_us", get(Total, "service.handle") * PerReqUs},
      {"distrib.forward_us",
       (get(Total, "distrib.route") - get(Total, "service.handle")) *
           PerReqUs},
      {"trace.traced_s", Wall[1]},
      {"trace.untraced_s", Wall[2]},
      {"trace.overhead_pct", 100.0 * (Wall[1] - Wall[2]) / Wall[2]},
      {"trace.unattributed_pct", 100.0 * (Wall[1] - Attributed) / Wall[1]},
      {"trace.checks", 3.0 * static_cast<double>(Warmup + Count)},
      {"trace.failed", static_cast<double>(Failed)},
  };
  std::printf("%s\n", metricsJson(M).c_str());
  return 0;
}

} // namespace pb
