//===- Server.cpp - Resident alias-query server ---------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "artifact/Checkpoint.h"
#include "support/EventLog.h"
#include "support/FaultInject.h"
#include "support/Hashing.h"
#include "support/ParallelFor.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <istream>
#include <ostream>
#include <sstream>

using namespace uspec;
using namespace uspec::service;

namespace {

const char *verbName(Verb V) {
  switch (V) {
  case Verb::Analyze: return "analyze";
  case Verb::Alias: return "alias";
  case Verb::Specs: return "specs";
  case Verb::Typestate: return "typestate";
  case Verb::Taint: return "taint";
  case Verb::Stats: return "stats";
  case Verb::Metrics: return "metrics";
  case Verb::Reload: return "reload";
  case Verb::Shutdown: return "shutdown";
  case Verb::CacheKeys: return "cachekeys";
  case Verb::TestBlock: return "test_block";
  }
  return "?";
}

} // namespace

//===----------------------------------------------------------------------===//
// Model state
//===----------------------------------------------------------------------===//

ModelState ModelState::make(ServiceSpecs Specs, uint64_t Generation,
                            std::string Source) {
  ModelState M;
  M.Checksum = hashString(Specs.Text);
  M.Specs = std::move(Specs);
  M.Generation = Generation;
  M.Source = std::move(Source);
  return M;
}

std::optional<ModelState> service::loadModelState(const std::string &Path,
                                                  std::string *Err) {
  try {
    USPEC_FAULT_POINT("service.reload.load");
  } catch (const FaultInjected &F) {
    if (Err)
      *Err = F.what();
    return std::nullopt;
  }
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    if (Err)
      *Err = "cannot open model '" + Path + "'";
    return std::nullopt;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Bytes = SS.str();

  if (Bytes.rfind("USPB", 0) == 0) {
    // Artifact: the container open validates per-section checksums, so a
    // torn or corrupt file is rejected here and the old model keeps
    // serving.
    StringInterner Strings;
    ArtifactError DecodeErr;
    std::optional<LearnArtifacts> A =
        loadLearnArtifacts(Bytes, Strings, &DecodeErr);
    if (!A) {
      if (Err)
        *Err = "artifact '" + Path + "': " + DecodeErr.str();
      return std::nullopt;
    }
    uint64_t Generation =
        A->Lineage ? A->Lineage->Generation : A->Manifest.Generation;
    return ModelState::make(
        ServiceSpecs::fromSpecSet(A->Result.Selected, Strings), Generation,
        Path);
  }

  size_t BadLine = 0;
  std::optional<ServiceSpecs> Specs = ServiceSpecs::fromText(Bytes, &BadLine);
  if (!Specs) {
    if (Err)
      *Err = "spec file '" + Path + "': malformed spec on line " +
             std::to_string(BadLine);
    return std::nullopt;
  }
  return ModelState::make(std::move(*Specs), 0, Path);
}

Server::Server(ServerConfig ConfigIn, ServiceSpecs SpecsIn)
    : Server(std::move(ConfigIn),
             ModelState::make(std::move(SpecsIn), 0, "inline")) {}

Server::Server(ServerConfig ConfigIn, ModelState ModelIn)
    : Config(ConfigIn),
      Model(std::make_shared<const ModelState>(std::move(ModelIn))),
      Cache(Config.CacheCapacity, Config.CacheShards),
      Conns(Config.MaxRequestBytes, [this](std::string Line) {
        return submit(std::move(Line)).get();
      }) {
  EffectiveWorkers =
      Config.Workers ? Config.Workers
                     : std::max(1u, std::thread::hardware_concurrency());
  Workers.reserve(EffectiveWorkers + 4); // headroom for replacements
  for (unsigned I = 0; I < EffectiveWorkers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
  Watchdog = std::thread([this] { watchdogLoop(); });
}

Server::~Server() {
  releaseTestGate(); // never leave a parked worker behind
  drain();
}

std::future<std::string> Server::submit(std::string Line) {
  auto State = std::make_shared<JobState>();
  std::future<std::string> Future = State->Promise.get_future();
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (Draining) {
      Metrics.recordRejectedDraining();
      State->answer(errorResponse(
          "", "shutting_down", "server is draining; request rejected"));
      return Future;
    }
    if (Queue.size() >= Config.QueueCapacity) {
      // Explicit backpressure: answer now, never block the producer or
      // grow the queue past its bound.
      Metrics.recordOverloaded();
      State->answer(errorResponse(
          "", "overloaded",
          "admission queue full (capacity " +
              std::to_string(Config.QueueCapacity) + "); retry later"));
      return Future;
    }
    Metrics.recordAdmitted();
    TimePoint Now = std::chrono::steady_clock::now();
    // Deadline at admission time, from the request's own deadline_ms (raw
    // scan — a queued request must be able to expire without ever being
    // parsed) or the server default.
    uint64_t Ms = scanDeadlineMs(Line).value_or(Config.RequestTimeoutMs);
    // The raw id is scanned up front so error responses issued without a
    // parse (watchdog deadline, worker death) can still echo it.
    State->Id = scanRequestId(Line);
    if (Ms != 0) {
      State->Deadline = Now + std::chrono::milliseconds(Ms);
      State->HasDeadline = true;
    }
    Queue.push_back({std::move(Line), State, Now});
  }
  if (State->HasDeadline)
    watchJob(State);
  QueueCv.notify_one();
  return Future;
}

std::string Server::handle(std::string Line) {
  return submit(std::move(Line)).get();
}

bool Server::draining() const {
  std::lock_guard<std::mutex> Lock(QueueMutex);
  return Draining;
}

void Server::beginDrain() {
  std::lock_guard<std::mutex> Lock(QueueMutex);
  Draining = true;
}

void Server::drain() {
  beginDrain();
  {
    std::unique_lock<std::mutex> Lock(QueueMutex);
    DrainedCv.wait(Lock, [this] { return Queue.empty() && InFlight == 0; });
    StopWorkers = true;
  }
  QueueCv.notify_all();
  // Once StopWorkers is set no replacement workers can be spawned, so the
  // vector is stable; index loop in case a dying worker appended late.
  for (size_t I = 0; I < Workers.size(); ++I)
    if (Workers[I].joinable())
      Workers[I].join();
  {
    std::lock_guard<std::mutex> Lock(WatchMutex);
    StopWatchdog = true;
  }
  WatchCv.notify_all();
  if (Watchdog.joinable())
    Watchdog.join();
}

void Server::releaseTestGate() {
  {
    std::lock_guard<std::mutex> Lock(GateMutex);
    GateOpen = true;
  }
  GateCv.notify_all();
}

std::shared_ptr<const ModelState> Server::model() const {
  std::lock_guard<std::mutex> Lock(ModelMutex);
  return Model;
}

void Server::swapModel(ModelState NewModel) {
  auto Fresh = std::make_shared<const ModelState>(std::move(NewModel));
  uint64_t Generation = Fresh->Generation;
  size_t Specs = Fresh->Specs.Lines.size();
  {
    std::lock_guard<std::mutex> Lock(ModelMutex);
    Model = std::move(Fresh);
  }
  Metrics.recordModelReload();
  if (events::enabled())
    events::emit("reload", {{"generation", std::to_string(Generation)},
                            {"specs", std::to_string(Specs)}});
}

bool Server::reloadModel(std::string Path, std::string *Err) {
  // One reload at a time; queries are never blocked by this lock — they
  // read through model(), which only takes ModelMutex for a pointer copy.
  std::lock_guard<std::mutex> Lock(ReloadMutex);
  if (Path.empty())
    Path = Config.ModelPath;
  if (Path.empty()) {
    if (Err)
      *Err = "no model path: server was started without one and the "
             "request named none";
    return false;
  }
  std::optional<ModelState> Fresh = loadModelState(Path, Err);
  if (!Fresh)
    return false;
  swapModel(std::move(*Fresh));
  return true;
}

ModelInfo Server::modelInfo() const {
  std::shared_ptr<const ModelState> M = model();
  ModelInfo Info;
  Info.Generation = M->Generation;
  Info.Checksum = M->Checksum;
  Info.Specs = M->Specs.Lines.size();
  return Info;
}

std::string Server::statsJson() {
  size_t Depth = 0;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Depth = Queue.size();
  }
  return Metrics.json(EffectiveWorkers, Depth, Config.QueueCapacity,
                      Cache.stats(), modelInfo());
}

std::string Server::metricsText() {
  size_t Depth = 0;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Depth = Queue.size();
  }
  return Metrics.prometheus(EffectiveWorkers, Depth, Config.QueueCapacity,
                            Cache.stats(), modelInfo());
}

void Server::workerLoop() {
  for (;;) {
    Job TheJob;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCv.wait(Lock, [this] { return !Queue.empty() || StopWorkers; });
      if (Queue.empty()) {
        if (StopWorkers)
          return;
        continue;
      }
      TheJob = std::move(Queue.front());
      Queue.pop_front();
      ++InFlight;
    }
    TimePoint Popped = std::chrono::steady_clock::now();
    double QueueSeconds =
        std::chrono::duration<double>(Popped - TheJob.Admitted).count();
    Metrics.recordQueueWait(QueueSeconds);
    if (trace::enabled()) {
      std::vector<std::pair<const char *, std::string>> Args;
      if (!TheJob.State->Id.empty())
        Args.emplace_back("id", TheJob.State->Id);
      trace::completeEvent("service.queue_wait", TheJob.Admitted, Popped,
                           std::move(Args));
    }
    // Expired (or otherwise already answered) while queued: skip the work,
    // the watchdog has resolved the promise.
    if (TheJob.State->Answered.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      --InFlight;
      if (Queue.empty() && InFlight == 0)
        DrainedCv.notify_all();
      continue;
    }
    std::string Response;
    RequestInfo Info;
    {
      TraceSpan Span("service.request");
      try {
        // Injected worker death (`service.worker`): FaultInjected propagates
        // to the catch below, which replaces this worker and exits the thread
        // — from the outside, the worker crashed mid-request.
        USPEC_FAULT_POINT("service.worker");
        Response = handleRequest(TheJob.Line, TheJob, &Info);
      } catch (const FaultInjected &) {
        replaceDeadWorker(TheJob);
        return;
      } catch (const std::exception &E) {
        // Any other escape is answered `internal`; the worker survives.
        Response = errorResponse("", "internal",
                                 std::string("request failed: ") + E.what());
      }
      if (Span.active()) {
        Span.arg("verb", Info.Verb);
        if (!TheJob.State->Id.empty())
          Span.arg("id", TheJob.State->Id);
        if (!Info.TraceId.empty())
          Span.arg("trace_id", Info.TraceId);
      }
    }
    double Seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - TheJob.Admitted)
                         .count();
    // "ok" is decided by the envelope the handler chose.
    bool Ok = Response.find("\"ok\":true") != std::string::npos;
    if (TheJob.State->answer(std::move(Response))) {
      Metrics.recordCompleted(Seconds, Ok);
      if (Config.SlowRequestMs != 0 &&
          Seconds * 1e3 >= static_cast<double>(Config.SlowRequestMs))
        logSlowRequest(Info, TheJob, Seconds, QueueSeconds, Ok);
    }
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      --InFlight;
      if (Queue.empty() && InFlight == 0)
        DrainedCv.notify_all();
    }
  }
}

void Server::replaceDeadWorker(Job &TheJob) {
  Metrics.recordWorkerDeath();
  if (events::enabled())
    events::emit("worker_death", {{"request", TheJob.State->Id}});
  TheJob.State->answer(errorResponse(
      TheJob.State->Id, "internal",
      "worker died while processing this request; a replacement was "
      "started"));
  std::lock_guard<std::mutex> Lock(QueueMutex);
  // InFlight bookkeeping and the replacement spawn are one critical
  // section: when drain() sees InFlight == 0, the pool is already whole.
  --InFlight;
  if (!StopWorkers)
    Workers.emplace_back([this] { workerLoop(); });
  if (Queue.empty() && InFlight == 0)
    DrainedCv.notify_all();
}

void Server::logSlowRequest(const RequestInfo &Info, const Job &TheJob,
                            double TotalSeconds, double QueueSeconds,
                            bool Ok) {
  // One key=value line per slow request, machine-greppable. The id is the
  // raw JSON token the client sent (so string ids appear quoted).
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "uspec-slow verb=%s total_ms=%.3f queue_ms=%.3f ok=%s",
                Info.Verb, TotalSeconds * 1e3, QueueSeconds * 1e3,
                Ok ? "true" : "false");
  std::string Line = Buf;
  if (!TheJob.State->Id.empty())
    Line += " id=" + TheJob.State->Id;
  if (!Info.TraceId.empty())
    Line += " trace_id=" + Info.TraceId;
  Line += "\n";
  std::ostream &Out = Config.SlowLog ? *Config.SlowLog : std::cerr;
  std::lock_guard<std::mutex> Lock(SlowLogMutex);
  Out << Line;
  Out.flush();
}

void Server::watchJob(std::shared_ptr<JobState> State) {
  {
    std::lock_guard<std::mutex> Lock(WatchMutex);
    Watched.push_back(std::move(State));
  }
  WatchCv.notify_all();
}

void Server::watchdogLoop() {
  std::unique_lock<std::mutex> Lock(WatchMutex);
  for (;;) {
    // Sleep until the earliest pending deadline (or a new registration).
    TimePoint Earliest = TimePoint::max();
    for (const auto &S : Watched)
      if (!S->Answered.load(std::memory_order_acquire) &&
          S->Deadline < Earliest)
        Earliest = S->Deadline;
    if (StopWatchdog)
      return;
    if (Earliest == TimePoint::max())
      WatchCv.wait(Lock);
    else
      WatchCv.wait_until(Lock, Earliest);
    if (StopWatchdog)
      return;

    TimePoint Now = std::chrono::steady_clock::now();
    for (auto &S : Watched) {
      if (S->Answered.load(std::memory_order_acquire) || S->Deadline > Now)
        continue;
      // Over deadline: answer with a structured error. The worker (if any)
      // keeps running — its eventual answer() is a no-op — and frees up on
      // its own via the cooperative budget.
      if (S->answer(errorResponse(S->Id, "deadline_exceeded",
                                  "request exceeded its deadline")))
        Metrics.recordDeadlineExceeded();
    }
    // Drop resolved entries.
    Watched.erase(std::remove_if(Watched.begin(), Watched.end(),
                                 [](const std::shared_ptr<JobState> &S) {
                                   return S->Answered.load(
                                       std::memory_order_acquire);
                                 }),
                  Watched.end());
  }
}

std::string Server::handleRequest(const std::string &Line, const Job &TheJob,
                                  RequestInfo *Info) {
  if (Line.size() > Config.MaxRequestBytes)
    return errorResponse("", "oversized",
                         "request line of " + std::to_string(Line.size()) +
                             " bytes exceeds the " +
                             std::to_string(Config.MaxRequestBytes) +
                             "-byte limit");
  Request R;
  std::string Err;
  if (!parseRequest(Line, R, &Err, Config.EnableTestVerbs))
    return errorResponse(R.Id, "bad_request", Err, R.TraceId);
  if (Info) {
    Info->Verb = verbName(R.TheVerb);
    Info->TraceId = R.TraceId;
  }

  // Per-request budget: the step cap bounds analysis work; the deadline
  // (request's own, else the server default) makes the worker notice an
  // expiry cooperatively even when the admission-time scan missed it.
  Budget B;
  bool UseBudget = false;
  if (Config.MaxStepsPerRequest != 0) {
    B.setStepLimit(Config.MaxStepsPerRequest);
    UseBudget = true;
  }
  uint64_t Ms = R.DeadlineMs ? R.DeadlineMs : Config.RequestTimeoutMs;
  if (Ms != 0) {
    B.setDeadlinePoint(TheJob.Admitted + std::chrono::milliseconds(Ms));
    UseBudget = true;
  }
  std::string Response = handleParsed(R, UseBudget ? &B : nullptr);
  if (B.exhausted() && std::string_view(B.reason()) == "deadline")
    return errorResponse(R.Id, "deadline_exceeded",
                         "request exceeded its deadline", R.TraceId);
  return Response;
}

std::string Server::handleParsed(const Request &R, Budget *B) {
  // One model snapshot per request: every verb below answers under exactly
  // one generation, even if a reload lands mid-request.
  std::shared_ptr<const ModelState> M = model();
  // Verb-specific payload rendering is wrapped in a `service.serialize`
  // span; analyze's payload is memoized in the cached analysis (serialized
  // inside the `service.analyze` span on the miss that produced it).
  auto Serialized = [](auto &&Render) {
    TraceSpan Span("service.serialize");
    return Render();
  };
  switch (R.TheVerb) {
  case Verb::Analyze: {
    std::string Err;
    auto PA = analysisFor(*M, R.Program, R.Name, R.Coverage, R.NoCache, &Err, B);
    if (!PA)
      return errorResponse(R.Id, "parse_error", Err, R.TraceId);
    return okResponse(R.Id, PA->AnalyzeJson, R.TraceId);
  }
  case Verb::Alias: {
    std::string Err;
    auto PA = analysisFor(*M, R.Program, R.Name, R.Coverage, R.NoCache, &Err, B);
    if (!PA)
      return errorResponse(R.Id, "parse_error", Err, R.TraceId);
    return okResponse(
        R.Id, Serialized([&] { return aliasPayload(*PA, R.A, R.B); }),
        R.TraceId);
  }
  case Verb::Typestate: {
    std::string Err;
    auto PA = analysisFor(*M, R.Program, R.Name, R.Coverage, R.NoCache, &Err, B);
    if (!PA)
      return errorResponse(R.Id, "parse_error", Err, R.TraceId);
    return okResponse(
        R.Id,
        Serialized([&] { return typestatePayload(*PA, R.Check, R.Use); }),
        R.TraceId);
  }
  case Verb::Taint: {
    std::string Err;
    auto PA = analysisFor(*M, R.Program, R.Name, R.Coverage, R.NoCache, &Err, B);
    if (!PA)
      return errorResponse(R.Id, "parse_error", Err, R.TraceId);
    return okResponse(R.Id, Serialized([&] {
                        return taintPayload(*PA, R.Sources, R.Sinks,
                                            R.Sanitizers);
                      }),
                      R.TraceId);
  }
  case Verb::Specs:
    return okResponse(R.Id,
                      Serialized([&] { return specsPayload(M->Specs); }),
                      R.TraceId);
  case Verb::Reload: {
    std::string Err;
    if (!reloadModel(R.ModelPath, &Err))
      return errorResponse(R.Id, "reload_failed", Err, R.TraceId);
    ModelInfo Info = modelInfo();
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"generation\":%llu,\"specs\":%zu,"
                  "\"checksum\":\"%016llx\"}",
                  static_cast<unsigned long long>(Info.Generation),
                  Info.Specs, static_cast<unsigned long long>(Info.Checksum));
    return okResponse(R.Id, Buf, R.TraceId);
  }
  case Verb::Stats:
    return okResponse(R.Id, Serialized([&] { return statsJson(); }),
                      R.TraceId);
  case Verb::Metrics: {
    // The exposition text travels as a JSON string result.
    std::string Payload;
    {
      TraceSpan Span("service.serialize");
      appendJsonString(Payload, metricsText());
    }
    return okResponse(R.Id, Payload, R.TraceId);
  }
  case Verb::CacheKeys: {
    // Resident cache keys (hottest-first per shard), rendered as fixed-width
    // hex — the router's warm-handoff verification reads these to check a
    // rejoined replica was actually warmed.
    return okResponse(R.Id, Serialized([&] {
                        std::vector<uint64_t> Keys =
                            Cache.hotFingerprints(256);
                        std::string Payload =
                            "{\"count\":" + std::to_string(Keys.size()) +
                            ",\"keys\":[";
                        char Buf[32];
                        for (size_t I = 0; I < Keys.size(); ++I) {
                          if (I)
                            Payload += ',';
                          std::snprintf(
                              Buf, sizeof(Buf), "\"%016llx\"",
                              static_cast<unsigned long long>(Keys[I]));
                          Payload += Buf;
                        }
                        Payload += "]}";
                        return Payload;
                      }),
                      R.TraceId);
  }
  case Verb::Shutdown:
    beginDrain();
    return okResponse(R.Id, "{\"draining\":true}", R.TraceId);
  case Verb::TestBlock: {
    std::unique_lock<std::mutex> Lock(GateMutex);
    GateCv.wait(Lock, [this] { return GateOpen; });
    return okResponse(R.Id, "{\"blocked\":true}", R.TraceId);
  }
  }
  return errorResponse(R.Id, "internal", "unhandled verb", R.TraceId);
}

std::shared_ptr<const ProgramAnalysis>
Server::analysisFor(const ModelState &M, const std::string &Program,
                    const std::string &Name, bool Coverage, bool NoCache,
                    std::string *Error, Budget *B) {
  // Keys mix program identity, the per-request analysis option and the
  // model checksum: entries computed under a swapped-out generation can
  // never answer requests under this one (they age out via LRU).
  uint64_t SourceKey =
      hashValues(hashString(Program), Coverage ? 1ull : 0ull, M.Checksum);
  {
    TraceSpan Probe("service.cache_probe");
    if (auto PA = Cache.findBySource(SourceKey)) {
      Metrics.recordCacheHit();
      return PA;
    }
  }
  auto Parsed = [&] {
    TraceSpan Span("service.parse");
    return parseProgram(Program, Name, Error);
  }();
  if (!Parsed)
    return nullptr;
  uint64_t FpKey =
      hashValues(Parsed->Fingerprint, Coverage ? 1ull : 0ull, M.Checksum);
  {
    TraceSpan Probe("service.cache_probe");
    if (auto PA = Cache.findByFingerprint(FpKey)) {
      // Textually new, structurally known: remember the alias so the next
      // byte-identical submission skips the parse too.
      if (!NoCache)
        Cache.aliasSource(SourceKey, FpKey);
      Metrics.recordCacheHit();
      return PA;
    }
  }
  Metrics.recordCacheMiss();
  std::shared_ptr<const ProgramAnalysis> PA;
  {
    TraceSpan Span("service.analyze");
    TimePoint T0 = std::chrono::steady_clock::now();
    PA = finishAnalysis(std::move(*Parsed), M.Specs, Coverage, B);
    Metrics.recordAnalyze(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - T0)
                              .count());
  }
  // A Bounded (budget-exhausted) result is a degraded ⊤ answer specific to
  // this request's budget; caching it would poison later requests with
  // imprecise payloads.
  if (PA->Result->Bounded)
    return PA;
  // `no_cache` (the router's hedged-request dedup rule): answer, but leave
  // this partition's cache untouched — a non-owner replica must not adopt
  // keys the ring assigns elsewhere.
  if (NoCache)
    return PA;
  return Cache.insert(SourceKey, FpKey, std::move(PA));
}

//===----------------------------------------------------------------------===//
// Stream transport (stdin/stdout)
//===----------------------------------------------------------------------===//

int Server::serveStream(std::istream &In, std::ostream &Out) {
  // Responses are written in request order by a dedicated writer, so
  // clients may pipeline without matching ids. The pending window is
  // bounded: the reader blocks once responses outpace the consumer, which
  // is the correct backpressure for a full output pipe.
  const size_t PendingBound = Config.QueueCapacity + EffectiveWorkers + 8;
  std::mutex PendingMutex;
  std::condition_variable PendingCv;
  std::deque<std::future<std::string>> Pending;
  bool ReaderDone = false;

  std::thread Writer([&] {
    for (;;) {
      std::future<std::string> F;
      {
        std::unique_lock<std::mutex> Lock(PendingMutex);
        PendingCv.wait(Lock,
                       [&] { return !Pending.empty() || ReaderDone; });
        if (Pending.empty())
          return; // ReaderDone and nothing left
        F = std::move(Pending.front());
        Pending.pop_front();
      }
      PendingCv.notify_all(); // window space freed
      Out << F.get() << "\n";
      Out.flush();
    }
  });

  std::string Line;
  while (!draining() && std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::future<std::string> F = submit(std::move(Line));
    Line.clear();
    {
      std::unique_lock<std::mutex> Lock(PendingMutex);
      PendingCv.wait(Lock, [&] { return Pending.size() < PendingBound; });
      Pending.push_back(std::move(F));
    }
    PendingCv.notify_all();
  }
  {
    std::lock_guard<std::mutex> Lock(PendingMutex);
    ReaderDone = true;
  }
  PendingCv.notify_all();
  Writer.join();
  drain();
  return 0;
}

//===----------------------------------------------------------------------===//
// Unix-domain socket transport
//===----------------------------------------------------------------------===//

int Server::serveUnixSocket(const std::string &Path,
                            const volatile int *StopFlag,
                            volatile int *ReloadFlag) {
  if (!Conns.listen(Path))
    return 1;
  Conns.run(
      Config.AcceptPollMs,
      [&] { return draining() || (StopFlag && *StopFlag); },
      [&] {
        if (!ReloadFlag || !*ReloadFlag)
          return;
        // SIGHUP-driven hot swap, on the accept thread: workers keep
        // answering under the old snapshot for the duration of the load.
        *ReloadFlag = 0;
        std::string Err;
        if (reloadModel("", &Err)) {
          std::shared_ptr<const ModelState> M = model();
          std::fprintf(stderr,
                       "uspec-serve reloaded model generation=%llu specs=%zu "
                       "from %s\n",
                       static_cast<unsigned long long>(M->Generation),
                       M->Specs.Lines.size(), M->Source.c_str());
        } else {
          std::fprintf(stderr, "uspec-serve reload failed: %s\n",
                       Err.c_str());
        }
      });
  drain();
  return 0;
}
