//===- Router.cpp - Consistent-hash serving router ------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "distrib/Router.h"

#include "service/Protocol.h"
#include "support/EventLog.h"
#include "support/FaultInject.h"
#include "support/Hashing.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>
#include <thread>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace uspec;
using namespace uspec::distrib;

Router::Router(RouterConfig C)
    : Config(std::move(C)),
      Conns(service::DefaultMaxLineBytes,
            [this](std::string Line) { return handleLine(Line); }) {
  {
    struct timespec Ts;
    ::clock_gettime(CLOCK_REALTIME, &Ts);
    StartTimeUnix = static_cast<double>(Ts.tv_sec) +
                    static_cast<double>(Ts.tv_nsec) / 1e9;
    StartSteady = std::chrono::steady_clock::now();
  }
  size_t N = Config.Replicas.size();
  Down = std::make_unique<std::atomic<bool>[]>(N ? N : 1);
  for (size_t I = 0; I < N; ++I)
    Down[I].store(false, std::memory_order_relaxed);
  Warm.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Warm.push_back(std::make_unique<WarmSet>());
  Sup.resize(N);
  Pools.reserve(N);
  for (const std::string &Addr : Config.Replicas)
    Pools.push_back(std::make_unique<service::ConnPool>(Addr));
  // The ring is a pure function of (replica addresses, vnode count):
  // restarts and every router instance over the same fleet agree on
  // ownership. Removing a replica only reassigns the keys it owned — the
  // consistent-hashing property the stability test pins — and re-adding it
  // restores the exact original assignment (the rejoin inverse).
  Ring.reserve(N * Config.VirtualNodes);
  for (size_t I = 0; I < N; ++I) {
    uint64_t AddrHash = hashString(Config.Replicas[I]);
    for (unsigned V = 0; V < Config.VirtualNodes; ++V)
      Ring.push_back({hashValues(AddrHash, uint64_t(V)),
                      static_cast<uint32_t>(I)});
  }
  std::sort(Ring.begin(), Ring.end(), [](const RingPoint &A,
                                         const RingPoint &B) {
    return A.Point != B.Point ? A.Point < B.Point : A.Replica < B.Replica;
  });
}

size_t Router::ringBegin(std::string_view Program) const {
  uint64_t Key = hashString(Program);
  size_t Lo = 0, Hi = Ring.size();
  while (Lo < Hi) {
    size_t Mid = Lo + (Hi - Lo) / 2;
    if (Ring[Mid].Point < Key)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo == Ring.size() ? 0 : Lo; // wrap past the last point
}

size_t Router::ownerOf(std::string_view Program) const {
  if (Ring.empty())
    return numReplicas();
  return Ring[ringBegin(Program)].Replica;
}

size_t Router::liveOwnerOf(std::string_view Program) const {
  if (Ring.empty())
    return numReplicas();
  size_t Start = ringBegin(Program);
  for (size_t Step = 0; Step < Ring.size(); ++Step) {
    const RingPoint &P = Ring[(Start + Step) % Ring.size()];
    if (!Down[P.Replica].load(std::memory_order_relaxed))
      return P.Replica;
  }
  return numReplicas();
}

size_t Router::nextLiveOwnerAfter(std::string_view Program,
                                  size_t Exclude) const {
  if (Ring.empty())
    return numReplicas();
  size_t Start = ringBegin(Program);
  for (size_t Step = 0; Step < Ring.size(); ++Step) {
    const RingPoint &P = Ring[(Start + Step) % Ring.size()];
    if (P.Replica == Exclude ||
        Down[P.Replica].load(std::memory_order_relaxed))
      continue;
    return P.Replica;
  }
  return numReplicas();
}

void Router::markDown(size_t Replica) {
  if (Replica < numReplicas())
    Down[Replica].store(true, std::memory_order_relaxed);
}

void Router::markUp(size_t Replica) {
  if (Replica < numReplicas())
    Down[Replica].store(false, std::memory_order_relaxed);
}

bool Router::isDown(size_t Replica) const {
  return Replica < numReplicas() &&
         Down[Replica].load(std::memory_order_relaxed);
}

std::string Router::statsJson() const {
  std::string Out = "{\"replicas\":" + std::to_string(numReplicas());
  Out += ",\"down\":[";
  bool First = true;
  for (size_t I = 0; I < numReplicas(); ++I) {
    if (!isDown(I))
      continue;
    if (!First)
      Out += ',';
    First = false;
    Out += std::to_string(I);
  }
  Out += "],\"requests\":" + std::to_string(Requests.load());
  Out += ",\"forwarded\":" + std::to_string(Forwarded.load());
  Out += ",\"fanouts\":" + std::to_string(FanOuts.load());
  Out += ",\"broadcasts\":" + std::to_string(Broadcasts.load());
  Out += ",\"replica_down_errors\":" + std::to_string(ReplicaDownErrors.load());
  Out += ",\"bad_requests\":" + std::to_string(BadRequests.load());
  Out += ",\"hedged\":" + std::to_string(Hedged.load());
  Out += ",\"hedged_wins\":" + std::to_string(HedgedWins.load());
  Out += ",\"respawns\":" + std::to_string(Respawns.load());
  Out += ",\"rejoins\":" + std::to_string(Rejoins.load());
  Out += ",\"warm_replays\":" + std::to_string(WarmReplays.load());
  Out += ",\"probe_failures\":" + std::to_string(ProbeFailures.load());
  {
    double Uptime = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - StartSteady)
                        .count();
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), ",\"uptime_s\":%.3f", Uptime);
    Out += Buf;
    std::snprintf(Buf, sizeof(Buf), ",\"start_time_unix\":%.3f",
                  StartTimeUnix);
    Out += Buf;
  }
  Out += '}';
  return Out;
}

namespace {

/// Recovers the byte-exact result payload from a serve envelope. The probe
/// requests below carry no id, so the envelope is either the fixed prefix
/// or — when the fan-out propagated a client trace id — that prefix after
/// a leading `"trace_id"` member.
bool stripOkEnvelope(const std::string &Response, std::string &Payload) {
  static const std::string Marker = "\"ok\":true,\"result\":";
  if (Response.size() <= Marker.size() + 2 || Response.front() != '{' ||
      Response.back() != '}')
    return false;
  size_t Pos;
  if (Response.compare(1, Marker.size(), Marker) == 0) {
    Pos = 1 + Marker.size();
  } else if (Response.compare(1, 11, "\"trace_id\":") == 0) {
    size_t At = Response.find("," + Marker, 12);
    if (At == std::string::npos)
      return false;
    Pos = At + 1 + Marker.size();
  } else {
    return false;
  }
  Payload.assign(Response, Pos, Response.size() - Pos - 1);
  return true;
}

bool responseOk(const std::string &Response) {
  return Response.find("\"ok\":true") != std::string::npos;
}

} // namespace

//===----------------------------------------------------------------------===//
// Warm-cache handoff
//===----------------------------------------------------------------------===//

void Router::recordHotLine(size_t Replica, const service::Request &Req,
                           const std::string &Line) {
  if (Config.WarmKeys == 0 || Replica >= Warm.size())
    return;
  // Key on (program, options), not the raw line: the same program under a
  // different id is the same cache entry on the replica.
  uint64_t Key = hashValues(hashString(Req.Program),
                            Req.Coverage ? 1ull : 0ull);
  WarmSet &W = *Warm[Replica];
  std::lock_guard<std::mutex> Lock(W.Mu);
  for (auto It = W.Lru.begin(); It != W.Lru.end(); ++It) {
    if (It->Key == Key) {
      W.Lru.splice(W.Lru.begin(), W.Lru, It); // bump recency
      return;
    }
  }
  W.Lru.push_front({Key, Line});
  while (W.Lru.size() > Config.WarmKeys)
    W.Lru.pop_back();
}

size_t Router::replayWarmKeys(size_t Replica) {
  if (Config.WarmKeys == 0 || Replica >= Warm.size())
    return 0;
  std::vector<std::string> Lines;
  {
    WarmSet &W = *Warm[Replica];
    std::lock_guard<std::mutex> Lock(W.Mu);
    Lines.reserve(W.Lru.size());
    for (const HotEntry &E : W.Lru)
      Lines.push_back(E.Line);
  }
  size_t Replayed = 0;
  for (const std::string &Line : Lines) {
    std::string Response, Err;
    if (Pools[Replica]->roundTrip(Line, Response, &Err))
      ++Replayed;
  }
  WarmReplays.fetch_add(Replayed, std::memory_order_relaxed);
  return Replayed;
}

void Router::noteReplicaDown(size_t Replica, const char *Cause) {
  if (Replica >= numReplicas())
    return;
  bool Was = isDown(Replica);
  markDown(Replica);
  if (!Was && events::enabled())
    events::emit("replica_down", {{"replica", std::to_string(Replica)},
                                  {"addr", Config.Replicas[Replica]},
                                  {"cause", Cause}});
}

void Router::rejoinReplica(size_t Replica, const char *Via) {
  size_t Replayed = replayWarmKeys(Replica);
  if (events::enabled())
    events::emit("warm_replay", {{"replica", std::to_string(Replica)},
                                 {"replayed", std::to_string(Replayed)},
                                 {"via", Via}});
  markUp(Replica);
  Rejoins.fetch_add(1, std::memory_order_relaxed);
  if (events::enabled()) {
    events::emit("replica_up", {{"replica", std::to_string(Replica)},
                                {"addr", Config.Replicas[Replica]}});
    events::emit("rejoin", {{"replica", std::to_string(Replica)},
                            {"via", Via}});
  }
}

//===----------------------------------------------------------------------===//
// Supervisor: probe → respawn (backoff) → warm replay → rejoin
//===----------------------------------------------------------------------===//

/// Probe line for replica \p I. Probes carry a router-minted trace id so a
/// traced replica's request-lifecycle span attributes probe traffic to the
/// supervisor rather than to an anonymous client.
static std::string probeLineFor(size_t I) {
  return "{\"verb\":\"stats\",\"trace_id\":\"router-probe-" +
         std::to_string(I) + "\"}";
}

bool Router::recoverReplica(size_t Replica) {
  if (Replica >= numReplicas())
    return false;
  std::string Response, Err;
  bool ProbeOk =
      Pools[Replica]->roundTrip(probeLineFor(Replica), Response, &Err) &&
      responseOk(Response);
  if (!ProbeOk) {
    noteReplicaDown(Replica, "recover_probe");
    return false;
  }
  if (isDown(Replica)) {
    // Ring re-add discipline: replay the hot set BEFORE taking traffic, so
    // the rejoined replica serves warm from its first routed request.
    rejoinReplica(Replica, "recover");
    std::lock_guard<std::mutex> Lock(SupMu);
    Sup[Replica].Attempts = 0;
  }
  return true;
}

void Router::spawnReplica(size_t Replica) {
  std::string Cmd = Config.RespawnCmd;
  const std::string Placeholder = "{socket}";
  for (size_t Pos = 0;
       (Pos = Cmd.find(Placeholder, Pos)) != std::string::npos;) {
    Cmd.replace(Pos, Placeholder.size(), Config.Replicas[Replica]);
    Pos += Config.Replicas[Replica].size();
  }
  // Double fork: the grandchild execs and is orphaned to init, so the
  // router never accumulates zombies and never installs a SIGCHLD handler
  // (which would break popen/pclose in embedding processes).
  pid_t Child = ::fork();
  if (Child == 0) {
    pid_t Grand = ::fork();
    if (Grand == 0) {
      // Every socket the router holds is close-on-exec (LineConn.h), so
      // none of them leaks into the replica.
      ::execl("/bin/sh", "sh", "-c", Cmd.c_str(), (char *)nullptr);
      ::_exit(127);
    }
    ::_exit(Grand < 0 ? 126 : 0);
  }
  if (Child > 0) {
    int Status = 0;
    ::waitpid(Child, &Status, 0);
  }
}

void Router::superviseTick() {
  using Clock = std::chrono::steady_clock;
  for (size_t I = 0; I < numReplicas(); ++I) {
    // A shutdown broadcast must never race a respawn back to life.
    if (StopRequested.load(std::memory_order_acquire))
      return;
    // Probe (fault site `router.probe`: soft/throw = this probe fails,
    // kill = the router dies at exactly this point).
    bool ProbeOk = false;
    try {
      if (!USPEC_FAULT_SOFT("router.probe")) {
        std::string Response, Err;
        ProbeOk = Pools[I]->roundTrip(probeLineFor(I), Response, &Err) &&
                  responseOk(Response);
      }
    } catch (const FaultInjected &) {
      ProbeOk = false;
    }

    if (ProbeOk) {
      if (isDown(I))
        rejoinReplica(I, "supervisor");
      std::lock_guard<std::mutex> Lock(SupMu);
      Sup[I].Attempts = 0;
      continue;
    }

    ProbeFailures.fetch_add(1, std::memory_order_relaxed);
    if (events::enabled())
      events::emit("probe_failure", {{"replica", std::to_string(I)},
                                     {"addr", Config.Replicas[I]}});
    noteReplicaDown(I, "probe");
    if (Config.RespawnCmd.empty())
      continue;

    // Deterministic seeded backoff between respawn attempts: attempt k of
    // replica i waits retryDelayMs(k, hash(seed, i)) — the same seed
    // reproduces the same schedule. The first attempt is immediate.
    auto Now = Clock::now();
    {
      std::lock_guard<std::mutex> Lock(SupMu);
      SupState &St = Sup[I];
      if (St.Attempts != 0 && Now < St.NextRespawn)
        continue;
      uint64_t Delay = service::retryDelayMs(
          St.Attempts, hashValues(Config.RespawnSeed, uint64_t(I)));
      St.NextRespawn = Now + std::chrono::milliseconds(Delay);
      ++St.Attempts;
    }
    Respawns.fetch_add(1, std::memory_order_relaxed);
    if (events::enabled()) {
      unsigned Attempt;
      {
        std::lock_guard<std::mutex> Lock(SupMu);
        Attempt = Sup[I].Attempts;
      }
      events::emit("respawn", {{"replica", std::to_string(I)},
                               {"addr", Config.Replicas[I]},
                               {"attempt", std::to_string(Attempt)}});
    }
    // Fault site `router.respawn`: soft/throw = this attempt fails (the
    // backoff keeps advancing), kill = the router dies here.
    try {
      if (USPEC_FAULT_SOFT("router.respawn"))
        continue;
    } catch (const FaultInjected &) {
      continue;
    }
    spawnReplica(I);
  }
}

//===----------------------------------------------------------------------===//
// Fan-out / broadcast
//===----------------------------------------------------------------------===//

std::string Router::fanOut(const std::string &Id, std::string_view TraceId,
                           bool Metrics) {
  FanOuts.fetch_add(1, std::memory_order_relaxed);
  // Probe *every* replica, including down ones: fan-out doubles as the
  // health re-probe, and a success re-adds the replica through the warm
  // rejoin path so routing recovers without operator action.
  std::string Probe =
      Metrics ? "{\"verb\":\"metrics\"}" : "{\"verb\":\"stats\"}";
  if (!TraceId.empty()) {
    // Propagate the client's trace id onto every probe leg, so replica-side
    // request spans for this fan-out stitch under the same trace.
    Probe.pop_back();
    Probe += ",\"trace_id\":";
    service::appendJsonString(Probe, TraceId);
    Probe += '}';
  }
  std::vector<std::pair<bool, std::string>> Results(numReplicas());
  for (size_t I = 0; I < numReplicas(); ++I) {
    std::string Response, Err;
    if (Pools[I]->roundTrip(Probe, Response, &Err)) {
      if (isDown(I)) {
        // Same rejoin discipline as the supervisor: warm replay before the
        // replica takes traffic again.
        rejoinReplica(I, "fanout");
      }
      Results[I] = {true, std::move(Response)};
    } else {
      noteReplicaDown(I, "fanout_probe");
      Results[I] = {false, std::move(Err)};
    }
  }

  if (Metrics) {
    // Aggregate exposition: the router's own counters, then each live
    // replica's text (their uspec_service_* series carry no instance label;
    // consumers scrape per-replica sockets when they need the split).
    std::string Text;
    auto Counter = [&Text](const char *Name, uint64_t V) {
      Text += "# TYPE ";
      Text += Name;
      Text += " counter\n";
      Text += Name;
      Text += ' ';
      Text += std::to_string(V);
      Text += '\n';
    };
    Counter("uspec_router_requests_total", Requests.load());
    Counter("uspec_router_forwarded_total", Forwarded.load());
    Counter("uspec_router_replica_down_errors_total",
            ReplicaDownErrors.load());
    Counter("uspec_router_hedged_total", Hedged.load());
    Counter("uspec_router_hedged_wins_total", HedgedWins.load());
    Counter("uspec_router_respawns_total", Respawns.load());
    Counter("uspec_router_rejoins_total", Rejoins.load());
    Counter("uspec_router_warm_replays_total", WarmReplays.load());
    size_t NumDown = 0;
    for (size_t I = 0; I < numReplicas(); ++I)
      NumDown += isDown(I) ? 1 : 0;
    Text += "# TYPE uspec_router_replicas_down gauge\n";
    Text += "uspec_router_replicas_down " + std::to_string(NumDown) + "\n";
    Text += "# TYPE uspec_router_replicas_up gauge\n";
    Text += "uspec_router_replicas_up " +
            std::to_string(numReplicas() - NumDown) + "\n";
    // Fleet process start: the minimum of the router's own start and every
    // live replica's uspec_process_start_time_seconds — one fleet-level
    // gauge, with the per-replica series dropped from the concatenation
    // below so the aggregate exposition names it exactly once.
    static const std::string StartSeries = "uspec_process_start_time_seconds";
    double MinStart = StartTimeUnix;
    std::vector<std::string> ReplicaTexts(numReplicas());
    for (size_t I = 0; I < numReplicas(); ++I) {
      if (!Results[I].first)
        continue;
      service::JsonValue Doc;
      std::string Err;
      if (!service::parseJson(Results[I].second, Doc, &Err))
        continue;
      const service::JsonValue *Result = Doc.find("result");
      if (!Result || !Result->isString())
        continue;
      const std::string &Exp = Result->StringValue;
      std::string Kept;
      Kept.reserve(Exp.size());
      for (size_t Pos = 0; Pos < Exp.size();) {
        size_t Nl = Exp.find('\n', Pos);
        if (Nl == std::string::npos)
          Nl = Exp.size() - 1;
        std::string_view LineView(Exp.data() + Pos, Nl - Pos + 1);
        if (LineView.substr(0, StartSeries.size() + 1) ==
            StartSeries + " ") {
          double V = std::strtod(Exp.c_str() + Pos + StartSeries.size() + 1,
                                 nullptr);
          if (V > 0 && V < MinStart)
            MinStart = V;
        } else if (LineView.find(StartSeries) == std::string_view::npos) {
          Kept.append(LineView.data(), LineView.size());
        }
        Pos = Nl + 1;
      }
      ReplicaTexts[I] = std::move(Kept);
    }
    Text += "# TYPE " + StartSeries + " gauge\n";
    {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.9g", MinStart);
      Text += StartSeries + " " + Buf + "\n";
    }
    for (size_t I = 0; I < numReplicas(); ++I)
      Text += ReplicaTexts[I];
    std::string Payload;
    service::appendJsonString(Payload, Text);
    return service::okResponse(Id, Payload, TraceId);
  }

  std::string Payload = "{\"router\":" + statsJson() + ",\"replicas\":[";
  for (size_t I = 0; I < numReplicas(); ++I) {
    if (I)
      Payload += ',';
    Payload += "{\"addr\":";
    service::appendJsonString(Payload, Config.Replicas[I]);
    // Health read at aggregation time, per replica: a replica marked down
    // by a concurrent forward *after* its probe above is reported
    // "down":true here instead of being silently listed as healthy.
    Payload += ",\"down\":";
    Payload += isDown(I) ? "true" : "false";
    std::string Inner;
    if (Results[I].first && stripOkEnvelope(Results[I].second, Inner)) {
      Payload += ",\"ok\":true,\"stats\":" + Inner;
    } else {
      Payload += ",\"ok\":false";
    }
    Payload += '}';
  }
  Payload += "]}";
  return service::okResponse(Id, Payload, TraceId);
}

std::string Router::broadcastReload(const std::string &Line,
                                    const std::string &Id,
                                    std::string_view TraceId) {
  Broadcasts.fetch_add(1, std::memory_order_relaxed);
  // Forward the original request so a `path` member reaches every replica.
  // Each replica swaps independently (zero-downtime per PR 6); the
  // aggregate reports who confirmed. After a confirmed swap the replica's
  // cache partition is effectively cold (new-generation keys), so its warm
  // set is replayed — the handoff that keeps a swapped fleet warm.
  size_t Reloaded = 0;
  std::string Payload = "{\"replicas\":[";
  for (size_t I = 0; I < numReplicas(); ++I) {
    std::string Response, Err;
    bool Ok = Pools[I]->roundTrip(Line, Response, &Err) &&
              responseOk(Response);
    if (Ok) {
      replayWarmKeys(I);
      markUp(I);
      ++Reloaded;
    } else {
      markDown(I);
    }
    if (I)
      Payload += ',';
    Payload += "{\"addr\":";
    service::appendJsonString(Payload, Config.Replicas[I]);
    Payload += ",\"ok\":";
    Payload += Ok ? "true" : "false";
    Payload += '}';
  }
  Payload += "],\"reloaded\":" + std::to_string(Reloaded) + "}";
  if (events::enabled())
    events::emit("reload", {{"reloaded", std::to_string(Reloaded)},
                            {"replicas", std::to_string(numReplicas())}});
  if (numReplicas() != 0 && Reloaded == 0)
    return service::errorResponse(Id, "reload_failed",
                                  "no replica confirmed the reload", TraceId);
  return service::okResponse(Id, Payload, TraceId);
}

//===----------------------------------------------------------------------===//
// Forwarding (plain + hedged)
//===----------------------------------------------------------------------===//

unsigned Router::hedgeDelayMs() const {
  if (Config.HedgeAuto) {
    telemetry::HistogramSnapshot Snap = ForwardLatency.snapshot();
    if (Snap.Count >= 32) {
      double P95Ms = Snap.percentileSeconds(0.95) * 1e3;
      if (P95Ms < 1)
        P95Ms = 1;
      if (P95Ms > 1000)
        P95Ms = 1000;
      return static_cast<unsigned>(P95Ms);
    }
    return Config.HedgeMs ? Config.HedgeMs : 50;
  }
  return Config.HedgeMs;
}

namespace {

/// Advances the unfinished calls (in order, so a primary's answer is read
/// first) until one has answered, all have finished, or \p Deadline passed.
void awaitCalls(std::initializer_list<service::PooledCall *> Calls,
                std::chrono::steady_clock::time_point Deadline) {
  for (;;) {
    pollfd Fds[2];
    service::PooledCall *Owners[2];
    nfds_t N = 0;
    for (service::PooledCall *C : Calls) {
      if (C->ok())
        return;
      if (!C->done()) {
        Fds[N] = {C->fd(), POLLIN, 0};
        Owners[N++] = C;
      }
    }
    auto Left = std::chrono::ceil<std::chrono::milliseconds>(
        Deadline - std::chrono::steady_clock::now());
    if (N == 0 || Left.count() <= 0)
      return;
    int Ready = ::poll(Fds, N, static_cast<int>(std::min<int64_t>(
                                   Left.count(), 1 << 30)));
    if (Ready < 0 && errno != EINTR)
      Owners[0]->step(); // poll itself failed: block on the first leg
    for (nfds_t I = 0; I < N && Ready > 0; ++I)
      if (Fds[I].revents)
        Owners[I]->step();
  }
}

/// The hedge leg carries `"no_cache":true`, the dedup rule: a non-owner
/// replica computes the answer but never inserts it into its cache, so the
/// shared-nothing partition of the fingerprint keyspace stays clean.
std::string hedgeLineFor(const std::string &Line) {
  size_t End = Line.find_last_of('}');
  if (End == std::string::npos)
    return Line;
  return Line.substr(0, End) + ",\"no_cache\":true}";
}

} // namespace

std::string Router::forwardHedged(const service::Request &Req,
                                  const std::string &Line, size_t Primary,
                                  size_t Secondary, unsigned DelayMs) {
  TraceSpan Span("router.forward");
  if (Span.active()) {
    Span.arg("replica", std::to_string(Primary));
    Span.arg("hedge_replica", std::to_string(Secondary));
    if (!Req.TraceId.empty())
      Span.arg("trace_id", Req.TraceId);
  }
  auto Start = std::chrono::steady_clock::now();
  // Both legs run on this thread, polled: no helper threads, and a losing
  // leg's connection is closed with its PooledCall, never pooled mid-request.
  service::PooledCall P(*Pools[Primary], Line);
  awaitCalls({&P}, Start + std::chrono::milliseconds(DelayMs));
  // Record under the owner either way: once it answers (or rejoins), these
  // are the keys its cache partition should hold.
  auto Answered = [&](std::string &Response) {
    Forwarded.fetch_add(1, std::memory_order_relaxed);
    ForwardLatency.recordSeconds(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Start)
            .count());
    recordHotLine(Primary, Req, Line);
    return std::move(Response);
  };
  if (P.ok())
    return Answered(P.Response);

  // Primary slow (or already failed): fire the hedge at the next live ring
  // owner and take the first byte-identical success.
  Hedged.fetch_add(1, std::memory_order_relaxed);
  if (events::enabled())
    events::emit("hedge_fired", {{"primary", std::to_string(Primary)},
                                 {"secondary", std::to_string(Secondary)},
                                 {"trace_id", Req.TraceId}});
  service::PooledCall S(*Pools[Secondary], hedgeLineFor(Line));
  awaitCalls({&P, &S}, std::chrono::steady_clock::time_point::max());
  // First success wins. When both are in, prefer the primary (owner) — the
  // answers are byte-identical either way.
  if (P.ok())
    return Answered(P.Response);
  if (S.ok()) {
    HedgedWins.fetch_add(1, std::memory_order_relaxed);
    if (events::enabled())
      events::emit("hedge_won", {{"secondary", std::to_string(Secondary)},
                                 {"trace_id", Req.TraceId}});
    if (P.done())
      noteReplicaDown(Primary, "hedge_primary_failed");
    return Answered(S.Response);
  }

  // Both legs failed.
  noteReplicaDown(Primary, "hedge_both_failed");
  noteReplicaDown(Secondary, "hedge_both_failed");
  ReplicaDownErrors.fetch_add(1, std::memory_order_relaxed);
  return service::errorResponse(Req.Id, "replica_down",
                                "replica " + Config.Replicas[Primary] +
                                    " unreachable (hedge to " +
                                    Config.Replicas[Secondary] +
                                    " failed too); both marked down",
                                Req.TraceId);
}

std::string Router::forward(const service::Request &Req,
                            const std::string &Line) {
  size_t R = liveOwnerOf(Req.Program);
  if (R >= numReplicas()) {
    ReplicaDownErrors.fetch_add(1, std::memory_order_relaxed);
    return service::errorResponse(
        Req.Id, "replica_down",
        "all " + std::to_string(numReplicas()) + " replicas down",
        Req.TraceId);
  }

  unsigned DelayMs = hedgeDelayMs();
  if (DelayMs != 0 && !Req.Program.empty()) {
    size_t Secondary = nextLiveOwnerAfter(Req.Program, R);
    if (Secondary < numReplicas())
      return forwardHedged(Req, Line, R, Secondary, DelayMs);
  }

  TraceSpan Span("router.forward");
  if (Span.active()) {
    Span.arg("replica", std::to_string(R));
    if (!Req.TraceId.empty())
      Span.arg("trace_id", Req.TraceId);
  }
  auto Start = std::chrono::steady_clock::now();
  std::string Response, Err;
  if (Pools[R]->roundTrip(Line, Response, &Err)) {
    Forwarded.fetch_add(1, std::memory_order_relaxed);
    ForwardLatency.recordSeconds(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Start)
            .count());
    if (!Req.Program.empty())
      recordHotLine(R, Req, Line);
    return Response;
  }
  // Mark down *before* answering: the client's retry walks the ring past
  // this replica, which is the deterministic failover the tests pin.
  noteReplicaDown(R, "forward_failed");
  ReplicaDownErrors.fetch_add(1, std::memory_order_relaxed);
  return service::errorResponse(Req.Id, "replica_down",
                                "replica " + Config.Replicas[R] +
                                    " unreachable; marked down, retry routes "
                                    "to the next live owner",
                                Req.TraceId);
}

std::string Router::handleLine(const std::string &Line) {
  Requests.fetch_add(1, std::memory_order_relaxed);
  service::Request Req;
  std::string Err;
  if (!service::parseRequest(Line, Req, &Err)) {
    BadRequests.fetch_add(1, std::memory_order_relaxed);
    return service::errorResponse(Req.Id, "bad_request", Err, Req.TraceId);
  }
  TraceSpan Span("router.request");
  if (Span.active()) {
    if (!Req.Id.empty())
      Span.arg("id", Req.Id);
    if (!Req.TraceId.empty())
      Span.arg("trace_id", Req.TraceId);
  }

  switch (Req.TheVerb) {
  case service::Verb::Stats:
    return fanOut(Req.Id, Req.TraceId, /*Metrics=*/false);
  case service::Verb::Metrics:
    return fanOut(Req.Id, Req.TraceId, /*Metrics=*/true);
  case service::Verb::Reload:
    return broadcastReload(Line, Req.Id, Req.TraceId);
  case service::Verb::Shutdown: {
    Broadcasts.fetch_add(1, std::memory_order_relaxed);
    // Stop first: the supervisor must not respawn replicas we are about to
    // drain (superviseTick re-checks this flag before every action).
    StopRequested.store(true, std::memory_order_release);
    for (size_t I = 0; I < numReplicas(); ++I) {
      std::string Response, E2;
      Pools[I]->roundTrip("{\"verb\":\"shutdown\"}", Response, &E2);
    }
    return service::okResponse(Req.Id, "{\"stopping\":true}", Req.TraceId);
  }
  default:
    break;
  }

  // Program-carrying verbs (and `specs`, which routes by the empty key):
  // forward the raw line to the live ring owner, so the response — id echo,
  // trace id, result bytes — is exactly what a direct client would see.
  return forward(Req, Line);
}

//===----------------------------------------------------------------------===//
// Socket serving
//===----------------------------------------------------------------------===//

int Router::serveUnixSocket(const std::string &Path,
                            const volatile int *StopFlag) {
  if (!Conns.listen(Path))
    return 1;
  auto Stopped = [&] {
    return (StopFlag && *StopFlag) ||
           StopRequested.load(std::memory_order_acquire);
  };

  // The supervisor thread: one superviseTick per ProbeIntervalMs, sleeping
  // in short slices so shutdown is prompt.
  std::thread Supervisor;
  if (Config.Supervise)
    Supervisor = std::thread([this, &Stopped] {
      while (!Stopped()) {
        superviseTick();
        unsigned SleptMs = 0;
        while (!Stopped() && SleptMs < Config.ProbeIntervalMs) {
          unsigned Slice = std::min(50u, Config.ProbeIntervalMs - SleptMs);
          std::this_thread::sleep_for(std::chrono::milliseconds(Slice));
          SleptMs += Slice;
        }
      }
    });

  Conns.run(Config.AcceptPollMs, Stopped);
  if (Supervisor.joinable())
    Supervisor.join();
  return 0;
}
