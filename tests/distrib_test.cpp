//===- distrib_test.cpp - Consistent-hash routed serving ------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// Pins the DESIGN.md §14–15 contracts of `uspec route`:
//
//   - The consistent-hash router keeps ownership stable when a replica is
//     removed from the ring, fails over deterministically when one is
//     marked down, and broadcast reload swaps every replica's model with
//     no stale cache bleed-through.
//   - The self-healing layer (probe, respawn, rejoin with warm-cache
//     replay, hedging) converges deterministically.
//
// Router suites run distrib::Router and service::Server in-process on Unix
// sockets under testing::TempDir(); the respawn suite launches the real
// `uspec` binary (USPEC_CLI_PATH, injected by CMake).
//
//===----------------------------------------------------------------------===//

#include "distrib/Router.h"
#include "distrib/Wire.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace uspec;
using namespace uspec::distrib;

namespace {

struct RunResult {
  int ExitCode = -1;
  std::string Output; ///< stdout + stderr interleaved.
};

/// Runs a full shell command, merging stderr into the captured output.
RunResult runShell(const std::string &Command) {
  std::string Full = Command + " 2>&1";
  RunResult R;
  FILE *Pipe = popen(Full.c_str(), "r");
  if (!Pipe) {
    ADD_FAILURE() << "popen failed for: " << Full;
    return R;
  }
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    R.Output.append(Buf, N);
  int Status = pclose(Pipe);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

void writeFile(const std::string &Path, const std::string &Content) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Content;
}

/// A per-test scratch directory under TempDir (tests in one binary run
/// sequentially, so a name per test suffices).
std::string scratchDir(const std::string &Name) {
  std::string Dir = testing::TempDir() + "uspec_distrib_" + Name + "_" +
                    std::to_string(getpid());
  std::string Cmd = "rm -rf " + Dir + " && mkdir -p " + Dir;
  if (std::system(Cmd.c_str()) != 0)
    ADD_FAILURE() << "cannot create scratch dir " << Dir;
  return Dir;
}

/// A small MiniLang program whose text varies with \p Salt — used to find
/// programs landing on specific ring owners.
std::string miniProgram(unsigned Salt) {
  std::string K = "k" + std::to_string(Salt);
  return "class Main { def main() { var m = new Map(); m.put(\"" + K +
         "\", 1); var a = m.get(\"" + K + "\"); var b = m.get(\"" + K +
         "\"); } }";
}

std::string analyzeRequest(const std::string &Id, const std::string &Prog) {
  std::string Line = "{\"id\":\"" + Id + "\",\"verb\":\"analyze\","
                     "\"program\":";
  // Programs here contain no characters needing JSON escaping.
  Line += "\"";
  for (char C : Prog) {
    if (C == '"' || C == '\\')
      Line += '\\';
    Line += C;
  }
  Line += "\"}";
  return Line;
}

} // namespace

//===----------------------------------------------------------------------===//
// DistribRouter: ring math (pure, in-process)
//===----------------------------------------------------------------------===//

namespace {

RouterConfig ringConfig(std::vector<std::string> Replicas) {
  RouterConfig Cfg;
  Cfg.Replicas = std::move(Replicas);
  return Cfg;
}

} // namespace

TEST(DistribRouter, OwnershipIsDeterministicAndCoversAllReplicas) {
  Router R(ringConfig({"/tmp/a.sock", "/tmp/b.sock", "/tmp/c.sock"}));
  Router R2(ringConfig({"/tmp/a.sock", "/tmp/b.sock", "/tmp/c.sock"}));
  std::vector<size_t> Hits(3, 0);
  for (unsigned I = 0; I < 300; ++I) {
    std::string P = miniProgram(I);
    size_t Owner = R.ownerOf(P);
    ASSERT_LT(Owner, 3u);
    EXPECT_EQ(Owner, R2.ownerOf(P)) << "ring must be a pure function of "
                                       "the replica list";
    ++Hits[Owner];
  }
  for (size_t I = 0; I < 3; ++I)
    EXPECT_GT(Hits[I], 0u) << "replica " << I << " owns no keys";
}

TEST(DistribRouter, RemovingAReplicaOnlyMovesItsOwnKeys) {
  std::vector<std::string> Three = {"/tmp/a.sock", "/tmp/b.sock",
                                    "/tmp/c.sock"};
  Router R3(ringConfig(Three));
  Router R2(ringConfig({"/tmp/a.sock", "/tmp/b.sock"}));
  size_t Moved = 0, Kept = 0;
  for (unsigned I = 0; I < 300; ++I) {
    std::string P = miniProgram(I);
    size_t Owner3 = R3.ownerOf(P);
    if (Owner3 == 2) {
      ++Moved; // keys of the removed replica must redistribute
      continue;
    }
    // Consistent hashing: every other key keeps its owner (replica indices
    // 0/1 name the same addresses in both rings).
    EXPECT_EQ(R2.ownerOf(P), Owner3) << "key " << I << " moved although its "
                                        "owner stayed in the ring";
    ++Kept;
  }
  EXPECT_GT(Moved, 0u);
  EXPECT_GT(Kept, 0u);
}

TEST(DistribRouter, DownReplicaFailoverIsDeterministic) {
  std::vector<std::string> Addrs = {"/tmp/a.sock", "/tmp/b.sock",
                                    "/tmp/c.sock"};
  Router A(ringConfig(Addrs));
  Router B(ringConfig(Addrs));
  A.markDown(2);
  B.markDown(2);
  for (unsigned I = 0; I < 200; ++I) {
    std::string P = miniProgram(I);
    size_t Live = A.liveOwnerOf(P);
    ASSERT_LT(Live, 3u);
    EXPECT_NE(Live, 2u);
    EXPECT_EQ(Live, B.liveOwnerOf(P)) << "failover must be deterministic";
    if (A.ownerOf(P) != 2)
      EXPECT_EQ(Live, A.ownerOf(P)) << "healthy owners must not move";
  }
  A.markUp(2);
  for (unsigned I = 0; I < 200; ++I) {
    std::string P = miniProgram(I);
    EXPECT_EQ(A.liveOwnerOf(P), A.ownerOf(P));
  }
  // All down: no live owner.
  A.markDown(0);
  A.markDown(1);
  A.markDown(2);
  EXPECT_EQ(A.liveOwnerOf("x"), 3u);
}

TEST(DistribRouter, BadRequestAndAllReplicasDownErrors) {
  // Replicas that do not exist: the first forward attempt marks each down.
  Router R(ringConfig({"/tmp/uspec_nope_a.sock", "/tmp/uspec_nope_b.sock"}));

  std::string Resp = R.handleLine("this is not json");
  EXPECT_NE(Resp.find("\"kind\":\"bad_request\""), std::string::npos)
      << Resp;

  // Each failed forward marks one replica down (structured replica_down,
  // the transient kind `uspec query --retries` retries).
  std::string Prog = miniProgram(1);
  Resp = R.handleLine(analyzeRequest("q1", Prog));
  EXPECT_NE(Resp.find("\"kind\":\"replica_down\""), std::string::npos)
      << Resp;
  EXPECT_NE(Resp.find("marked down"), std::string::npos) << Resp;
  Resp = R.handleLine(analyzeRequest("q2", Prog));
  EXPECT_NE(Resp.find("\"kind\":\"replica_down\""), std::string::npos)
      << Resp;
  // Both replicas are now down: the router answers without a socket.
  Resp = R.handleLine(analyzeRequest("q3", Prog));
  EXPECT_NE(Resp.find("all 2 replicas down"), std::string::npos) << Resp;
  EXPECT_TRUE(R.isDown(0));
  EXPECT_TRUE(R.isDown(1));
  EXPECT_NE(R.statsJson().find("\"replica_down_errors\":3"),
            std::string::npos) << R.statsJson();
}

//===----------------------------------------------------------------------===//
// DistribRouter: live replicas (in-process service::Server on Unix sockets)
//===----------------------------------------------------------------------===//

namespace {

/// One in-process serve replica on a Unix socket, driven from a background
/// thread exactly like `uspec serve --socket`.
struct TestReplica {
  service::ServerConfig Cfg;
  std::unique_ptr<service::Server> S;
  volatile int Stop = 0;
  volatile int Reload = 0;
  std::thread T;
  std::string Path;

  bool start(const std::string &SockPath, const std::string &ModelPath) {
    Path = SockPath;
    Cfg.Workers = 2;
    Cfg.AcceptPollMs = 20;
    Cfg.ModelPath = ModelPath;
    std::string Err;
    auto M = service::loadModelState(ModelPath, &Err);
    if (!M) {
      ADD_FAILURE() << "loadModelState(" << ModelPath << "): " << Err;
      return false;
    }
    S = std::make_unique<service::Server>(Cfg, std::move(*M));
    T = std::thread([this] { S->serveUnixSocket(Path, &Stop, &Reload); });
    // Wait for the socket to be bound.
    for (int I = 0; I < 200 && access(Path.c_str(), F_OK) != 0; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return access(Path.c_str(), F_OK) == 0;
  }

  ~TestReplica() {
    // beginDrain() is mutex-synchronized with the accept loop's draining()
    // check; writing the volatile Stop flag from this thread would be a
    // data race (the flag exists for signal handlers, not cross-thread
    // shutdown).
    if (S)
      S->beginDrain();
    if (T.joinable())
      T.join();
  }
};

} // namespace

TEST(DistribRouter, ForwardsVerbatimAndAggregatesFanOut) {
  std::string Dir = scratchDir("router_live");
  std::string SpecPath = Dir + "/specs.txt";
  writeFile(SpecPath, "RetSame(Map.get/1)\n");

  TestReplica RA, RB;
  ASSERT_TRUE(RA.start(Dir + "/ra.sock", SpecPath));
  ASSERT_TRUE(RB.start(Dir + "/rb.sock", SpecPath));

  Router R(ringConfig({RA.Path, RB.Path}));
  std::string Prog = miniProgram(0);
  std::string Line = analyzeRequest("fwd1", Prog);

  // The routed response is the replica's response, byte for byte.
  std::string Routed = R.handleLine(Line);
  size_t Owner = R.ownerOf(Prog);
  std::string Direct, Err;
  ASSERT_TRUE(clientRoundTrip(Owner == 0 ? RA.Path : RB.Path, Line, Direct,
                              &Err)) << Err;
  EXPECT_EQ(Routed, Direct);
  EXPECT_NE(Routed.find("\"ok\":true"), std::string::npos) << Routed;

  // stats fans out to every replica and nests their payloads.
  std::string Stats = R.handleLine("{\"id\":\"s1\",\"verb\":\"stats\"}");
  EXPECT_NE(Stats.find("\"router\""), std::string::npos) << Stats;
  EXPECT_NE(Stats.find(RA.Path), std::string::npos) << Stats;
  EXPECT_NE(Stats.find(RB.Path), std::string::npos) << Stats;
  EXPECT_NE(Stats.find("\"ok\":true"), std::string::npos) << Stats;

  // metrics aggregates router counters with each replica's exposition.
  std::string Metrics = R.handleLine("{\"id\":\"m1\",\"verb\":\"metrics\"}");
  EXPECT_NE(Metrics.find("uspec_router_requests_total"), std::string::npos)
      << Metrics;
  EXPECT_NE(Metrics.find("uspec_requests_admitted_total"), std::string::npos)
      << Metrics;
}

TEST(DistribRouter, BroadcastReloadSwapsEveryReplicaNoCacheBleed) {
  std::string Dir = scratchDir("router_reload");
  std::string SpecPath = Dir + "/specs.txt";
  writeFile(SpecPath, "RetSame(Map.get/1)\n");

  TestReplica RA, RB;
  ASSERT_TRUE(RA.start(Dir + "/ra.sock", SpecPath));
  ASSERT_TRUE(RB.start(Dir + "/rb.sock", SpecPath));
  Router R(ringConfig({RA.Path, RB.Path}));

  // Find one program owned by each replica so the assertions below prove
  // the broadcast reached the whole fleet.
  std::string ProgA, ProgB;
  for (unsigned I = 0; I < 1000 && (ProgA.empty() || ProgB.empty()); ++I) {
    std::string P = miniProgram(I);
    (R.ownerOf(P) == 0 ? ProgA : ProgB) = P;
  }
  ASSERT_FALSE(ProgA.empty());
  ASSERT_FALSE(ProgB.empty());

  // Both replicas answer (and cache) under the 1-spec model.
  std::string RespA = R.handleLine(analyzeRequest("a1", ProgA));
  std::string RespB = R.handleLine(analyzeRequest("b1", ProgB));
  EXPECT_NE(RespA.find("\"specs\":1"), std::string::npos) << RespA;
  EXPECT_NE(RespB.find("\"specs\":1"), std::string::npos) << RespB;

  // Swap the model file and broadcast a reload through the router.
  writeFile(SpecPath, "RetSame(Map.get/1)\nRetSame(List.get/1)\n");
  std::string Reload = R.handleLine("{\"id\":\"r1\",\"verb\":\"reload\"}");
  EXPECT_NE(Reload.find("\"reloaded\":2"), std::string::npos) << Reload;

  // The same programs now answer under the 2-spec model on BOTH replicas:
  // the old generation's cache entries (keyed by the old checksum) cannot
  // bleed into the new generation.
  RespA = R.handleLine(analyzeRequest("a2", ProgA));
  RespB = R.handleLine(analyzeRequest("b2", ProgB));
  EXPECT_NE(RespA.find("\"specs\":2"), std::string::npos) << RespA;
  EXPECT_NE(RespB.find("\"specs\":2"), std::string::npos) << RespB;
}

TEST(DistribRouter, DeadReplicaFailsOverAndRecovers) {
  std::string Dir = scratchDir("router_failover");
  std::string SpecPath = Dir + "/specs.txt";
  writeFile(SpecPath, "RetSame(Map.get/1)\n");

  TestReplica RA;
  ASSERT_TRUE(RA.start(Dir + "/ra.sock", SpecPath));
  // Replica B never starts: its socket path is dead.
  Router R(ringConfig({RA.Path, Dir + "/rb.sock"}));

  // A program owned by the dead replica: first attempt returns the
  // structured transient error and marks it down; the retry (exactly what
  // `uspec query --retries` does) deterministically lands on the live one.
  std::string Prog;
  for (unsigned I = 0; I < 1000; ++I)
    if (R.ownerOf(miniProgram(I)) == 1) {
      Prog = miniProgram(I);
      break;
    }
  ASSERT_FALSE(Prog.empty());

  std::string First = R.handleLine(analyzeRequest("f1", Prog));
  EXPECT_NE(First.find("\"kind\":\"replica_down\""), std::string::npos)
      << First;
  std::string Retry = R.handleLine(analyzeRequest("f2", Prog));
  EXPECT_NE(Retry.find("\"ok\":true"), std::string::npos) << Retry;
  EXPECT_EQ(R.liveOwnerOf(Prog), 0u);

  // A stats fan-out re-probes the dead replica (still down) and reports it.
  std::string Stats = R.handleLine("{\"id\":\"s\",\"verb\":\"stats\"}");
  EXPECT_NE(Stats.find("\"down\":[1]"), std::string::npos) << Stats;
  EXPECT_NE(Stats.find("\"ok\":false"), std::string::npos) << Stats;
}

//===----------------------------------------------------------------------===//
// DistribSelfHeal: supervisor, ring rejoin, hedging, warm-cache handoff
//===----------------------------------------------------------------------===//

namespace {

/// Directly queries a replica for its resident cache keys (the `cachekeys`
/// verb) and returns the raw payload.
std::string cacheKeysOf(const std::string &SockPath) {
  std::string Response, Err;
  if (!clientRoundTrip(SockPath, "{\"verb\":\"cachekeys\"}", Response, &Err)) {
    ADD_FAILURE() << "cachekeys round trip failed: " << Err;
    return "";
  }
  return Response;
}

} // namespace

// The pure-function claim behind the rejoin discipline: removing a replica
// from the ring and re-adding it restores the EXACT original key→replica
// assignment — no key that stayed moves, every key that moved comes back.
TEST(DistribSelfHeal, RingRemoveThenReaddRestoresExactAssignment) {
  std::vector<std::string> Addrs = {"/tmp/a.sock", "/tmp/b.sock",
                                    "/tmp/c.sock", "/tmp/d.sock"};
  Router R(ringConfig(Addrs));
  const unsigned Keys = 400;
  std::vector<size_t> Original(Keys);
  for (unsigned I = 0; I < Keys; ++I) {
    Original[I] = R.liveOwnerOf(miniProgram(I));
    ASSERT_LT(Original[I], Addrs.size());
  }
  for (size_t Dead = 0; Dead < Addrs.size(); ++Dead) {
    R.markDown(Dead);
    size_t Moved = 0;
    for (unsigned I = 0; I < Keys; ++I) {
      size_t Now = R.liveOwnerOf(miniProgram(I));
      ASSERT_NE(Now, Dead) << "down replica still owns keys";
      if (Original[I] == Dead)
        ++Moved; // its keys must land elsewhere...
      else
        EXPECT_EQ(Now, Original[I]) << "removal moved a foreign key";
    }
    EXPECT_GT(Moved, 0u) << "replica " << Dead << " owned nothing";
    R.markUp(Dead); // ...and come back exactly where they were.
    for (unsigned I = 0; I < Keys; ++I)
      ASSERT_EQ(R.liveOwnerOf(miniProgram(I)), Original[I])
          << "re-add did not restore the original assignment (key " << I
          << ", replica " << Dead << ")";
  }
}

// Satellite: a replica marked down must be reported `"down":true` in the
// stats aggregate (not silently listed as healthy), and the metrics
// exposition must carry the `uspec_router_replicas_up` gauge.
TEST(DistribSelfHeal, FanOutReportsPerReplicaDownAndUpGauge) {
  std::string Dir = scratchDir("selfheal_downflag");
  std::string SpecPath = Dir + "/specs.txt";
  writeFile(SpecPath, "RetSame(Map.get/1)\n");

  TestReplica RA;
  ASSERT_TRUE(RA.start(Dir + "/ra.sock", SpecPath));
  // Replica B is a dead socket path.
  Router R(ringConfig({RA.Path, Dir + "/rb.sock"}));

  std::string Stats = R.handleLine("{\"id\":\"s\",\"verb\":\"stats\"}");
  // Entry order follows the replica list: RA first (up), RB second (down).
  EXPECT_NE(Stats.find("\"down\":false,\"ok\":true"), std::string::npos)
      << Stats;
  EXPECT_NE(Stats.find("\"down\":true,\"ok\":false"), std::string::npos)
      << Stats;

  std::string Metrics = R.handleLine("{\"id\":\"m\",\"verb\":\"metrics\"}");
  EXPECT_NE(Metrics.find("uspec_router_replicas_up 1"), std::string::npos)
      << Metrics;
  EXPECT_NE(Metrics.find("uspec_router_replicas_down 1"), std::string::npos)
      << Metrics;
}

// The hedging dedup rule end to end: a request with `"no_cache":true` is
// answered byte-identically but never inserts into the replica's cache.
TEST(DistribSelfHeal, NoCacheRequestAnswersWithoutInserting) {
  std::string Dir = scratchDir("selfheal_nocache");
  std::string SpecPath = Dir + "/specs.txt";
  writeFile(SpecPath, "RetSame(Map.get/1)\n");

  TestReplica RA;
  ASSERT_TRUE(RA.start(Dir + "/ra.sock", SpecPath));

  EXPECT_NE(cacheKeysOf(RA.Path).find("\"count\":0"), std::string::npos);

  std::string Prog = miniProgram(7);
  std::string Plain = analyzeRequest("n1", Prog);
  std::string Hedge = Plain;
  Hedge.insert(Hedge.size() - 1, ",\"no_cache\":true");

  std::string HedgeResp, PlainResp, Err;
  ASSERT_TRUE(clientRoundTrip(RA.Path, Hedge, HedgeResp, &Err)) << Err;
  EXPECT_NE(HedgeResp.find("\"ok\":true"), std::string::npos) << HedgeResp;
  // Computed, answered — and the cache is still empty.
  EXPECT_NE(cacheKeysOf(RA.Path).find("\"count\":0"), std::string::npos);

  ASSERT_TRUE(clientRoundTrip(RA.Path, Plain, PlainResp, &Err)) << Err;
  // Identical id → identical bytes: no_cache changes caching, not answers.
  EXPECT_NE(Plain.find("n1"), std::string::npos);
  std::string HedgeBody = HedgeResp, PlainBody = PlainResp;
  EXPECT_EQ(HedgeBody, PlainBody);
  EXPECT_NE(cacheKeysOf(RA.Path).find("\"count\":1"), std::string::npos);
}

// Warm-cache handoff: after a replica dies and comes back cold, the router
// replays its hot request lines before marking it up, so the rejoined
// replica holds the exact fingerprint keys it served before the incident.
TEST(DistribSelfHeal, RejoinReplaysWarmKeysBeforeTakingTraffic) {
  std::string Dir = scratchDir("selfheal_warm");
  std::string SpecPath = Dir + "/specs.txt";
  writeFile(SpecPath, "RetSame(Map.get/1)\n");

  auto RA = std::make_unique<TestReplica>();
  ASSERT_TRUE(RA->start(Dir + "/ra.sock", SpecPath));
  TestReplica RB;
  ASSERT_TRUE(RB.start(Dir + "/rb.sock", SpecPath));

  RouterConfig Cfg = ringConfig({Dir + "/ra.sock", RB.Path});
  Cfg.WarmKeys = 8;
  Router R(Cfg);

  // Serve a few programs owned by replica 0 through the router: each
  // successful forward records the line in replica 0's warm set.
  unsigned ServedByA = 0;
  for (unsigned I = 0; I < 200 && ServedByA < 3; ++I) {
    std::string P = miniProgram(I);
    if (R.ownerOf(P) != 0)
      continue;
    std::string Resp =
        R.handleLine(analyzeRequest("w" + std::to_string(I), P));
    ASSERT_NE(Resp.find("\"ok\":true"), std::string::npos) << Resp;
    ++ServedByA;
  }
  ASSERT_EQ(ServedByA, 3u);
  // The salted programs are structurally identical, so the replica's
  // fingerprint-keyed cache holds ONE entry for all three (the warm set
  // still remembers all three request lines — replay count proves it).
  std::string HotKeys = cacheKeysOf(Dir + "/ra.sock");
  EXPECT_NE(HotKeys.find("\"count\":1"), std::string::npos) << HotKeys;

  // Replica 0 dies; a forward notices and marks it down.
  RA.reset();
  std::string P0;
  for (unsigned I = 0; I < 200; ++I)
    if (R.ownerOf(miniProgram(I)) == 0) {
      P0 = miniProgram(I);
      break;
    }
  (void)R.handleLine(analyzeRequest("dead", P0));
  ASSERT_TRUE(R.isDown(0));

  // It comes back with a cold cache...
  RA = std::make_unique<TestReplica>();
  ASSERT_TRUE(RA->start(Dir + "/ra.sock", SpecPath));
  EXPECT_NE(cacheKeysOf(Dir + "/ra.sock").find("\"count\":0"),
            std::string::npos);

  // ...and recoverReplica probes, replays the warm set, then marks up.
  ASSERT_TRUE(R.recoverReplica(0));
  EXPECT_FALSE(R.isDown(0));
  EXPECT_GE(R.rejoinsCount(), 1u);
  EXPECT_GE(R.warmReplaysCount(), 3u);
  // The rejoined replica holds the exact keys it served before the death.
  std::string Warmed = cacheKeysOf(Dir + "/ra.sock");
  EXPECT_EQ(Warmed, HotKeys);
}

// Hedging: when the primary owner is wedged, the hedge fires at the next
// ring owner after the delay and the answer is byte-identical to a direct
// query — the determinism contract makes the two replicas interchangeable.
TEST(DistribSelfHeal, HedgeWinsByteIdenticalWhenPrimaryIsWedged) {
  std::string Dir = scratchDir("selfheal_hedge");
  std::string SpecPath = Dir + "/specs.txt";
  writeFile(SpecPath, "RetSame(Map.get/1)\n");

  TestReplica RA, RB;
  RA.Cfg.EnableTestVerbs = true;
  RB.Cfg.EnableTestVerbs = true;
  ASSERT_TRUE(RA.start(Dir + "/ra.sock", SpecPath));
  ASSERT_TRUE(RB.start(Dir + "/rb.sock", SpecPath));

  RouterConfig Cfg = ringConfig({RA.Path, RB.Path});
  Cfg.HedgeMs = 25;
  Router R(Cfg);

  std::string Prog;
  for (unsigned I = 0; I < 200; ++I)
    if (R.ownerOf(miniProgram(I)) == 0) {
      Prog = miniProgram(I);
      break;
    }
  ASSERT_FALSE(Prog.empty());
  std::string Line = analyzeRequest("h1", Prog);
  std::string Direct, Err;
  ASSERT_TRUE(clientRoundTrip(RB.Path, Line + "", Direct, &Err)) << Err;
  // RB computed it with no_cache absent — clear its cache effect is fine;
  // byte-identity holds regardless of hit/miss.

  // Park BOTH of the primary's workers so the routed request cannot be
  // answered there within the hedge delay.
  service::Server *PrimaryServer =
      R.ownerOf(Prog) == 0 ? RA.S.get() : RB.S.get();
  TestReplica &Primary = R.ownerOf(Prog) == 0 ? RA : RB;
  std::thread Block1([&] {
    std::string Resp, E;
    clientRoundTrip(Primary.Path, "{\"verb\":\"test_block\"}", Resp, &E);
  });
  std::thread Block2([&] {
    std::string Resp, E;
    clientRoundTrip(Primary.Path, "{\"verb\":\"test_block\"}", Resp, &E);
  });
  // Give the blockers time to occupy both workers.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::string Routed = R.handleLine(Line);
  EXPECT_EQ(Routed, Direct) << "hedged answer must be byte-identical";
  EXPECT_GE(R.hedgedCount(), 1u);
  EXPECT_GE(R.hedgedWinsCount(), 1u);

  PrimaryServer->releaseTestGate();
  Block1.join();
  Block2.join();
}

// Fault sites: `router.probe` makes a healthy replica look dead for one
// tick (throw handled as probe failure, not thread death); `router.respawn`
// suppresses one spawn attempt while the backoff schedule advances.
TEST(DistribSelfHeal, ProbeAndRespawnFaultSitesAreDeterministic) {
  std::string Dir = scratchDir("selfheal_fault");
  std::string SpecPath = Dir + "/specs.txt";
  writeFile(SpecPath, "RetSame(Map.get/1)\n");

  TestReplica RA;
  ASSERT_TRUE(RA.start(Dir + "/ra.sock", SpecPath));
  Router R(ringConfig({RA.Path}));

  // First probe hits the armed throw → treated as a failed probe.
  armFault("router.probe", 1, FaultAction::Throw);
  R.superviseTick();
  EXPECT_TRUE(R.isDown(0));
  // Fault exhausted: the next tick probes for real and rejoins.
  R.superviseTick();
  EXPECT_FALSE(R.isDown(0));
  EXPECT_GE(R.rejoinsCount(), 1u);
  disarmFaults();

  // A dead replica with a respawn command: the armed soft fault eats the
  // first spawn attempt (attempt counted, nothing spawned).
  RouterConfig Cfg2 = ringConfig({Dir + "/never.sock"});
  Cfg2.RespawnCmd = "true"; // a no-op command; must not even run
  Router R2(Cfg2);
  armFault("router.respawn", 1, FaultAction::Soft);
  R2.superviseTick();
  EXPECT_EQ(R2.respawnsCount(), 1u);
  EXPECT_TRUE(R2.isDown(0));
  disarmFaults();
}

// End to end: kill -9 a real `uspec serve` replica; a supervising router
// detects the death, respawns it via the {socket} command template, rejoins
// it after a successful probe, and answers byte-identically throughout.
TEST(DistribSelfHeal, SupervisorRespawnsKilledReplicaEndToEnd) {
  std::string Dir = scratchDir("selfheal_respawn");
  std::string SpecPath = Dir + "/specs.txt";
  writeFile(SpecPath, "RetSame(Map.get/1)\n");
  std::string Sock = Dir + "/replica.sock";
  std::string PidFile = Dir + "/replica.pid";

  std::string ServeCmd = std::string(USPEC_CLI_PATH) + " serve --socket " +
                         Sock + " --specs " + SpecPath;
  RunResult Launch = runShell(ServeCmd + " >/dev/null 2>&1 & echo $! > " +
                              PidFile);
  ASSERT_EQ(Launch.ExitCode, 0);
  for (int I = 0; I < 200 && access(Sock.c_str(), F_OK) != 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(access(Sock.c_str(), F_OK), 0) << "replica never bound";

  RouterConfig Cfg = ringConfig({Sock});
  Cfg.RespawnCmd = ServeCmd; // {socket}-free: the path is fixed here
  Cfg.RespawnSeed = 42;
  Router R(Cfg);

  std::string Prog = miniProgram(3);
  std::string Line = analyzeRequest("e2e", Prog);
  std::string Before = R.handleLine(Line);
  ASSERT_NE(Before.find("\"ok\":true"), std::string::npos) << Before;

  // kill -9 the replica process.
  std::string Pid = readFile(PidFile);
  ASSERT_FALSE(Pid.empty());
  RunResult Kill = runShell("kill -9 " + Pid);
  ASSERT_EQ(Kill.ExitCode, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // The supervisor notices, respawns, and rejoins once the probe succeeds.
  bool Recovered = false;
  for (int TickNo = 0; TickNo < 100 && !Recovered; ++TickNo) {
    R.superviseTick();
    Recovered = !R.isDown(0);
    if (!Recovered)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_TRUE(Recovered) << "supervisor never recovered the replica";
  EXPECT_GE(R.respawnsCount(), 1u);
  EXPECT_GE(R.rejoinsCount(), 1u);

  // Byte-identical service after the incident.
  std::string After = R.handleLine(Line);
  EXPECT_EQ(After, Before);

  // Drain the respawned replica (it is orphaned to init, not our child).
  std::string Resp, Err;
  clientRoundTrip(Sock, "{\"verb\":\"shutdown\"}", Resp, &Err);
}
