//===- conn_test.cpp - Connection layer of serve and route ---------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// Pins the contracts of service/LineConn.h, the one connection layer of
// `uspec serve` and `uspec route`:
//
//   - A closed connection's handler is reaped: 5000 sequential connections
//     leave the thread count and VmSize of a serve or route process flat.
//   - The router keeps persistent replica connections: 5000 routed requests
//     over one client connection open at most one connection per replica.
//   - The router caps request lines like serve does (`oversized`, then the
//     connection is dropped).
//   - A pooled connection gone stale because its replica restarted is
//     retried once on a fresh connection, invisibly to the client; a
//     replica that stays dead is still reported `replica_down`.
//   - Every router socket is close-on-exec: a respawned replica inherits
//     none of them, even past fd 256.
//
// Servers and routers run in-process on Unix sockets under
// testing::TempDir().
//
//===----------------------------------------------------------------------===//

#include "distrib/Router.h"
#include "distrib/Wire.h"
#include "service/LineConn.h"
#include "service/Protocol.h"
#include "service/Server.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace uspec;
using namespace uspec::distrib;

namespace {

std::string scratchDir(const std::string &Name) {
  std::string Dir = testing::TempDir() + "uspec_conn_" + Name + "_" +
                    std::to_string(getpid());
  std::string Cmd = "rm -rf " + Dir + " && mkdir -p " + Dir;
  if (std::system(Cmd.c_str()) != 0)
    ADD_FAILURE() << "cannot create scratch dir " << Dir;
  return Dir;
}

bool waitFor(const std::function<bool()> &Cond) {
  for (int I = 0; I < 1000; ++I) {
    if (Cond())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Cond();
}

std::string miniProgram(unsigned Salt) {
  std::string K = "k" + std::to_string(Salt);
  return "class Main { def main() { var m = new Map(); m.put(\"" + K +
         "\", 1); var a = m.get(\"" + K + "\"); } }";
}

std::string analyzeRequest(unsigned Id, const std::string &Prog) {
  std::string Line =
      "{\"id\":" + std::to_string(Id) + ",\"verb\":\"analyze\",\"program\":";
  service::appendJsonString(Line, Prog);
  return Line + "}";
}

service::LineConn::Read readLine(service::LineConn &C, std::string &Out) {
  service::LineConn::Read R;
  while ((R = C.readStep(Out)) == service::LineConn::Read::Partial) {
  }
  return R;
}

bool isOk(const std::string &Response) {
  return Response.find("\"ok\":true") != std::string::npos;
}

/// An in-process `uspec serve --socket` replica.
struct Replica {
  std::string Path;
  service::Server S;
  std::thread T;

  explicit Replica(std::string SockPath)
      : Path(std::move(SockPath)), S(config(), service::ServiceSpecs()) {
    T = std::thread([this] { S.serveUnixSocket(Path); });
    EXPECT_TRUE(waitFor([&] { return access(Path.c_str(), F_OK) == 0; }));
  }
  ~Replica() {
    S.beginDrain();
    T.join();
  }

  static service::ServerConfig config() {
    service::ServerConfig Cfg;
    Cfg.Workers = 2;
    Cfg.AcceptPollMs = 20;
    return Cfg;
  }
};

/// An in-process `uspec route --socket`; stopped by a routed `shutdown`.
struct ServedRouter {
  Router R;
  std::string Path;
  std::thread T;

  ServedRouter(RouterConfig Cfg, std::string SockPath)
      : R(withFastPoll(std::move(Cfg))), Path(std::move(SockPath)) {
    T = std::thread([this] { R.serveUnixSocket(Path, nullptr); });
    EXPECT_TRUE(waitFor([&] { return access(Path.c_str(), F_OK) == 0; }));
  }
  ~ServedRouter() {
    std::string Resp;
    clientRoundTrip(Path, "{\"verb\":\"shutdown\"}", Resp);
    T.join();
  }

  static RouterConfig withFastPoll(RouterConfig Cfg) {
    Cfg.AcceptPollMs = 20;
    return Cfg;
  }
};

RouterConfig routerConfig(std::vector<std::string> Replicas) {
  RouterConfig Cfg;
  Cfg.Replicas = std::move(Replicas);
  return Cfg;
}

/// Threads and virtual size of this process.
struct ProcSample {
  long Tasks = 0;
  long VmSizeKb = 0;
};

ProcSample sampleProc() {
  ProcSample S;
  if (DIR *D = opendir("/proc/self/task")) {
    while (dirent *E = readdir(D))
      S.Tasks += E->d_name[0] != '.';
    closedir(D);
  }
  std::ifstream Status("/proc/self/status");
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind("VmSize:", 0) == 0)
      S.VmSizeKb = std::atol(Line.c_str() + 7);
  return S;
}

/// Opens, uses once and closes 5000 sequential connections to \p Path,
/// served by \p Conns, and checks that threads and VmSize stay flat from
/// connection 100 on. Samples are taken every 100 connections, each once
/// every handler has finished, so a handler still between EOF and its reap
/// is not counted; a stuck handler never lets live() reach 0.
void churnConnections(const std::string &Path,
                      const service::LineServer &Conns) {
  // glibc maps a 64 MB malloc arena when a new handler thread allocates
  // while another is still exiting; with at most two arenas, VmSize moves
  // only with threads and their stacks. gtest_discover_tests runs each test
  // in its own process, so the cap reaches no other test.
  mallopt(M_ARENA_MAX, 2);
  ProcSample At100, Max;
  for (int I = 1; I <= 5000; ++I) {
    std::string Resp, Err;
    ASSERT_TRUE(clientRoundTrip(Path, "{\"verb\":\"stats\"}", Resp, &Err))
        << Err;
    ASSERT_TRUE(isOk(Resp)) << Resp;
    if (I % 100)
      continue;
    ASSERT_TRUE(waitFor([&] { return Conns.live() == 0; })) << I;
    ProcSample S = sampleProc();
    if (I == 100)
      At100 = S;
    Max.Tasks = std::max(Max.Tasks, S.Tasks);
    Max.VmSizeKb = std::max(Max.VmSizeKb, S.VmSizeKb);
  }
  // A finished handler may still be exiting before its join. A leak grows
  // by one thread and one 8 MB stack per connection: 39 GB here.
  EXPECT_LE(Max.Tasks - At100.Tasks, 3);
  EXPECT_LE(Max.VmSizeKb - At100.VmSizeKb, 256 * 1024);
}

/// The fds open in this process.
std::set<int> openFds() {
  std::set<int> Fds;
  if (DIR *D = opendir("/proc/self/fd")) {
    while (dirent *E = readdir(D))
      if (E->d_name[0] != '.' && std::atoi(E->d_name) != dirfd(D))
        Fds.insert(std::atoi(E->d_name));
    closedir(D);
  }
  return Fds;
}

} // namespace

TEST(ServiceConn, ServerReapsClosedConnections) {
  std::string Dir = scratchDir("server_churn");
  Replica Rep(Dir + "/r.sock");
  churnConnections(Rep.Path, Rep.S.connections());
  EXPECT_EQ(Rep.S.connections().accepted(), 5000u);
}

TEST(DistribConn, RouterReapsClosedConnections) {
  std::string Dir = scratchDir("router_churn");
  Replica RA(Dir + "/ra.sock"), RB(Dir + "/rb.sock");
  ServedRouter SR(routerConfig({RA.Path, RB.Path}), Dir + "/router.sock");
  churnConnections(SR.Path, SR.R.connections());
  EXPECT_EQ(SR.R.connections().accepted(), 5000u);
  // Every fan-out reused the router's one connection per replica.
  EXPECT_EQ(RA.S.connections().accepted(), 1u);
  EXPECT_EQ(RB.S.connections().accepted(), 1u);
}

TEST(DistribConn, OneClientConnectionNeedsOneConnectionPerReplica) {
  std::string Dir = scratchDir("router_persistent");
  Replica RA(Dir + "/ra.sock"), RB(Dir + "/rb.sock");
  ServedRouter SR(routerConfig({RA.Path, RB.Path}), Dir + "/router.sock");

  // Sequential requests: the pool keeps one connection open throughout.
  service::ConnPool Client(SR.Path);
  std::string Resp, Err;
  for (unsigned I = 0; I < 5000; ++I) {
    ASSERT_TRUE(Client.roundTrip(analyzeRequest(I, miniProgram(I % 16)), Resp,
                                 &Err))
        << Err;
    ASSERT_TRUE(isOk(Resp)) << Resp;
  }
  size_t Handlers = SR.R.connections().live();
  EXPECT_EQ(Handlers, 1u);
  for (Replica *Rep : {&RA, &RB}) {
    EXPECT_GE(Rep->S.connections().accepted(), 1u) << Rep->Path;
    EXPECT_LE(Rep->S.connections().accepted(), Handlers) << Rep->Path;
  }
}

TEST(DistribConn, RouterAnswersOversizedLineAndDropsConnection) {
  std::string Dir = scratchDir("router_oversized");
  ServedRouter SR(routerConfig({Dir + "/dead.sock"}), Dir + "/router.sock");

  service::LineConn Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(SR.Path, &Err)) << Err;
  // The router may drop the connection before it has all of the line.
  (void)Client.send(std::string(service::DefaultMaxLineBytes + 1, 'x'));
  std::string Resp;
  ASSERT_EQ(readLine(Client, Resp), service::LineConn::Read::Line);
  EXPECT_NE(Resp.find("\"kind\":\"oversized\""), std::string::npos) << Resp;
  EXPECT_EQ(Resp.find("\"id\""), std::string::npos) << Resp;
  EXPECT_EQ(readLine(Client, Resp), service::LineConn::Read::Closed);
  EXPECT_TRUE(waitFor([&] { return SR.R.connections().live() == 0; }));
}

TEST(DistribConn, StalePoolReconnectsOnceAfterReplicaRestart) {
  std::string Dir = scratchDir("router_stale");
  std::string PathA = Dir + "/ra.sock";
  auto RA = std::make_unique<Replica>(PathA);
  Replica RB(Dir + "/rb.sock");
  RouterConfig Cfg = routerConfig({PathA, RB.Path});
  Router Plain(Cfg);
  Cfg.HedgeMs = 10000; // hedged path, but a reconnect must not need a hedge
  Router Hedged(Cfg);

  std::string Prog;
  for (unsigned I = 0; I < 200 && Prog.empty(); ++I)
    if (Plain.ownerOf(miniProgram(I)) == 0)
      Prog = miniProgram(I);
  ASSERT_FALSE(Prog.empty());

  for (Router *R : {&Plain, &Hedged})
    ASSERT_TRUE(isOk(R->handleLine(analyzeRequest(1, Prog))));

  // Restart replica A on the same path: both routers' pooled connections
  // to it are now stale.
  RA.reset();
  RA = std::make_unique<Replica>(PathA);
  for (Router *R : {&Plain, &Hedged}) {
    std::string Resp = R->handleLine(analyzeRequest(2, Prog));
    EXPECT_TRUE(isOk(Resp)) << Resp;
    EXPECT_FALSE(R->isDown(0));
    std::string Stats = R->statsJson();
    EXPECT_NE(Stats.find("\"replica_down_errors\":0"), std::string::npos)
        << Stats;
    EXPECT_NE(Stats.find("\"hedged\":0"), std::string::npos) << Stats;
  }
  EXPECT_EQ(RA->S.connections().accepted(), 2u);

  // A replica that stays dead is still reported and marked down; the
  // hedging router fails over to the next ring owner at once.
  RA.reset();
  std::string Resp = Plain.handleLine(analyzeRequest(3, Prog));
  EXPECT_NE(Resp.find("\"kind\":\"replica_down\""), std::string::npos)
      << Resp;
  Resp = Hedged.handleLine(analyzeRequest(3, Prog));
  EXPECT_TRUE(isOk(Resp)) << Resp;
  EXPECT_EQ(Hedged.hedgedWinsCount(), 1u);
  for (Router *R : {&Plain, &Hedged})
    EXPECT_TRUE(R->isDown(0));
}

TEST(DistribConn, RespawnedReplicaInheritsNoRouterFds) {
  // Whatever this process inherited from the test runner (stdio, maybe a
  // log) is passed on by design; a respawned replica may hold only those
  // plus the directory fd `ls` opens to list itself.
  std::set<int> Allowed = openFds();
  int LsOwn = 0;
  while (Allowed.count(LsOwn))
    ++LsOwn;
  Allowed.insert(LsOwn);

  std::string Dir = scratchDir("router_cloexec");
  RouterConfig Cfg = routerConfig({Dir + "/dead.sock"});
  Cfg.RespawnCmd = "ls /proc/self/fd > " + Dir + "/fds.tmp && mv " + Dir +
                   "/fds.tmp " + Dir + "/fds.txt";
  ServedRouter SR(Cfg, Dir + "/router.sock");

  // 300 client connections: the router's accepted fds climb past 256.
  std::vector<service::LineConn> Clients(300);
  for (service::LineConn &C : Clients) {
    std::string Err;
    ASSERT_TRUE(C.connect(SR.Path, &Err)) << Err;
  }
  ASSERT_TRUE(waitFor([&] { return SR.R.connections().live() == 300; }));
  ASSERT_GT(*openFds().rbegin(), 600);

  // The replica is dead, so the supervisor pass respawns it.
  SR.R.superviseTick();
  ASSERT_EQ(SR.R.respawnsCount(), 1u);
  std::string Listing;
  ASSERT_TRUE(waitFor([&] {
    std::ifstream In(Dir + "/fds.txt");
    std::ostringstream SS;
    SS << In.rdbuf();
    Listing = SS.str();
    return !Listing.empty();
  }));
  std::istringstream Fds(Listing);
  for (int Fd; Fds >> Fd;)
    EXPECT_TRUE(Allowed.count(Fd))
        << "respawned replica inherited fd " << Fd << ":\n"
        << Listing;
}
