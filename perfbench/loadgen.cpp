//===- loadgen.cpp - Load generator for routed serving --------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `pbtool load`: one thread, four persistent connections to a `uspec route`
/// socket, requests pipelined on them. In the fixed-rate phase requests are
/// sent on a fixed schedule (open loop) and each one is timed from the
/// moment it was *due*, so a stall in the system or in the generator itself
/// lengthens the latency of every request scheduled behind it. How late the
/// generator sent is reported separately (late_max_ms).
///
/// Every response is checked: it must be an `ok` envelope echoing the
/// request's id, and for the sampled templates named in --refs its result
/// must be byte-identical to the reference payload (`uspec analyze --json`).
///
/// Requests follow --sequence (template indices), starting at its --start'th
/// entry. Phases, in order: an untimed warm-up (--warmup N requests, all
/// offered at once), a fixed-rate phase (--fixed-requests N at --fixed-rate
/// R, rounded down to whole blocks), a closed loop (--closed N requests, each
/// sent when the one before it is answered and timed from its send), and a
/// saturation burst (--saturate N requests, all offered at once) whose
/// delivered rate is the fleet's throughput. A phase's p50 and p99 are
/// medians over consecutive blocks of BlockRequests answers, so one stall of
/// the machine moves one block rather than the whole phase.
///
//===----------------------------------------------------------------------===//

#include "pbtool.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <poll.h>
#include <string_view>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <unordered_map>

namespace pb {
namespace {

constexpr unsigned NumConns = 4;
/// A block's p99 then has 10 samples beyond it.
constexpr size_t BlockRequests = 1000;
/// A fixed-rate send later than this counts in late_count.
constexpr double LateLimitMs = 20;

struct Pending {
  uint64_t Id;
  int64_t DueNs;
  uint32_t Tmpl;
};

struct Conn {
  int Fd = -1;
  std::string Out;
  size_t OutOff = 0;
  std::string In;
  std::deque<Pending> Fifo;
};

struct LoadConfig {
  std::string Socket;
  std::vector<std::string> Bodies;  ///< Request text after `{"id":N`.
  std::vector<uint32_t> Sequence;   ///< Template order, cycled.
  std::unordered_map<uint32_t, std::string> Refs;
  size_t Start = 0;
  size_t Warmup = 0;
  double FixedRate = 0;
  size_t FixedRequests = 0;
  size_t Closed = 0;
  size_t Saturate = 0;
};

/// Nearest-rank quantile of sorted \p V.
double quantile(const std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V.empty() ? 0.0 : V[V.size() / 2];
}

struct PhaseResult {
  double Rate = 0;
  /// Completed responses per second: the median over the blocks of a
  /// block's answers divided by the time from the previous block's last
  /// answer (the phase's start, for the first block) to its own last one.
  double Achieved = 0;
  std::vector<double> LatMs;   ///< Due-time latencies, in answer order.
  std::vector<int64_t> DoneNs; ///< Answer times, in answer order.
  double P50 = 0, P99 = 0;   ///< Medians of the blocks' p50 and p99.
  double MaxMs = 0;
  double LateMaxMs = 0;
  size_t LateCount = 0; ///< Requests sent more than LateLimitMs late.
  bool TimedOut = false;
};

class LoadGen {
public:
  explicit LoadGen(LoadConfig Cfg) : Cfg(std::move(Cfg)), Cursor(this->Cfg.Start) {}
  ~LoadGen() {
    for (Conn &C : Conns)
      if (C.Fd >= 0)
        ::close(C.Fd);
  }
  LoadGen(const LoadGen &) = delete;
  LoadGen &operator=(const LoadGen &) = delete;

  bool connectAll(std::string *Err);
  PhaseResult runPhase(double Rate, size_t Count);

  uint64_t Attempted = 0, Failed = 0, Checked = 0;
  std::map<std::string, uint64_t> FailKinds;

private:
  size_t outstanding() const {
    size_t N = 0;
    for (const Conn &C : Conns)
      N += C.Fifo.size();
    return N;
  }
  void fail(const char *Kind) {
    ++Failed;
    ++FailKinds[Kind];
  }
  void send(int64_t DueNs);
  bool flush(Conn &C);
  bool readFrom(Conn &C, int64_t NowNs, PhaseResult &R);
  void complete(Conn &C, std::string_view Line, int64_t NowNs,
                PhaseResult &R);

  LoadConfig Cfg;
  std::vector<Conn> Conns;
  size_t Cursor;
  uint64_t NextId = 1;
  size_t RoundRobin = 0;
};

bool LoadGen::connectAll(std::string *Err) {
  for (unsigned I = 0; I < NumConns; ++I) {
    Conn C;
    C.Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (C.Fd < 0)
      *Err = "socket: " + std::string(std::strerror(errno));
    else if (Cfg.Socket.size() >= sizeof(Addr.sun_path))
      *Err = "socket path too long: " + Cfg.Socket;
    if (!Err->empty()) {
      if (C.Fd >= 0)
        ::close(C.Fd);
      return false;
    }
    std::memcpy(Addr.sun_path, Cfg.Socket.c_str(), Cfg.Socket.size() + 1);
    if (::connect(C.Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0) {
      *Err = "connect " + Cfg.Socket + ": " + std::strerror(errno);
      ::close(C.Fd);
      return false;
    }
    Conns.push_back(std::move(C));
  }
  return true;
}

bool LoadGen::flush(Conn &C) {
  while (C.OutOff < C.Out.size()) {
    ssize_t N = ::send(C.Fd, C.Out.data() + C.OutOff, C.Out.size() - C.OutOff,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    C.OutOff += static_cast<size_t>(N);
  }
  C.Out.clear();
  C.OutOff = 0;
  return true;
}

void LoadGen::send(int64_t DueNs) {
  // Least-outstanding connection, ties broken round-robin: a client pool
  // that avoids queueing behind a connection that is already busy.
  size_t Best = RoundRobin++ % Conns.size();
  for (size_t K = 0; K < Conns.size(); ++K) {
    size_t I = (Best + K) % Conns.size();
    if (Conns[I].Fifo.size() < Conns[Best].Fifo.size())
      Best = I;
  }
  Conn &C = Conns[Best];
  uint32_t Tmpl = Cfg.Sequence[Cursor % Cfg.Sequence.size()];
  ++Cursor;
  uint64_t Id = NextId++;
  C.Out += "{\"id\":";
  C.Out += std::to_string(Id);
  C.Out += Cfg.Bodies[Tmpl];
  C.Out += '\n';
  C.Fifo.push_back({Id, DueNs, Tmpl});
  ++Attempted;
  if (!flush(C))
    fail("send");
}

void LoadGen::complete(Conn &C, std::string_view Line, int64_t NowNs,
                       PhaseResult &R) {
  if (C.Fifo.empty()) {
    fail("unexpected_response");
    return;
  }
  Pending P = C.Fifo.front();
  C.Fifo.pop_front();
  R.LatMs.push_back(static_cast<double>(NowNs - P.DueNs) * 1e-6);
  R.DoneNs.push_back(NowNs);
  std::string Prefix = "{\"id\":" + std::to_string(P.Id) + ",";
  static constexpr std::string_view Ok = "\"ok\":true,\"result\":";
  if (Line.substr(0, Prefix.size()) != Prefix) {
    fail("wrong_id");
    return;
  }
  if (Line.substr(Prefix.size(), Ok.size()) != Ok || Line.back() != '}') {
    fail("error_envelope");
    return;
  }
  auto Ref = Cfg.Refs.find(P.Tmpl);
  if (Ref == Cfg.Refs.end())
    return;
  ++Checked;
  std::string_view Payload = Line.substr(
      Prefix.size() + Ok.size(), Line.size() - Prefix.size() - Ok.size() - 1);
  if (Payload != Ref->second)
    fail("payload_mismatch");
}

bool LoadGen::readFrom(Conn &C, int64_t NowNs, PhaseResult &R) {
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      return false;
    }
    if (N == 0)
      return false;
    C.In.append(Buf, static_cast<size_t>(N));
  }
  size_t Start = 0;
  for (size_t Nl = C.In.find('\n'); Nl != std::string::npos;
       Nl = C.In.find('\n', Start)) {
    complete(C, std::string_view(C.In).substr(Start, Nl - Start), NowNs, R);
    Start = Nl + 1;
  }
  C.In.erase(0, Start);
  return true;
}

/// Offers \p Count requests at \p Rate per second and waits for every
/// answer. Rate 0 is a closed loop: one request in flight, each due when the
/// one before it is answered.
PhaseResult LoadGen::runPhase(double Rate, size_t Count) {
  PhaseResult R;
  R.Rate = Rate;
  R.LatMs.reserve(Count);
  R.DoneNs.reserve(Count);
  const double IntervalNs = Rate > 0 ? 1e9 / Rate : 0;
  const int64_t T0 = nowNs() + 1000000;
  auto DueOf = [&](size_t I) {
    return T0 + static_cast<int64_t>(static_cast<double>(I) * IntervalNs);
  };
  int64_t GiveUpNs = DueOf(Count) + 10'000'000'000LL;
  size_t Next = 0;
  std::vector<pollfd> Pfds(Conns.size());
  for (;;) {
    int64_t Now = nowNs();
    if (Rate == 0 && Next < Count && outstanding() == 0) {
      send(Now);
      ++Next;
      GiveUpNs = Now + 10'000'000'000LL;
    }
    while (Rate > 0 && Next < Count && DueOf(Next) <= Now) {
      double LateMs = static_cast<double>(Now - DueOf(Next)) * 1e-6;
      R.LateMaxMs = std::max(R.LateMaxMs, LateMs);
      R.LateCount += LateMs > LateLimitMs;
      send(DueOf(Next));
      ++Next;
      Now = nowNs();
    }
    if (Next == Count && outstanding() == 0)
      break;
    if (Now > GiveUpNs) {
      R.TimedOut = true;
      for (size_t I = outstanding(); I > 0; --I)
        fail("timeout");
      break;
    }
    int64_t WaitNs = 20'000'000;
    if (Rate > 0 && Next < Count)
      WaitNs = std::max<int64_t>(0, DueOf(Next) - Now);
    for (size_t I = 0; I < Conns.size(); ++I)
      Pfds[I] = {Conns[I].Fd,
                 static_cast<short>(POLLIN | (Conns[I].Out.empty() ? 0
                                                                   : POLLOUT)),
                 0};
    timespec Ts{static_cast<time_t>(WaitNs / 1'000'000'000),
                static_cast<long>(WaitNs % 1'000'000'000)};
    int Ready = ::ppoll(Pfds.data(), Pfds.size(), &Ts, nullptr);
    if (Ready <= 0)
      continue;
    Now = nowNs();
    for (size_t I = 0; I < Conns.size(); ++I) {
      if (Pfds[I].revents & POLLOUT)
        flush(Conns[I]);
      if (!(Pfds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      if (!readFrom(Conns[I], Now, R)) {
        R.TimedOut = true; // connection lost: nothing more will arrive
        for (size_t K = outstanding(); K > 0; --K)
          fail("connection_closed");
        return R;
      }
    }
  }
  // A trailing partial block joins the one before it.
  std::vector<double> P50s, P99s, Rates;
  size_t NumBlocks = std::max<size_t>(1, R.LatMs.size() / BlockRequests);
  for (size_t B = 0; B < NumBlocks; ++B) {
    size_t First = B * BlockRequests;
    size_t Last = B + 1 == NumBlocks ? R.LatMs.size() : First + BlockRequests;
    if (First >= Last)
      break;
    int64_t FromNs = First ? R.DoneNs[First - 1] : T0;
    if (R.DoneNs[Last - 1] > FromNs)
      Rates.push_back(static_cast<double>(Last - First) * 1e9 /
                      static_cast<double>(R.DoneNs[Last - 1] - FromNs));
    std::vector<double> Block(R.LatMs.begin() + static_cast<long>(First),
                              R.LatMs.begin() + static_cast<long>(Last));
    std::sort(Block.begin(), Block.end());
    P50s.push_back(quantile(Block, 0.50));
    P99s.push_back(quantile(Block, 0.99));
    if (!Block.empty())
      R.MaxMs = std::max(R.MaxMs, Block.back());
  }
  R.Achieved = median(Rates);
  R.P50 = median(P50s);
  R.P99 = median(P99s);
  return R;
}

bool parseRefs(const std::string &Path,
               std::unordered_map<uint32_t, std::string> &Out) {
  std::vector<std::string> Lines;
  if (!readLines(Path, Lines))
    return false;
  for (const std::string &L : Lines) {
    size_t Tab = L.find('\t');
    if (Tab == std::string::npos)
      return false;
    Out[static_cast<uint32_t>(std::stoul(L.substr(0, Tab)))] = L.substr(Tab + 1);
  }
  return true;
}

std::string phaseJson(const PhaseResult &R) {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\"achieved\":%.3f,\"samples\":%zu,\"p50_ms\":%.6f,"
                "\"p99_ms\":%.6f,\"max_ms\":%.6f,\"late_max_ms\":%.6f,"
                "\"late_count\":%zu,\"late_limit_ms\":%g}",
                R.Achieved, R.LatMs.size(), R.P50, R.P99, R.MaxMs, R.LateMaxMs,
                R.LateCount, LateLimitMs);
  return Buf;
}

} // namespace

int cmdLoad(int Argc, char **Argv) {
  LoadConfig Cfg;
  std::string TemplatesPath, SequencePath, RefsPath;
  for (int I = 0; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--socket")
      Cfg.Socket = Val;
    else if (Key == "--templates")
      TemplatesPath = Val;
    else if (Key == "--sequence")
      SequencePath = Val;
    else if (Key == "--refs")
      RefsPath = Val;
    else if (Key == "--start")
      Cfg.Start = std::stoul(Val);
    else if (Key == "--warmup")
      Cfg.Warmup = std::stoul(Val);
    else if (Key == "--fixed-rate")
      Cfg.FixedRate = std::stod(Val);
    else if (Key == "--fixed-requests")
      Cfg.FixedRequests =
          std::max<size_t>(1, std::stoul(Val) / BlockRequests) * BlockRequests;
    else if (Key == "--closed")
      Cfg.Closed = std::stoul(Val);
    else if (Key == "--saturate")
      Cfg.Saturate = std::stoul(Val);
    else {
      std::fprintf(stderr, "pbtool load: unknown option %s\n", Key.c_str());
      return 2;
    }
  }
  std::vector<std::string> SeqLines;
  if (Cfg.Socket.empty() || !readLines(TemplatesPath, Cfg.Bodies) ||
      !readLines(SequencePath, SeqLines) || SeqLines.empty()) {
    std::fprintf(stderr,
                 "pbtool load: need --socket, --templates and --sequence\n");
    return 2;
  }
  for (const std::string &L : SeqLines) {
    uint32_t T = static_cast<uint32_t>(std::stoul(L));
    if (T >= Cfg.Bodies.size()) {
      std::fprintf(stderr, "pbtool load: sequence names template %u\n", T);
      return 2;
    }
    Cfg.Sequence.push_back(T);
  }
  if (!RefsPath.empty() && !parseRefs(RefsPath, Cfg.Refs)) {
    std::fprintf(stderr, "pbtool load: bad --refs file\n");
    return 2;
  }
  // Wake-ups are scheduled to the microsecond; the default 50 us timer
  // slack would show up as generator lateness.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  const LoadConfig Plan = Cfg;
  LoadGen G(std::move(Cfg));
  std::string Err;
  if (!G.connectAll(&Err)) {
    std::fprintf(stderr, "pbtool load: %s\n", Err.c_str());
    return 1;
  }
  std::string Out = "{";
  bool Broken = false;
  if (Plan.Warmup) {
    // Untimed: every warm-up request is offered at once.
    PhaseResult W = G.runPhase(1e9, Plan.Warmup);
    Broken |= W.TimedOut;
    Out += "\"warmup\":{\"requests\":" + std::to_string(Plan.Warmup) + "},";
  }
  if (!Broken && Plan.FixedRate > 0 && Plan.FixedRequests > 0) {
    PhaseResult F = G.runPhase(Plan.FixedRate, Plan.FixedRequests);
    Broken |= F.TimedOut;
    Out += "\"fixed\":" + phaseJson(F) + ",";
  }
  if (!Broken && Plan.Closed > 0) {
    PhaseResult C = G.runPhase(0, Plan.Closed);
    Broken |= C.TimedOut;
    Out += "\"closed\":" + phaseJson(C) + ",";
  }
  if (!Broken && Plan.Saturate > 0) {
    // Offered all at once, the requests queue in the connections and the
    // fleet serves them back to back: the delivered rate is its capacity.
    PhaseResult S = G.runPhase(1e9, Plan.Saturate);
    Broken |= S.TimedOut;
    Out += "\"saturate\":" + phaseJson(S) + ",";
  }
  std::map<std::string, uint64_t> Kinds = G.FailKinds;
  std::string KindsJson;
  for (const auto &[K, V] : Kinds)
    KindsJson += (KindsJson.empty() ? "\"" : ",\"") + K +
                 "\":" + std::to_string(V);
  Out += "\"attempted\":" + std::to_string(G.Attempted) +
         ",\"failed\":" + std::to_string(G.Failed) +
         ",\"checked\":" + std::to_string(G.Checked) + ",\"fail_kinds\":{" +
         KindsJson + "},\"broken\":" + (Broken ? "true" : "false") + "}";
  std::printf("%s\n", Out.c_str());
  return 0;
}

} // namespace pb
