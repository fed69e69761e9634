//===- pbtool.h - Shared pieces of the benchmark's helper tool -*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `pbtool` is the benchmark's own C++ helper (perfbench/run.py drives it):
///
///   pbtool load         the single-process load generator
///   pbtool trace-train  the in-process, span-traced replay of `uspec train`
///   pbtool trace-serve  the in-process, span-traced replay of routed serving
///
/// The spans here are recorded by the benchmark around calls into the
/// library's public functions; nothing inside the program is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PBTOOL_H
#define PERFBENCH_PBTOOL_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder for one thread. Spans nest by construction order
/// (a span opened while another is open is its child); spans of one
/// request share the request id. A disabled tracer records nothing and
/// reads no clock, which is what the untraced in-process run measures.
class Tracer {
public:
  struct Span {
    const char *Name;
    int64_t StartNs;
    int64_t EndNs;
    int32_t Parent; ///< Index of the enclosing span, -1 for a root.
    uint32_t Req;   ///< Request (or program) id the span belongs to.
  };

  explicit Tracer(bool On) : On(On) {}

  int32_t begin(const char *Name, uint32_t Req) {
    if (!On)
      return -1;
    Spans.push_back({Name, nowNs(), 0, Open, Req});
    Open = static_cast<int32_t>(Spans.size() - 1);
    return Open;
  }

  void end(int32_t Idx) {
    if (Idx < 0)
      return;
    Spans[static_cast<size_t>(Idx)].EndNs = nowNs();
    Open = Spans[static_cast<size_t>(Idx)].Parent;
  }

  /// Number of spans recorded so far; a span index for the range arguments.
  size_t size() const { return Spans.size(); }

  /// Self seconds per span name over spans [First, Last): a span's duration
  /// minus the durations of its direct children.
  std::map<std::string, double> selfSeconds(size_t First = 0,
                                            size_t Last = SIZE_MAX) const;

  /// Total duration per span name over spans [First, Last), in seconds.
  std::map<std::string, double> totalSeconds(size_t First = 0,
                                             size_t Last = SIZE_MAX) const;

  /// Writes all spans as a Chrome-trace JSON document (complete "X"
  /// events, microsecond timestamps). Returns false on an I/O error.
  bool writeChromeTrace(const std::string &Path) const;

private:
  bool On;
  std::vector<Span> Spans;
  int32_t Open = -1;
};

/// RAII span.
class Scope {
public:
  Scope(Tracer &T, const char *Name, uint32_t Req)
      : T(T), Idx(T.begin(Name, Req)) {}
  ~Scope() { T.end(Idx); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  int32_t Idx;
};

/// Ordered (name, value) list printed as one flat JSON object.
using Metrics = std::vector<std::pair<std::string, double>>;

std::string metricsJson(const Metrics &M);

bool readWholeFile(const std::string &Path, std::string &Out);
bool readLines(const std::string &Path, std::vector<std::string> &Out);

int cmdLoad(int Argc, char **Argv);
int cmdTraceTrain(int Argc, char **Argv);
int cmdTraceServe(int Argc, char **Argv);

} // namespace pb

#endif // PERFBENCH_PBTOOL_H
