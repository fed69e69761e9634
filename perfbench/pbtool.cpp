//===- pbtool.cpp - Benchmark helper: entry point, spans ------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "pbtool.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace pb {

std::map<std::string, double> Tracer::selfSeconds(size_t First,
                                                  size_t Last) const {
  Last = std::min(Last, Spans.size());
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
  std::map<std::string, double> Out;
  for (size_t I = First; I < Last; ++I)
    Out[Spans[I].Name] +=
        static_cast<double>(Spans[I].EndNs - Spans[I].StartNs - ChildNs[I]) *
        1e-9;
  return Out;
}

std::map<std::string, double> Tracer::totalSeconds(size_t First,
                                                   size_t Last) const {
  Last = std::min(Last, Spans.size());
  std::map<std::string, double> Out;
  for (size_t I = First; I < Last; ++I)
    Out[Spans[I].Name] +=
        static_cast<double>(Spans[I].EndNs - Spans[I].StartNs) * 1e-9;
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  int64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  std::fputs("{\"traceEvents\":[\n", F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"req\":%" PRIu32 "}}\n",
                 I ? "," : "", S.Name,
                 static_cast<double>(S.StartNs - Base) * 1e-3,
                 static_cast<double>(S.EndNs - S.StartNs) * 1e-3, I,
                 S.Parent, S.Req);
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", F);
  return std::fclose(F) == 0;
}

std::string metricsJson(const Metrics &M) {
  std::string Out = "{";
  char Buf[64];
  for (size_t I = 0; I < M.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.9g", M[I].second);
    Out += (I ? ",\"" : "\"") + M[I].first + "\":" + Buf;
  }
  return Out + "}";
}

bool readWholeFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream S;
  S << In.rdbuf();
  Out = S.str();
  return !In.bad();
}

bool readLines(const std::string &Path, std::vector<std::string> &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  for (std::string Line; std::getline(In, Line);)
    if (!Line.empty())
      Out.push_back(std::move(Line));
  return !In.bad();
}

} // namespace pb

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr,
                 "usage: pbtool load|trace-train|trace-serve OPTIONS\n");
    return 2;
  }
  std::string Cmd = Argv[1];
  try {
    if (Cmd == "load")
      return pb::cmdLoad(Argc - 2, Argv + 2);
    if (Cmd == "trace-train")
      return pb::cmdTraceTrain(Argc - 2, Argv + 2);
    if (Cmd == "trace-serve")
      return pb::cmdTraceServe(Argc - 2, Argv + 2);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "pbtool %s: %s\n", Cmd.c_str(), E.what());
    return 1;
  }
  std::fprintf(stderr, "pbtool: unknown command %s\n", Cmd.c_str());
  return 2;
}
