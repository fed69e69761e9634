//===- Wire.h - Distributed training/serving wire layer --------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport and message layer of the distributed subsystem
/// (DESIGN.md §14): length-prefixed frames over Unix-domain or TCP stream
/// sockets, each frame carrying one USPB container (artifact/Container.h) —
/// the PR 1 artifact format doubles as the interchange, so every message
/// payload is section-addressed and checksummed in transit for free.
///
/// Frame layout: 4-byte magic "USPW", u64 little-endian payload length,
/// payload bytes. Every payload is a USPB container whose "dmsg" section
/// holds the message type plus type-specific scalars; bulk data (program
/// sources, training samples, the encoded model, candidate ledgers) rides
/// in further sections reusing the artifact codecs.
///
/// Message flow of a distributed train (two rounds, because Phase 3
/// extraction scores edge confidences against the *globally trained* model):
///
///   worker -> coord   Hello
///   coord  -> worker  Init        config scalars + interner snapshot
///   coord  -> worker  Analyze     one corpus shard (sources)
///   worker -> coord   Analyzed    per-program samples + quarantine reasons
///   coord  -> worker  Model       the trained (or warm-continued) ϕ
///   coord  -> worker  Extract     shard id (sources only on reassignment)
///   worker -> coord   Extracted   per-shard candidate ledger + counters
///   coord  -> worker  Done
///   worker -> coord   Error       any failure, before the worker exits
///
/// The interner snapshot exists because feature hashing folds in interner-
/// local Symbol ids (model/Features.cpp eventLabel): a worker must assign
/// byte-for-byte the same ids the coordinator's interner did, so Init ships
/// every interned string in id order and the worker replays them. Worker
/// re-parses only sources the coordinator already parsed, so no parse can
/// mint a symbol outside the snapshot.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_DISTRIB_WIRE_H
#define USPEC_DISTRIB_WIRE_H

#include "core/Learner.h"
#include "model/EdgeModel.h"
#include "support/StringInterner.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace uspec {
namespace distrib {

//===----------------------------------------------------------------------===//
// Addresses and sockets
//===----------------------------------------------------------------------===//

/// A worker/coordinator endpoint: `unix:PATH` (or a bare path containing
/// '/') or `tcp:HOST:PORT`.
struct Address {
  bool Tcp = false;
  std::string Path; ///< Socket path (unix) or host (tcp).
  uint16_t Port = 0;

  /// Canonical form ("unix:/tmp/x.sock", "tcp:127.0.0.1:7070").
  std::string str() const;
};

/// Parses an address; on failure returns nullopt and fills \p Err.
std::optional<Address> parseAddress(std::string_view Text,
                                    std::string *Err = nullptr);

/// Creates a listening stream socket for \p Addr (unlinking a stale Unix
/// socket path first). Returns the fd, or -1 with \p Err filled.
int wireListen(const Address &Addr, std::string *Err = nullptr);

/// Polls \p ListenFd for up to \p PollMs and accepts one connection.
/// Returns the connected fd, -1 on timeout, -2 on a hard error.
int wireAccept(int ListenFd, unsigned PollMs);

/// Connects to \p Addr. Returns the fd, or -1 with \p Err filled.
int wireConnect(const Address &Addr, std::string *Err = nullptr);

/// Maximum accepted frame payload (a corrupted peer cannot make us allocate
/// unboundedly).
inline constexpr uint64_t MaxFrameBytes = uint64_t(1) << 30;

/// Sends one length-prefixed frame (EINTR-safe, SIGPIPE-suppressed).
bool sendFrame(int Fd, std::string_view Payload, std::string *Err = nullptr);

/// Receives one frame into \p Payload. Returns false on EOF, a malformed
/// header, an oversized frame, or a socket error (\p Err says which).
bool recvFrame(int Fd, std::string &Payload, std::string *Err = nullptr);

/// One-shot newline-delimited JSON round trip against a Unix-socket service
/// (a serve replica or the router) on a fresh connection, closed
/// afterwards. Tests and benches drive replicas through this; the router
/// itself uses pooled connections.
bool clientRoundTrip(const std::string &SocketPath,
                     const std::string &RequestLine, std::string &Response,
                     std::string *Err = nullptr);

//===----------------------------------------------------------------------===//
// Messages
//===----------------------------------------------------------------------===//

inline constexpr uint64_t WireProtocolVersion = 1;

enum class MsgType : uint8_t {
  Hello = 1,     ///< worker -> coord: protocol version + pid
  Init = 2,      ///< coord -> worker: config + interner snapshot
  Analyze = 3,   ///< coord -> worker: one shard of program sources
  Analyzed = 4,  ///< worker -> coord: samples + quarantine per program
  Model = 5,     ///< coord -> worker: encoded trained ϕ
  Extract = 6,   ///< coord -> worker: extract candidates for one shard
  Extracted = 7, ///< worker -> coord: per-shard candidate ledger
  Done = 8,      ///< coord -> worker: shut down cleanly
  Error = 9,     ///< worker -> coord: failure report (worker exits after)
};

/// One corpus program shipped to a worker: display name + source text.
struct ProgramSource {
  std::string Name;
  std::string Source;
};

/// The Phase 1–3 slice of LearnerConfig a worker needs. Scoring/selection
/// parameters (τ, top-k, score kind) stay coordinator-side.
struct WireConfig {
  uint64_t Seed = 0xC0FFEE;
  uint64_t DistanceBound = 10;
  uint64_t ProgramStepBudget = 0;
  uint64_t Threads = 0; ///< Worker-internal parallelism for Phase 1.
  bool ExperimentalPatterns = false;
};

/// Init payload: pipeline config + the coordinator's interner snapshot
/// (every string in Symbol-id order, id 0 = "" omitted).
///
/// TraceContext is an optional trailing field (v1-compatible: absent frames
/// decode with an empty context): the coordinator's trace/session id, which
/// workers stamp onto their analyze/extract spans so `uspec obs stitch` can
/// hang worker-side work under the coordinating run in one merged trace.
struct InitMsg {
  WireConfig Config;
  std::vector<std::string> Symbols;
  uint32_t WorkerId = 0; ///< Index for distrib.worker.* fault sites.
  std::string TraceContext; ///< Coordinator trace id ("" = untraced).
};

/// Analyze payload: a contiguous corpus shard.
struct AnalyzeTask {
  uint64_t Shard = 0; ///< Shard id, echoed in the reply.
  uint64_t Base = 0;  ///< Global corpus index of Programs[0].
  std::vector<ProgramSource> Programs;
  std::string TraceContext; ///< Optional trailing per-task trace id.
};

/// Analyzed payload: everything Phase 1–2a produced for the shard.
struct AnalyzedResult {
  uint64_t Shard = 0;
  /// Per program, in shard order.
  std::vector<std::vector<TrainingSample>> Samples;
  /// Per-program quarantine reason ("" = healthy), same indexing.
  std::vector<std::string> QReason;
  /// Number of non-empty event graphs (PipelineStats::Graphs contribution).
  uint64_t Graphs = 0;
};

/// Extract payload. Sources are only present when the shard was reassigned
/// to a worker that never analyzed it (the analyzer died); the original
/// worker extracts from its cached graphs.
struct ExtractTask {
  uint64_t Shard = 0;
  uint64_t Base = 0;
  std::vector<ProgramSource> Programs; ///< Empty: use cached shard state.
  std::string TraceContext; ///< Optional trailing per-task trace id.
};

/// Extracted payload: the shard's candidate evidence plus workload counters
/// and extraction-phase quarantine updates.
struct ExtractedResult {
  uint64_t Shard = 0;
  CandidateLedger Ledger;
  /// (local program index, reason) pairs for programs quarantined during
  /// extraction ("extract:steps").
  std::vector<std::pair<uint64_t, std::string>> QUpdates;
  uint64_t ReceiverPairs = 0;
  uint64_t Matches = 0;
  uint64_t PeakCandidates = 0;
};

/// Reads the message type of a decoded frame without decoding the payload.
/// Returns nullopt (and fills \p Err) on a malformed container.
std::optional<MsgType> peekType(std::string_view Frame,
                                std::string *Err = nullptr);

// Control messages (Hello/Done/Error) carry one free-form text field.
std::string encodeControl(MsgType Type, std::string_view Text);
bool decodeControl(std::string_view Frame, MsgType &Type, std::string &Text,
                   std::string *Err = nullptr);

std::string encodeInit(const InitMsg &Msg);
bool decodeInit(std::string_view Frame, InitMsg &Out,
                std::string *Err = nullptr);

std::string encodeAnalyzeTask(const AnalyzeTask &Task);
bool decodeAnalyzeTask(std::string_view Frame, AnalyzeTask &Out,
                       std::string *Err = nullptr);

std::string encodeAnalyzedResult(const AnalyzedResult &Result);
bool decodeAnalyzedResult(std::string_view Frame, AnalyzedResult &Out,
                          std::string *Err = nullptr);

std::string encodeModelMsg(const EdgeModel &Model);
bool decodeModelMsg(std::string_view Frame, EdgeModel &Out,
                    std::string *Err = nullptr);

std::string encodeExtractTask(const ExtractTask &Task);
bool decodeExtractTask(std::string_view Frame, ExtractTask &Out,
                       std::string *Err = nullptr);

/// The ledger's specs are encoded through the artifact symbol table, so the
/// encoding interner (worker) and decoding interner (coordinator) need not
/// share Symbol ids.
std::string encodeExtractedResult(const ExtractedResult &Result,
                                  const StringInterner &Strings);
bool decodeExtractedResult(std::string_view Frame, ExtractedResult &Out,
                           StringInterner &Strings,
                           std::string *Err = nullptr);

} // namespace distrib
} // namespace uspec

#endif // USPEC_DISTRIB_WIRE_H
