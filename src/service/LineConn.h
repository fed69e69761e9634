//===- LineConn.h - Line-protocol connections for serve/route ---*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one connection layer of the serving tier (DESIGN.md §9): newline-
/// delimited request/response lines over close-on-exec Unix stream sockets.
/// Server side: LineServer, the accept loop of `serve` and `route`, with one
/// handler thread per connection that is reaped when the connection closes.
/// Client side: LineConn, one persistent connection; ConnPool and
/// PooledCall, lazily opened idle connections to one address — the client
/// of the router, `uspec query` and distrib::clientRoundTrip.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_SERVICE_LINECONN_H
#define USPEC_SERVICE_LINECONN_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace uspec {
namespace service {

/// Request lines longer than this are answered `oversized` unparsed.
inline constexpr size_t DefaultMaxLineBytes = 4 << 20;

/// A listening (after unlinking a stale socket file) or connected Unix
/// stream socket on \p Path; -1 with \p Err filled on error.
int unixSocket(const std::string &Path, bool Listen, std::string *Err);

/// One connected stream socket, read and written a line at a time.
class LineConn {
public:
  enum class Read { Line, Partial, Closed, TooLong };

  LineConn() = default;
  explicit LineConn(int Fd) : Fd(Fd) {}
  LineConn(LineConn &&O) noexcept
      : Fd(std::exchange(O.Fd, -1)), Buf(std::move(O.Buf)) {}
  LineConn &operator=(LineConn &&O) noexcept {
    std::swap(Fd, O.Fd);
    std::swap(Buf, O.Buf);
    return *this;
  }
  ~LineConn() { close(); }

  bool connect(const std::string &Path, std::string *Err = nullptr);
  void close();
  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }
  /// Sends \p Line plus its newline (SIGPIPE-suppressed).
  bool send(std::string Line, std::string *Err = nullptr);
  /// Hands out a buffered line (newline stripped), else reads once and
  /// re-checks. TooLong: the line exceeds \p Max bytes.
  Read readStep(std::string &Out, size_t Max = SIZE_MAX);

private:
  friend class PooledCall;
  int Fd = -1;
  std::string Buf; ///< Received bytes past the last returned line.
};

/// Idle connections to one Unix-socket address, shared across threads; it
/// holds at most as many as were ever in use at once. A fresh pool is a
/// one-shot client; a kept one reconnects after a failure by itself.
class ConnPool {
public:
  explicit ConnPool(std::string Path) : Path(std::move(Path)) {}
  /// One request/response on a pooled connection (see PooledCall).
  bool roundTrip(std::string_view Line, std::string &Out,
                 std::string *Err = nullptr);

private:
  friend class PooledCall;
  void clear(); ///< Closes every idle connection.
  std::string Path;
  std::mutex Mu;
  std::vector<LineConn> Idle; ///< Guarded by Mu.
};

/// One request in flight on a connection drawn from a ConnPool. The
/// constructor sends it; step() reads (blocking, unless the caller polled
/// fd() readable) until done(). A *reused* connection that fails before any
/// answer byte (its peer restarted while it sat idle) empties the pool and
/// retries once on a fresh one. Only a call that got its answer returns its
/// connection to the pool; an abandoned hedge leg's connection is closed.
class PooledCall {
public:
  PooledCall(ConnPool &Pool, std::string_view Line);
  ~PooledCall();
  PooledCall(const PooledCall &) = delete;
  PooledCall &operator=(const PooledCall &) = delete;
  bool done() const { return Done; }
  bool ok() const { return Ok; }
  int fd() const { return C.fd(); }
  void step();
  std::string Response, Err;

private:
  void send();
  void fail();

  ConnPool &Pool;
  std::string Line;
  LineConn C;
  bool Reused = false; ///< C came from the pool and may be stale.
  bool Done = false, Ok = false;
};

/// The accept loop shared by `serve` and `route`.
class LineServer {
public:
  /// Maps one request line to one response line (no trailing newline).
  using Handler = std::function<std::string(std::string Line)>;

  LineServer(size_t MaxLineBytes, Handler Handle)
      : MaxLineBytes(MaxLineBytes), Handle(std::move(Handle)) {}
  LineServer(const LineServer &) = delete; // handler threads hold `this`
  LineServer &operator=(const LineServer &) = delete;
  /// Binds \p Path (unlinking a stale socket file). False on error.
  bool listen(const std::string &Path, std::string *Err = nullptr);
  /// Serves connections until \p Stopped — checked at least every
  /// \p PollMs, each check followed by \p OnTick on this thread — then
  /// closes and unlinks the listener, wakes every reader and joins all
  /// handlers.
  void run(unsigned PollMs, const std::function<bool()> &Stopped,
           const std::function<void()> &OnTick = nullptr);
  uint64_t accepted() const { return Accepted.load(); }
  size_t live() const; ///< Connections whose handler has not finished.

private:
  struct Conn {
    int Fd = -1;       ///< Guarded by Mu; -1 once closed.
    bool Done = false; ///< Guarded by Mu.
    std::thread Thread;
  };
  void serveConn(Conn *C);

  size_t MaxLineBytes;
  Handler Handle;
  std::string Path;
  int ListenFd = -1;
  int WakeFd = -1; ///< eventfd a finishing handler signals.
  mutable std::mutex Mu;
  std::list<Conn> Conns; ///< Guarded by Mu.
  std::atomic<uint64_t> Accepted{0};
};

} // namespace service
} // namespace uspec

#endif // USPEC_SERVICE_LINECONN_H
