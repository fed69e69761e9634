//===- LineConn.cpp - Line-protocol connections for serve/route ----------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/LineConn.h"

#include "service/Protocol.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace uspec;
using namespace uspec::service;

int service::unixSocket(const std::string &Path, bool Listen,
                        std::string *Err) {
  sockaddr_un Sa{};
  Sa.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Sa.sun_path)) {
    if (Err)
      *Err = "socket path too long: " + Path;
    return -1;
  }
  std::memcpy(Sa.sun_path, Path.c_str(), Path.size() + 1);
  auto *Addr = reinterpret_cast<sockaddr *>(&Sa);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0), Rc = Fd;
  if (Fd >= 0 && Listen) {
    ::unlink(Path.c_str()); // discard a stale socket from a dead process
    Rc = ::bind(Fd, Addr, sizeof(Sa)) < 0 ? -1 : ::listen(Fd, 64);
  } else if (Fd >= 0) {
    do
      Rc = ::connect(Fd, Addr, sizeof(Sa));
    while (Rc < 0 && errno == EINTR);
  }
  if (Rc >= 0)
    return Fd;
  if (Err)
    *Err = std::string(Listen ? "bind/listen" : "connect") + " unix:" + Path +
           ": " + std::strerror(errno);
  if (Fd >= 0)
    ::close(Fd);
  return -1;
}

bool LineConn::connect(const std::string &Path, std::string *Err) {
  close();
  Fd = unixSocket(Path, /*Listen=*/false, Err);
  return Fd >= 0;
}

void LineConn::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
  Buf.clear();
}

bool LineConn::send(std::string Line, std::string *Err) {
  Line.push_back('\n');
  for (std::string_view Rest = Line; !Rest.empty();) {
    ssize_t N = ::send(Fd, Rest.data(), Rest.size(), MSG_NOSIGNAL);
    if (N < 0 && errno != EINTR) {
      if (Err)
        *Err = std::string("send: ") + std::strerror(errno);
      return false;
    }
    Rest.remove_prefix(N < 0 ? 0 : static_cast<size_t>(N));
  }
  return true;
}

LineConn::Read LineConn::readStep(std::string &Out, size_t Max) {
  for (bool Received = false;; Received = true) {
    size_t Nl = Buf.find('\n');
    if (Nl != std::string::npos && Nl <= Max) {
      Out.assign(Buf, 0, Nl);
      Buf.erase(0, Nl + 1);
      return Read::Line;
    }
    if (std::min(Nl, Buf.size()) > Max)
      return Read::TooLong;
    if (Received)
      return Read::Partial;
    char Chunk[65536];
    ssize_t N;
    do
      N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    while (N < 0 && errno == EINTR);
    if (N <= 0)
      return Read::Closed;
    Buf.append(Chunk, static_cast<size_t>(N));
  }
}

void ConnPool::clear() {
  std::vector<LineConn> Stale;
  std::lock_guard<std::mutex> Lock(Mu);
  Stale.swap(Idle);
}

bool ConnPool::roundTrip(std::string_view Line, std::string &Out,
                         std::string *Err) {
  PooledCall Call(*this, Line);
  while (!Call.done())
    Call.step();
  if (Call.ok())
    Out = std::move(Call.Response);
  else if (Err)
    *Err = Call.Err;
  return Call.ok();
}

PooledCall::PooledCall(ConnPool &P, std::string_view L) : Pool(P), Line(L) {
  {
    std::lock_guard<std::mutex> Lock(Pool.Mu);
    if ((Reused = !Pool.Idle.empty())) {
      C = std::move(Pool.Idle.back());
      Pool.Idle.pop_back();
    }
  }
  send();
}

PooledCall::~PooledCall() {
  if (!Ok)
    return;
  std::lock_guard<std::mutex> Lock(Pool.Mu);
  Pool.Idle.push_back(std::move(C));
}

void PooledCall::send() {
  if (!C.valid() && !C.connect(Pool.Path, &Err))
    Done = true;
  else if (!C.send(Line, &Err))
    fail();
}

void PooledCall::fail() {
  // No answer byte arrived on a pooled connection: its peer went away while
  // it sat idle, and so did its siblings. Retry once, fresh.
  bool Stale = Reused && C.Buf.empty();
  C.close();
  Done = !Stale;
  Reused = false;
  if (Stale) {
    Pool.clear();
    send();
  }
}

void PooledCall::step() {
  LineConn::Read R = C.readStep(Response);
  if (R == LineConn::Read::Line) {
    Done = Ok = true;
  } else if (R != LineConn::Read::Partial) {
    Err = "connection to " + Pool.Path + " closed before a response";
    fail();
  }
}

bool LineServer::listen(const std::string &P, std::string *Err) {
  Path = P;
  ListenFd = unixSocket(Path, /*Listen=*/true, Err);
  return ListenFd >= 0;
}

size_t LineServer::live() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return std::count_if(Conns.begin(), Conns.end(),
                       [](const Conn &C) { return !C.Done; });
}

void LineServer::serveConn(Conn *C) {
  LineConn L(C->Fd);
  std::string Line;
  for (;;) {
    LineConn::Read R;
    while ((R = L.readStep(Line, MaxLineBytes)) == LineConn::Read::Partial) {
    }
    if (R == LineConn::Read::TooLong) {
      // A line over the cap can never frame correctly again: answer once
      // and drop the connection.
      L.send(errorResponse("", "oversized",
                           "request line exceeds the " +
                               std::to_string(MaxLineBytes) + "-byte limit"));
      break;
    }
    if (R != LineConn::Read::Line)
      break;
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (!Line.empty() && !L.send(Handle(std::move(Line))))
      break;
  }
  {
    // Closed under Mu, so run()'s shutdown pass never hits a reused fd.
    std::lock_guard<std::mutex> Lock(Mu);
    L.close();
    C->Fd = -1;
    C->Done = true;
  }
  uint64_t One = 1;
  (void)!::write(WakeFd, &One, sizeof(One));
}

void LineServer::run(unsigned PollMs, const std::function<bool()> &Stopped,
                     const std::function<void()> &OnTick) {
  WakeFd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  while (WakeFd >= 0 && !Stopped()) {
    if (OnTick)
      OnTick();
    pollfd Fds[2] = {{ListenFd, POLLIN, 0}, {WakeFd, POLLIN, 0}};
    int Ready = ::poll(Fds, 2, static_cast<int>(PollMs));
    if (Ready < 0 && errno != EINTR)
      break;
    if (Ready > 0 && (Fds[1].revents & POLLIN)) {
      // Reap: join the handlers of closed connections.
      uint64_t Count;
      (void)!::read(WakeFd, &Count, sizeof(Count));
      std::list<Conn> Finished;
      {
        std::lock_guard<std::mutex> Lock(Mu);
        for (auto It = Conns.begin(); It != Conns.end();)
          if (It->Done)
            Finished.splice(Finished.end(), Conns, It++);
          else
            ++It;
      }
      for (Conn &C : Finished)
        C.Thread.join();
    }
    int Fd = Ready > 0 && (Fds[0].revents & POLLIN)
                 ? ::accept4(ListenFd, nullptr, nullptr, SOCK_CLOEXEC)
                 : -1;
    if (Fd < 0)
      continue;
    Accepted.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(Mu);
    Conn &C = Conns.emplace_back();
    C.Fd = Fd;
    C.Thread = std::thread(&LineServer::serveConn, this, &C);
  }

  ::close(ListenFd);
  ::unlink(Path.c_str());
  {
    // Wake the readers: a stopped server answers nothing more.
    std::lock_guard<std::mutex> Lock(Mu);
    for (Conn &C : Conns)
      if (C.Fd >= 0)
        ::shutdown(C.Fd, SHUT_RD);
  }
  for (Conn &C : Conns)
    C.Thread.join();
  std::lock_guard<std::mutex> Lock(Mu);
  Conns.clear();
  ::close(WakeFd);
}
