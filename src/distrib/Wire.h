//===- Wire.h - One-shot client for serve/route sockets ---------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of routed serving (DESIGN.md §14): one newline-delimited
/// JSON round trip against a `uspec serve` replica or a `uspec route`
/// router, on the shared line client (service/LineConn.h).
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_DISTRIB_WIRE_H
#define USPEC_DISTRIB_WIRE_H

#include <string>

namespace uspec {
namespace distrib {

/// One-shot newline-delimited JSON round trip against a Unix-socket service
/// (a serve replica or the router) on a fresh connection, closed
/// afterwards. Tests and benches drive replicas through this; the router
/// itself uses pooled connections.
bool clientRoundTrip(const std::string &SocketPath,
                     const std::string &RequestLine, std::string &Response,
                     std::string *Err = nullptr);

} // namespace distrib
} // namespace uspec

#endif // USPEC_DISTRIB_WIRE_H
