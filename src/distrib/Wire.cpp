//===- Wire.cpp - One-shot client for serve/route sockets -----------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "distrib/Wire.h"

#include "service/LineConn.h"

bool uspec::distrib::clientRoundTrip(const std::string &SocketPath,
                                     const std::string &RequestLine,
                                     std::string &Response, std::string *Err) {
  return service::ConnPool(SocketPath).roundTrip(RequestLine, Response, Err);
}
