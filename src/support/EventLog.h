//===- EventLog.h - Structured fleet event log ------------------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide structured event log for fleet lifecycle transitions
/// (probe failures, respawns, rejoins, hedges, reloads).
/// Events are JSONL: one self-contained JSON object per line, so the log is
/// greppable, tailable, and mergeable across processes without a reader that
/// holds state.
///
/// Line schema (version 1):
///
///   {"v":1,"seq":N,"ts_ms":WALLCLOCK_MS,"pid":PID,"type":"TYPE",...fields}
///
/// `v` is the schema version, `seq` a per-process monotonic sequence number
/// (gap-free within a session; readers order same-pid events by it), `ts_ms`
/// wall-clock milliseconds since the Unix epoch (readers order cross-process
/// events by it, coarsely), and `type` the transition name. Extra fields are
/// caller-supplied string key/values appended flat; the keys `v`, `seq`,
/// `ts_ms`, `pid`, and `type` are reserved.
///
/// Durability discipline: each line is appended with a single O_APPEND
/// write(2), so concurrent writers (multiple threads, or multiple processes
/// sharing one log file) never interleave bytes mid-line. When the file
/// would exceed the size cap the log rotates: the live file is renamed to
/// `PATH.1` (replacing any previous `.1`) and a fresh `PATH` is opened, so a
/// misbehaving fleet caps at twice the configured size.
///
/// Overhead discipline (same as FaultInject and Trace): when no log is
/// armed, emit() costs exactly one relaxed atomic load — no clock read, no
/// allocation, no syscall. Call sites that build argument strings guard with
/// enabled() so the strings are never constructed when the log is off.
/// Event logging only observes; it must never perturb pipeline determinism.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_SUPPORT_EVENTLOG_H
#define USPEC_SUPPORT_EVENTLOG_H

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace uspec {
namespace events {

/// Current JSONL schema version, stamped into every line as `"v"`.
constexpr unsigned SchemaVersion = 1;

namespace detail {
extern std::atomic<bool> EventsArmed;
void emitImpl(const char *Type,
              std::vector<std::pair<const char *, std::string>> Fields);
} // namespace detail

/// True while an event log is armed. The one-relaxed-load fast path.
inline bool enabled() {
  return detail::EventsArmed.load(std::memory_order_relaxed);
}

/// Arms the event log appending to \p Path (created if absent). Returns
/// false (with *Err set) if the path cannot be opened; the log is not armed
/// then. \p MaxBytes caps the live file before rotation to `PATH.1`
/// (0 keeps the current/default cap).
bool startToFile(const std::string &Path, uint64_t MaxBytes = 0,
                 std::string *Err = nullptr);

/// Disarms the log and closes the file. Safe to call when not armed.
void finish();

/// Arms from USPEC_EVENTS=events.jsonl, once per process. An optional
/// USPEC_EVENTS_MAX_BYTES overrides the rotation cap.
void loadFromEnv();

/// Appends one event line. \p Type must be a string literal (or otherwise
/// outlive the call); field keys likewise. No-op costing one relaxed load
/// when the log is disarmed — but guard field-string construction with
/// enabled() at the call site.
inline void emit(const char *Type,
                 std::vector<std::pair<const char *, std::string>> Fields = {}) {
  if (enabled())
    detail::emitImpl(Type, std::move(Fields));
}

} // namespace events
} // namespace uspec

#endif // USPEC_SUPPORT_EVENTLOG_H
