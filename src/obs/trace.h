#ifndef HYBRIDTIER_OBS_TRACE_H_
#define HYBRIDTIER_OBS_TRACE_H_

/**
 * @file
 * Chrome/Perfetto trace-event emission keyed to simulated time.
 *
 * A `TraceEmitter` buffers timeline events — instants and duration
 * spans — and serializes them as Trace Event Format JSON, the format
 * `chrome://tracing` and https://ui.perfetto.dev open directly. One
 * emitter is one *process* in the viewer (a simulation cell); its
 * *tracks* are threads (one per tenant or subsystem), so a
 * multi-tenant run reads as a process with one swimlane per tenant.
 *
 * Two properties make this usable from the simulator's hot paths:
 *
 *  - **Deterministic**: timestamps are virtual nanoseconds, event
 *    order is emission order, and serialization is plain snprintf —
 *    so a run's trace bytes are a pure function of the simulated
 *    events. The determinism suite gates trace bytes across runs,
 *    live vs replay generation, and `--jobs` values the same way it
 *    gates results. (`SweepRunner`'s sweep-level traces are the
 *    deliberate exception: they record *wall-clock* spans and are
 *    documented as measurements.)
 *
 *  - **Allocation-free steady state**: event names and argument keys
 *    are `const char*` (string literals or strings interned up front),
 *    arguments are fixed-capacity numeric pairs, and the event buffer
 *    is `Reserve`d once — so emission after setup is an inlined
 *    bounds-checked append, and a disabled emitter is just a null
 *    pointer at the call site.
 *
 * Events past `max_events` are dropped (counted, deterministic), so a
 * promotion-storm run cannot OOM the host through its own telemetry.
 */

#include <cstdint>
#include <deque>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/units.h"

namespace hybridtier {

/** Buffers one cell's trace events; serializes Trace Event JSON. */
class TraceEmitter {
 public:
  /** Identifies a registered track (a viewer thread/swimlane). */
  using TrackId = uint32_t;

  /** One numeric event argument. `key` must outlive the emitter
   *  (string literal, or a pointer returned by Intern). */
  struct Arg {
    const char* key;
    double value;
  };

  /** Max numeric args one event can carry. */
  static constexpr size_t kMaxArgs = 3;

  /**
   * @param pid          process id in the viewer (the cell index).
   * @param process_name viewer label of this process ("" = none).
   */
  explicit TraceEmitter(uint32_t pid = 1, std::string process_name = "");

  /**
   * Registers (or looks up) the named track and returns its id.
   * Registration order fixes the viewer's `tid` numbering, so call
   * sites must register tracks in a deterministic order.
   */
  TrackId Track(const std::string& name);

  /** Grows the event buffer once, to keep emission allocation-free. */
  void Reserve(size_t events) { events_.reserve(events); }

  /**
   * Copies `text` into emitter-owned storage and returns a pointer
   * stable for the emitter's lifetime — for event names that are not
   * string literals (e.g. per-tenant labels built at setup time).
   */
  const char* Intern(const std::string& text);

  /** Emits an instantaneous event at virtual time `ts_ns`. */
  void Instant(TrackId track, const char* name, TimeNs ts_ns,
               std::initializer_list<Arg> args = {}) {
    Append('I', track, name, ts_ns, 0, args);
  }

  /** Emits a duration span covering [start_ns, end_ns]. */
  void Span(TrackId track, const char* name, TimeNs start_ns,
            TimeNs end_ns, std::initializer_list<Arg> args = {}) {
    Append('X', track, name, start_ns,
           end_ns >= start_ns ? end_ns - start_ns : 0, args);
  }

  /** Events currently buffered (excludes dropped ones). */
  size_t event_count() const { return events_.size(); }

  /** Events dropped at the max_events cap. */
  uint64_t dropped_events() const { return dropped_; }

  /** Caps the event buffer; further events are dropped and counted. */
  void set_max_events(size_t cap) { max_events_ = cap; }

  /** Viewer process id of this emitter. */
  uint32_t pid() const { return pid_; }

  /** Viewer process name of this emitter. */
  const std::string& process_name() const { return process_name_; }

  /**
   * Writes a complete standalone trace file:
   * `{"traceEvents": [...], "displayTimeUnit": "ns"}`.
   */
  void WriteJson(std::ostream& out) const;

  /**
   * Appends this emitter's events (including its process/track
   * metadata records) to an open `traceEvents` array. `*first` tracks
   * whether a comma is owed; shared across emitters when merging.
   */
  void AppendEventsJson(std::ostream& out, bool* first) const;

 private:
  struct Event {
    const char* name;
    TimeNs ts_ns;
    TimeNs dur_ns;
    TrackId track;
    char phase;  //!< 'X' duration span, 'I' instant.
    uint8_t arg_count;
    Arg args[kMaxArgs];
  };

  void Append(char phase, TrackId track, const char* name, TimeNs ts_ns,
              TimeNs dur_ns, std::initializer_list<Arg> args);

  uint32_t pid_;
  std::string process_name_;
  std::vector<std::string> tracks_;   //!< tid = index + 1.
  std::vector<Event> events_;
  std::deque<std::string> interned_;  //!< Stable storage for Intern.
  size_t max_events_ = 1u << 20;
  uint64_t dropped_ = 0;
};

/**
 * Writes one standalone trace file merging several emitters — one
 * viewer process per emitter, in the given order (callers pass cells
 * in flat sweep order so merged bytes are jobs-invariant).
 */
void WriteTraceJson(std::ostream& out,
                    std::span<const TraceEmitter* const> emitters);

}  // namespace hybridtier

#endif  // HYBRIDTIER_OBS_TRACE_H_
