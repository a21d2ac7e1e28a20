#include "obs/trace.h"

#include <cstdio>

#include "obs/json.h"

namespace hybridtier {
namespace {

/** Emits one metadata record (process_name / thread_name). */
void AppendMetadata(std::ostream& out, bool* first, const char* kind,
                    uint32_t pid, uint32_t tid, const std::string& name) {
  if (!*first) out << ",\n";
  *first = false;
  out << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"name\":\"" << kind << "\",\"args\":{\"name\":\"";
  AppendJsonEscaped(out, name);
  out << "\"}}";
}

/** Formats virtual ns as the viewer's microsecond timestamp field. */
void AppendMicros(std::ostream& out, TimeNs ns) {
  // Split instead of dividing doubles so 64-bit timestamps stay exact.
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  out << buf;
}

}  // namespace

TraceEmitter::TraceEmitter(uint32_t pid, std::string process_name)
    : pid_(pid), process_name_(std::move(process_name)) {}

TraceEmitter::TrackId TraceEmitter::Track(const std::string& name) {
  for (size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i] == name) return static_cast<TrackId>(i + 1);
  }
  tracks_.push_back(name);
  return static_cast<TrackId>(tracks_.size());
}

const char* TraceEmitter::Intern(const std::string& text) {
  for (const std::string& existing : interned_) {
    if (existing == text) return existing.c_str();
  }
  interned_.push_back(text);
  return interned_.back().c_str();
}

void TraceEmitter::Append(char phase, TrackId track, const char* name,
                          TimeNs ts_ns, TimeNs dur_ns,
                          std::initializer_list<Arg> args) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  Event event;
  event.name = name;
  event.ts_ns = ts_ns;
  event.dur_ns = dur_ns;
  event.track = track;
  event.phase = phase;
  event.arg_count = 0;
  for (const Arg& arg : args) {
    if (event.arg_count == kMaxArgs) break;
    event.args[event.arg_count++] = arg;
  }
  events_.push_back(event);
}

void TraceEmitter::AppendEventsJson(std::ostream& out, bool* first) const {
  if (!process_name_.empty()) {
    AppendMetadata(out, first, "process_name", pid_, 0, process_name_);
  }
  for (size_t i = 0; i < tracks_.size(); ++i) {
    AppendMetadata(out, first, "thread_name", pid_,
                   static_cast<uint32_t>(i + 1), tracks_[i]);
  }
  for (const Event& event : events_) {
    if (!*first) out << ",\n";
    *first = false;
    out << "{\"ph\":\"" << event.phase << "\",\"pid\":" << pid_
        << ",\"tid\":" << event.track << ",\"ts\":";
    AppendMicros(out, event.ts_ns);
    if (event.phase == 'X') {
      out << ",\"dur\":";
      AppendMicros(out, event.dur_ns);
    } else if (event.phase == 'I') {
      out << ",\"s\":\"t\"";
    }
    out << ",\"name\":\"";
    AppendJsonEscaped(out, event.name);
    out << "\"";
    if (event.arg_count > 0) {
      out << ",\"args\":{";
      for (uint8_t a = 0; a < event.arg_count; ++a) {
        if (a > 0) out << ",";
        out << "\"";
        AppendJsonEscaped(out, event.args[a].key);
        out << "\":";
        AppendJsonNumber(out, event.args[a].value);
      }
      out << "}";
    }
    out << "}";
  }
}

void TraceEmitter::WriteJson(std::ostream& out) const {
  const TraceEmitter* self = this;
  WriteTraceJson(out, std::span<const TraceEmitter* const>(&self, 1));
}

void WriteTraceJson(std::ostream& out,
                    std::span<const TraceEmitter* const> emitters) {
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const TraceEmitter* emitter : emitters) {
    if (emitter != nullptr) emitter->AppendEventsJson(out, &first);
  }
  out << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

}  // namespace hybridtier
