#include "obs/trace.hpp"

#include <algorithm>
#include <cstring>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/ring.hpp"

namespace rdv::obs {

namespace {

void copy_name(char (&dst)[TraceEvent::kNameCapacity + 1],
               std::string_view name) {
  const std::size_t n = std::min(name.size(), TraceEvent::kNameCapacity);
  std::memcpy(dst, name.data(), n);
  dst[n] = '\0';
}

}  // namespace

RingSet<TraceEvent>& span_rings() noexcept {
  static RingSet<TraceEvent> rings(16384);
  return rings;
}

bool trace_enabled() noexcept { return span_rings().enabled(); }

void set_trace_enabled(bool enabled) noexcept {
  span_rings().set_enabled(enabled);
}

void set_trace_ring_capacity(std::size_t events) noexcept {
  span_rings().set_capacity(events);
}

std::uint64_t trace_dropped_count() noexcept {
  return span_rings().dropped();
}

void record_span(std::string_view name, const char* category,
                 std::uint64_t start_micros, std::uint64_t dur_micros,
                 const char* arg_key, std::uint64_t arg_value,
                 const char* arg2_key, std::uint64_t arg2_value) {
  if (!trace_enabled()) return;
  TraceEvent event;
  copy_name(event.name, name);
  event.category = category;
  event.start_micros = start_micros;
  event.dur_micros = dur_micros;
  event.arg_key = arg_key;
  event.arg_value = arg_value;
  event.arg2_key = arg2_key;
  event.arg2_value = arg2_value;
  span_rings().record(event);
}

Span::Span(const char* category, std::string_view name) noexcept
    : active_(trace_enabled()), category_(category) {
  if (!active_) return;
  copy_name(name_, name);
  start_micros_ = now_micros();
}

Span::~Span() {
  if (!active_) return;
  record_span(name_, category_, start_micros_,
              now_micros() - start_micros_, arg_key_, arg_value_, arg2_key_,
              arg2_value_);
}

std::vector<TraceEvent> drain_trace() {
  std::vector<TraceEvent> events = span_rings().snapshot();
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_micros != b.start_micros
                                ? a.start_micros < b.start_micros
                                : a.tid < b.tid;
                   });
  return events;
}

void clear_trace() { span_rings().clear(); }

std::string render_chrome_trace(const std::vector<TraceEvent>& events,
                                const std::string& extra_events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_json_string(out, e.name);
    out += ",\"cat\":";
    append_json_string(out, e.category);
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"ts\":";
    out += std::to_string(e.start_micros);
    out += ",\"dur\":";
    out += std::to_string(e.dur_micros);
    if (e.arg_key != nullptr) {
      out += ",\"args\":{";
      append_json_string(out, e.arg_key);
      out += ':';
      out += std::to_string(e.arg_value);
      if (e.arg2_key != nullptr) {
        out += ',';
        append_json_string(out, e.arg2_key);
        out += ':';
        out += std::to_string(e.arg2_value);
      }
      out += '}';
    }
    out += '}';
  }
  if (!extra_events.empty()) {
    if (!first) out += ',';
    out += extra_events;
  }
  out += "]}";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  return write_json_file(path, render_chrome_trace(drain_trace()), "trace");
}

}  // namespace rdv::obs
