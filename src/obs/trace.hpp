#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// Lightweight span tracer (ISSUE 7 tentpole): per-thread ring buffers
/// of completed spans, drained to Chrome `chrome://tracing` / Perfetto
/// JSON.
///
/// Design:
///  - Tracing is OFF by default; Span construction then costs one
///    relaxed atomic load and nothing is recorded. `rdv_bench
///    --trace-out` (or set_trace_enabled) switches it on for the run.
///  - Each recording thread owns one fixed-capacity ring. A full ring
///    OVERWRITES its oldest event — recording never blocks and never
///    allocates (events are fixed-size, names are copied into an
///    inline buffer, so dynamically built names are safe).
///  - Spans are recorded ON COMPLETION as Chrome "X" (complete)
///    events: begin timestamp + duration, category, up to two
///    integer args. A span still open when the trace is drained (e.g.
///    a parked worker) simply isn't in the file.
///  - Rings are registered globally on first use and outlive their
///    threads; drain_trace() snapshots every ring (under its ring
///    mutex — uncontended in steady state) and merges events in
///    timestamp order.
///
/// Like metrics, traces are sidecar-only: nothing here touches stdout
/// or experiment output bytes.
namespace rdv::obs {

/// One completed span. Name/category are copied inline so kernels may
/// trace dynamically composed names without lifetime games.
struct TraceEvent {
  static constexpr std::size_t kNameCapacity = 47;
  char name[kNameCapacity + 1] = {0};
  /// Category pointer — trace call sites pass string literals
  /// ("pool", "sweep", "exp"); the viewer groups by it.
  const char* category = "";
  std::uint64_t start_micros = 0;
  std::uint64_t dur_micros = 0;
  /// Stable per-thread trace id (registration order, 0-based).
  std::uint32_t tid = 0;
  /// Up to two optional integer arguments (nullptr key = none).
  const char* arg_key = nullptr;
  std::uint64_t arg_value = 0;
  const char* arg2_key = nullptr;
  std::uint64_t arg2_value = 0;
};

/// Global on/off switch (reads are one relaxed atomic load).
[[nodiscard]] bool trace_enabled() noexcept;
void set_trace_enabled(bool enabled) noexcept;

/// Ring capacity (events per thread) for rings created AFTER the call;
/// existing rings keep theirs. Default 16384.
void set_trace_ring_capacity(std::size_t events) noexcept;

/// Records one completed span on the calling thread's ring (drops the
/// oldest event when full). No-op when tracing is disabled.
void record_span(std::string_view name, const char* category,
                 std::uint64_t start_micros, std::uint64_t dur_micros,
                 const char* arg_key = nullptr, std::uint64_t arg_value = 0,
                 const char* arg2_key = nullptr, std::uint64_t arg2_value = 0);

/// RAII span: stamps the start on construction, records on
/// destruction. When tracing is disabled at construction it records
/// nothing (even if tracing is enabled mid-span).
class Span {
 public:
  Span(const char* category, std::string_view name) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches an integer argument: the first key takes the first slot,
  /// any other key the second (last call wins per slot).
  void arg(const char* key, std::uint64_t value) noexcept {
    if (arg_key_ == nullptr || arg_key_ == key) {
      arg_key_ = key;
      arg_value_ = value;
    } else {
      arg2_key_ = key;
      arg2_value_ = value;
    }
  }

 private:
  bool active_;
  const char* category_;
  char name_[TraceEvent::kNameCapacity + 1];
  const char* arg_key_ = nullptr;
  std::uint64_t arg_value_ = 0;
  const char* arg2_key_ = nullptr;
  std::uint64_t arg2_value_ = 0;
  std::uint64_t start_micros_ = 0;
};

/// Cumulative count of events dropped to ring overwrites (all rings).
[[nodiscard]] std::uint64_t trace_dropped_count() noexcept;

/// Snapshots every ring, merged by (start, tid) — deterministic for a
/// fixed set of recorded events. Does not stop tracing or clear rings.
[[nodiscard]] std::vector<TraceEvent> drain_trace();

/// Clears every ring and the dropped tally (rings stay registered).
void clear_trace();

/// Renders events as a Chrome trace JSON object (traceEvents array of
/// "X" phase events; ts/dur in micros; pid 1; tid = ring id).
/// `extra_events` is an optional pre-rendered fragment (comma-joined
/// event objects, no surrounding brackets) spliced into the array —
/// the task profiler appends its flow events this way.
[[nodiscard]] std::string render_chrome_trace(
    const std::vector<TraceEvent>& events,
    const std::string& extra_events = {});

/// drain_trace + render + write to path. Returns false when the file
/// cannot be written (reported on stderr, never stdout).
bool write_chrome_trace(const std::string& path);

}  // namespace rdv::obs
