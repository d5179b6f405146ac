// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps each call it makes into a library layer in a span:
// name, start, end, parent span and operation id. Spans stay in memory
// until the run ends; the per-layer ledger is computed from them and they
// can be written out as a tab-separated file. Recording is thread-safe, so
// replicate spans from ensemble worker threads land under their batch span.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  ///< static string: a layer entry point
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the span list; -1 for a root
  std::uint64_t op = 0;      ///< operation the span belongs to
};

/// Nanoseconds since the recorder's epoch (process-wide, monotonic).
[[nodiscard]] std::int64_t now_ns();

class Tracer {
 public:
  /// Records a finished span and returns its index.
  std::int64_t record(const char* name, std::uint64_t op, std::int64_t parent,
                      std::int64_t start_ns, std::int64_t end_ns);

  /// Opens a span ending at `close`; the end time is filled in then.
  std::int64_t open(const char* name, std::uint64_t op,
                    std::int64_t parent = -1);
  void close(std::int64_t index);

  /// Snapshot of every span recorded so far, in recording order.
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals. Indexed like `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

/// Writes one line per span (op, index, parent, name, start, end, self) as
/// tab-separated text. Throws std::runtime_error when the file cannot be
/// written.
void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::int64_t>& self_ns);

/// Runs `fn` inside a span and returns its result.
template <typename Fn>
auto traced(Tracer& tracer, const char* name, std::uint64_t op,
            std::int64_t parent, Fn&& fn) {
  const std::int64_t start = now_ns();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    tracer.record(name, op, parent, start, now_ns());
  } else {
    auto result = fn();
    tracer.record(name, op, parent, start, now_ns());
    return result;
  }
}

}  // namespace perfbench
