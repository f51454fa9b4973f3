// In-memory span tracer for the traced benchmark run.
//
// Spans are recorded only at the benchmark's own seams (client transport
// decorator, decorated fleet backend connections, the LXP wrapper factory
// decorator, direct compile calls, the in-process LazyMediator replay). Each
// thread appends to its own buffer; a span opened while another span of the
// same thread is open records that span as its parent. Spans recorded on a
// thread that does not own the causing request (wrapper exchanges on server
// worker threads) are recorded detached: no parent, tagged with the wrapper
// instance instead.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock nanoseconds.
int64_t NowNs();

struct Span {
  const char* name = "";  ///< static storage
  int64_t start_ns = 0;
  int64_t end_ns = -1;    ///< -1 while open
  int32_t parent = -1;    ///< index in the same thread's buffer
  uint64_t session = 0;   ///< 0: not tied to a client session
  uint64_t instance = 0;  ///< wrapper instance for detached spans
};

class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();

  /// Session id attached to spans the calling thread opens from now on.
  static void SetSession(uint64_t session);

  /// Opens a span on the calling thread; -1 when tracing is off.
  static int32_t Begin(const char* name);
  static void End(int32_t index);
  /// Records a finished span with no parent.
  static void RecordDetached(const char* name, int64_t start_ns,
                             int64_t end_ns, uint64_t instance);

  /// Drops every recorded span (thread buffers stay registered).
  static void Clear();

  /// Per span name: durations and self times (duration minus the time its
  /// child spans cover), in ns, over all closed spans.
  struct NameStats {
    std::vector<double> duration_ns;
    std::vector<double> self_ns;
  };
  static std::map<std::string, NameStats> Summarize();
  static int64_t SpanCount();

  /// Writes every span as one JSON object per line.
  static bool WriteJsonl(const std::string& path);
};

/// RAII span.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : index_(Tracer::Begin(name)) {}
  ~ScopedSpan() { Tracer::End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
