#include "trace.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>

namespace perfbench {

namespace {

struct ThreadBuffer {
  uint32_t thread = 0;
  std::mutex mu;  ///< guards spans/open against Summarize and Clear
  std::vector<Span> spans;
  std::vector<int32_t> open;
  uint64_t session = 0;
};

std::atomic<bool> g_enabled{false};
std::mutex g_registry_mu;

/// Buffers live until exit: a worker thread may end before the spans it
/// recorded are summarized.
std::vector<std::unique_ptr<ThreadBuffer>>& Registry() {
  static auto* registry = new std::vector<std::unique_ptr<ThreadBuffer>>;
  return *registry;
}

ThreadBuffer* Local() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    Registry().push_back(std::make_unique<ThreadBuffer>());
    buffer = Registry().back().get();
    buffer->thread = static_cast<uint32_t>(Registry().size() - 1);
  }
  return buffer;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::SetSession(uint64_t session) {
  if (!enabled()) return;
  ThreadBuffer* b = Local();
  std::lock_guard<std::mutex> lock(b->mu);
  b->session = session;
}

int32_t Tracer::Begin(const char* name) {
  if (!enabled()) return -1;
  ThreadBuffer* b = Local();
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(b->mu);
  Span s;
  s.name = name;
  s.start_ns = now;
  s.parent = b->open.empty() ? -1 : b->open.back();
  s.session = b->session;
  const auto index = static_cast<int32_t>(b->spans.size());
  b->spans.push_back(s);
  b->open.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  if (index < 0) return;
  const int64_t now = NowNs();
  ThreadBuffer* b = Local();
  std::lock_guard<std::mutex> lock(b->mu);
  if (static_cast<size_t>(index) >= b->spans.size()) return;  // cleared
  b->spans[static_cast<size_t>(index)].end_ns = now;
  for (size_t i = b->open.size(); i-- > 0;) {
    if (b->open[i] == index) {
      b->open.erase(b->open.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
}

void Tracer::RecordDetached(const char* name, int64_t start_ns, int64_t end_ns,
                            uint64_t instance) {
  if (!enabled()) return;
  ThreadBuffer* b = Local();
  std::lock_guard<std::mutex> lock(b->mu);
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.instance = instance;
  b->spans.push_back(s);
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> registry_lock(g_registry_mu);
  for (auto& b : Registry()) {
    std::lock_guard<std::mutex> lock(b->mu);
    b->spans.clear();
    b->open.clear();
  }
}

std::map<std::string, Tracer::NameStats> Tracer::Summarize() {
  std::map<std::string, NameStats> out;
  std::lock_guard<std::mutex> registry_lock(g_registry_mu);
  for (auto& b : Registry()) {
    std::lock_guard<std::mutex> lock(b->mu);
    // Children of one thread run strictly nested inside their parent and
    // one after another, so their durations add up to the covered time.
    std::vector<int64_t> covered(b->spans.size(), 0);
    for (const Span& s : b->spans) {
      if (s.end_ns >= 0 && s.parent >= 0) {
        covered[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      if (s.end_ns < 0) continue;
      NameStats& stats = out[s.name];
      const int64_t duration = s.end_ns - s.start_ns;
      stats.duration_ns.push_back(static_cast<double>(duration));
      stats.self_ns.push_back(static_cast<double>(duration - covered[i]));
    }
  }
  return out;
}

int64_t Tracer::SpanCount() {
  int64_t n = 0;
  std::lock_guard<std::mutex> registry_lock(g_registry_mu);
  for (auto& b : Registry()) {
    std::lock_guard<std::mutex> lock(b->mu);
    n += static_cast<int64_t>(b->spans.size());
  }
  return n;
}

bool Tracer::WriteJsonl(const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  std::lock_guard<std::mutex> registry_lock(g_registry_mu);
  for (auto& b : Registry()) {
    std::lock_guard<std::mutex> lock(b->mu);
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      f << "{\"thread\":" << b->thread << ",\"id\":" << i << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"session\":" << s.session << ",\"instance\":" << s.instance
        << "}\n";
    }
  }
  return static_cast<bool>(f);
}

}  // namespace perfbench
