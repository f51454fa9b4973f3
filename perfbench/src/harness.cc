#include "harness.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

enum Stream : uint64_t {
  kArrivals = 1,
  kWrites = 2,
  kShape = 3,
};

constexpr uint64_t kCapacityBase = uint64_t{1} << 40;
constexpr uint64_t kWarmupBase = uint64_t{1} << 41;
constexpr char kOutDir[] = ".bench_out";

/// An untraced run sets up at least kSetups times and for at least
/// kSetupSeconds in all; setup_s is the median.
constexpr int kSetups = 7;
constexpr double kSetupSeconds = 2.0;
/// Closed-loop warm-up before anything is measured.
constexpr double kWarmupS = 1.0;
/// Share of a traced run's window given to its two open-loop halves; the
/// rest measures capacity.
constexpr double kOpenShare = 0.7;
/// Sessions per slice: a p99 needs 1000 samples to leave ten beyond it,
/// and the slack covers the spread of a slice's share of random arrivals.
constexpr double kSessionsPerSlice = 1100;

int SlicesFor(double sessions) {
  return std::max(1, static_cast<int>(sessions / kSessionsPerSlice));
}

// ---------------------------------------------------------------- helpers

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ----------------------------------------------------------------- phases

struct Event {
  int64_t offset_ns;
  bool write;
  uint64_t index;
};

/// `rate` sessions/s and `write_rate` writes/s over `seconds`: fixed counts
/// at seeded uniform times (a Poisson process conditioned on its count).
std::vector<Event> MakeSchedule(uint64_t seed, double seconds, double rate,
                                double write_rate) {
  std::vector<Event> events;
  const double window_ns = seconds * 1e9;
  Rng arrivals = Rng::Derive(seed, kArrivals);
  const auto sessions = static_cast<uint64_t>(std::llround(rate * seconds));
  for (uint64_t i = 0; i < sessions; ++i) {
    events.push_back(
        {static_cast<int64_t>(arrivals.Unit() * window_ns), false, 0});
  }
  Rng writes = Rng::Derive(seed, kWrites);
  const auto n_writes =
      static_cast<uint64_t>(std::llround(write_rate * seconds));
  for (uint64_t i = 0; i < n_writes; ++i) {
    events.push_back(
        {static_cast<int64_t>(writes.Unit() * window_ns), true, 0});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) {
              return a.offset_ns < b.offset_ns;
            });
  uint64_t next_session = 0;
  uint64_t next_write = 0;
  for (Event& e : events) e.index = e.write ? next_write++ : next_session++;
  return events;
}

/// Samples of one time slice of a phase. Statistics are taken per slice
/// and the median over slices is reported, so a short stall of the shared
/// host moves one slice, not the result.
struct Slice {
  std::vector<double> session_ns;
  std::vector<double> first_ns;
  std::vector<double> late_ns;
  std::vector<double> cmd_ns;
  int64_t completed = 0;  ///< closed loop: sessions completed in the slice
};

struct PhaseStats {
  std::vector<Slice> slices;
  double slice_s = 0;
  int64_t attempted = 0;
  int64_t completed = 0;  ///< sessions that returned correct answers
  int64_t failed = 0;
  int64_t writes = 0;
  int64_t frames = 0;
  int64_t resp_bytes = 0;
  double cpu_s = 0;

  void Merge(PhaseStats&& o) {
    auto append = [](std::vector<double>* a, std::vector<double>* b) {
      a->insert(a->end(), b->begin(), b->end());
    };
    slices.resize(std::max(slices.size(), o.slices.size()));
    for (size_t i = 0; i < o.slices.size(); ++i) {
      Slice& a = slices[i];
      Slice& b = o.slices[i];
      append(&a.session_ns, &b.session_ns);
      append(&a.first_ns, &b.first_ns);
      append(&a.late_ns, &b.late_ns);
      append(&a.cmd_ns, &b.cmd_ns);
      a.completed += b.completed;
    }
    attempted += o.attempted;
    completed += o.completed;
    failed += o.failed;
    writes += o.writes;
    frames += o.frames;
    resp_bytes += o.resp_bytes;
  }

  /// Median over slices of the p-th percentile of `field`.
  double SlicedPercentile(std::vector<double> Slice::*field, double p) const {
    std::vector<double> per_slice;
    for (const Slice& s : slices) {
      if (!(s.*field).empty()) per_slice.push_back(Percentile(s.*field, p));
    }
    return Median(per_slice);
  }

  /// Median over slices of completed sessions per second.
  double SlicedRate() const {
    std::vector<double> per_slice;
    for (const Slice& s : slices) {
      per_slice.push_back(static_cast<double>(s.completed) / slice_s);
    }
    return Median(per_slice);
  }
};

class Runner {
 public:
  Runner(Workload* workload, uint64_t seed)
      : workload_(workload), seed_(seed), limit_ns_(kLatencyLimitMs * 1e6) {
    for (int i = 0; i < kClientThreads; ++i) {
      clients_.push_back(workload->NewClient());
    }
  }

  /// Open loop over `seconds`: each event starts on its due time, or as
  /// soon as a client thread is free; latency counts from the due time.
  /// Sessions fall into `slices` equal slices by due time.
  PhaseStats OpenLoop(const std::vector<Event>& events, double seconds,
                      int slices) {
    std::atomic<size_t> next{0};
    const int64_t t0 = NowNs() + 2'000'000;
    const double slice_ns = seconds * 1e9 / slices;
    return Run(slices, seconds / slices, [&](ClientState* client,
                                             PhaseStats* out) {
      for (size_t i = next.fetch_add(1); i < events.size();
           i = next.fetch_add(1)) {
        const Event& e = events[i];
        const int64_t due = t0 + e.offset_ns;
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        const int64_t start = NowNs();
        if (e.write) {
          workload_->RunWrite(e.index);
          ++out->writes;
          continue;
        }
        const auto k = std::min<size_t>(
            static_cast<size_t>(static_cast<double>(e.offset_ns) / slice_ns),
            out->slices.size() - 1);
        Slice& slice = out->slices[k];
        slice.late_ns.push_back(static_cast<double>(start - due));
        RunOne(client, e.index, due, /*apply_limit=*/true, &slice, out);
      }
    });
  }

  /// Closed loop: every client thread runs sessions back to back for
  /// `seconds`, interleaving writes at `write_ratio` per session. Sessions
  /// fall into one-second slices by completion time; those finishing after
  /// the end are checked but not counted as completed.
  PhaseStats ClosedLoop(double seconds, uint64_t base, double write_ratio) {
    const int slices = std::max(1, static_cast<int>(seconds));
    std::atomic<uint64_t> next{0};
    std::atomic<uint64_t> writes_done{0};
    const int64_t begin = NowNs();
    const int64_t end = begin + static_cast<int64_t>(seconds * 1e9);
    const double slice_ns = seconds * 1e9 / slices;
    return Run(slices, seconds / slices, [&](ClientState* client,
                                             PhaseStats* out) {
      while (NowNs() < end) {
        const uint64_t j = next.fetch_add(1);
        const auto owed = static_cast<uint64_t>(
            std::floor(static_cast<double>(j + 1) * write_ratio));
        for (uint64_t w = writes_done.load(); w < owed;
             w = writes_done.load()) {
          if (writes_done.compare_exchange_weak(w, w + 1)) {
            workload_->RunWrite(base + w);
            ++out->writes;
          }
        }
        Slice scratch;
        const bool ok = RunOne(client, base + j, NowNs(),
                               /*apply_limit=*/false, &scratch, out);
        const int64_t done = NowNs();
        if (ok && done < end) {
          const auto k = std::min<size_t>(
              static_cast<size_t>(static_cast<double>(done - begin) /
                                  slice_ns),
              out->slices.size() - 1);
          ++out->slices[k].completed;
        }
      }
    });
  }

 private:
  template <typename Body>
  PhaseStats Run(int slices, double slice_s, Body body) {
    for (auto& c : clients_) {
      c->tally.cmd_ns.clear();
      c->tally.frames = 0;
      c->tally.resp_bytes = 0;
    }
    std::vector<PhaseStats> per_thread(clients_.size());
    for (PhaseStats& p : per_thread) {
      p.slices.resize(static_cast<size_t>(slices));
    }
    const double cpu0 = CpuSeconds();
    std::vector<std::thread> threads;
    for (size_t i = 0; i < clients_.size(); ++i) {
      threads.emplace_back(
          [&, i] { body(clients_[i].get(), &per_thread[i]); });
    }
    for (auto& t : threads) t.join();
    PhaseStats total;
    total.slice_s = slice_s;
    total.cpu_s = CpuSeconds() - cpu0;
    for (size_t i = 0; i < clients_.size(); ++i) {
      ClientTally& tally = clients_[i]->tally;
      per_thread[i].frames = tally.frames;
      per_thread[i].resp_bytes = tally.resp_bytes;
      total.Merge(std::move(per_thread[i]));
    }
    return total;
  }

  /// Runs one session. Only a session that returned correct answers gives
  /// latency samples and counts as completed (the return value); one that
  /// did but missed the latency limit also counts as failed.
  bool RunOne(ClientState* client, uint64_t index, int64_t due,
              bool apply_limit, Slice* slice, PhaseStats* out) {
    Tracer::SetSession(index + 1);
    const SessionResult r =
        workload_->RunSession(client, index, SizeAxis(seed_, index));
    const int64_t done = NowNs();
    Tracer::SetSession(0);
    ++out->attempted;
    std::vector<double>& cmds = client->tally.cmd_ns;
    const double session_ns = static_cast<double>(done - due);
    if (r.ok) {
      ++out->completed;
      slice->cmd_ns.insert(slice->cmd_ns.end(), cmds.begin(), cmds.end());
      slice->session_ns.push_back(session_ns);
      if (r.first_answer_ns > 0) {
        slice->first_ns.push_back(
            static_cast<double>(r.first_answer_ns - due));
      }
    }
    cmds.clear();
    const bool late = r.ok && apply_limit && session_ns > limit_ns_;
    if (!r.ok || late) {
      ++out->failed;
      static std::atomic<int> reported{0};
      if (reported.fetch_add(1) < 5) {
        std::cerr << "session " << index << " failed: "
                  << (late ? "exceeded the latency limit" : r.problem)
                  << "\n";
      }
    }
    return r.ok;
  }

  Workload* workload_;
  uint64_t seed_;
  double limit_ns_;
  std::vector<std::unique_ptr<ClientState>> clients_;
};

// ------------------------------------------------------------- host facts

/// Effective parallelism: 4 threads spinning a fixed loop against one.
double SpinProbe(int threads) {
  auto spin = [] {
    volatile uint64_t x = 0;
    for (int i = 0; i < 30'000'000; ++i) x = x + static_cast<uint64_t>(i);
  };
  const int64_t t0 = NowNs();
  spin();
  const double one = static_cast<double>(NowNs() - t0);
  const int64_t t1 = NowNs();
  std::vector<std::thread> ts;
  for (int i = 0; i < threads; ++i) ts.emplace_back(spin);
  for (auto& t : ts) t.join();
  const double many = static_cast<double>(NowNs() - t1);
  return static_cast<double>(threads) * one / many;
}

std::string HostFacts() {
  const unsigned nproc = std::thread::hardware_concurrency();
  std::ostringstream o;
  o << "{\"host\":{\"nproc\":" << nproc
    << ",\"effective_parallelism\":" << FormatNumber(SpinProbe(4))
    << ",\"compiler\":" << JsonString(std::string("g++ ") + __VERSION__)
    << ",\"cmake_build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
    << ",\"client_threads\":" << kClientThreads << "}}";
  return o.str();
}

// ---------------------------------------------------------------- metrics

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},
      {"src_exchanges_per_session", "count"},
      {"src_kb_per_session", "KiB"},
      {"peak_rss_mb", "MiB"},
  };
  return m;
}

const char* const kClientOps[] = {"open",  "root",     "down",
                                  "right", "fetch",    "nth_child",
                                  "fetch_subtree", "close"};

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = [] {
    std::vector<std::pair<std::string, std::string>> v;
    v.push_back({"trace.sessions", "count"});
    v.push_back({"trace.overhead_frac", "frac"});
    v.push_back({"trace.session_ms_p50_traced", "ms"});
    v.push_back({"trace.spans", "count"});
    // Session-level metrics measured end to end (from the traced run's
    // untraced half, or its capacity phase), reported here because they did
    // not repeat within a 0.25 bound across runs on a shared host whose
    // single-thread speed swings by up to 1.8x from second to second.
    v.push_back({"session_ms_p50", "ms"});
    v.push_back({"first_answer_ms_p50", "ms"});
    v.push_back({"cmd_us_p50", "us"});
    v.push_back({"cpu_ms_per_session", "ms"});
    v.push_back({"capacity_sessions_per_s", "1/s"});
    v.push_back({"session_ms_p99", "ms"});
    v.push_back({"cmd_us_p99", "us"});
    v.push_back({"first_answer_ms_p99", "ms"});
    v.push_back({"late_ms_p99", "ms"});
    // Zero on a clean run, so it cannot carry a relative bound; the result
    // line's `failed` count carries it end to end.
    v.push_back({"failed_frac", "frac"});
    v.push_back({"failed_sessions", "count"});
    v.push_back({"attempted_sessions", "count"});
    for (const char* op : kClientOps) {
      v.push_back({std::string("client.rtt_us_p50.") + op, "us"});
    }
    for (const char* name :
         {"client.materialize_self_ms"}) {
      v.push_back({name, "ms"});
    }
    v.push_back({"client.frames", "count"});
    v.push_back({"client.frames_per_session", "count"});
    v.push_back({"client.resp_kb", "KiB"});
    v.push_back({"client.resp_kb_per_session", "KiB"});
    v.push_back({"fleet.self_us_p50", "us"});
    for (const char* name :
         {"fleet.commands", "fleet.opens_routed", "fleet.open_spills",
          "fleet.sheds", "fleet.path_replays", "fleet.backends_used"}) {
      v.push_back({name, "count"});
    }
    v.push_back({"tcp.backend_rtt_us_p50", "us"});
    v.push_back({"tcp.backend_rtt_us_p99", "us"});
    v.push_back({"tcp.frames", "count"});
    v.push_back({"tcp.bytes", "B"});
    v.push_back({"tcp.bytes_per_frame", "B"});
    v.push_back({"tcp.partial_reads", "count"});
    v.push_back({"tcp.partial_reads_per_frame", "frac"});
    v.push_back({"tcp.backpressure_stalls", "count"});
    v.push_back({"tcp.read_pauses", "count"});
    v.push_back({"service.latency_us_p50", "us"});
    v.push_back({"service.latency_us_p99", "us"});
    v.push_back({"service.requests", "count"});
    v.push_back({"service.requests_rejected", "count"});
    v.push_back({"service.requests_expired", "count"});
    v.push_back({"service.wire_kb", "KiB"});
    v.push_back({"service.wire_kb_per_session", "KiB"});
    v.push_back({"mediator.compile_us_p50", "us"});
    v.push_back({"mediator.compiles", "count"});
    v.push_back({"mediator.rewrites", "count"});
    v.push_back({"mediator.rewrites_per_compile", "count"});
    v.push_back({"mediator.plan_cache_hits", "count"});
    v.push_back({"mediator.plan_cache_lookups", "count"});
    v.push_back({"mediator.plan_cache_hit_ratio", "frac"});
    v.push_back({"mediator.view_hits", "count"});
    v.push_back({"mediator.view_lookups", "count"});
    v.push_back({"mediator.view_hit_ratio", "frac"});
    v.push_back({"mediator.view_publishes", "count"});
    v.push_back({"mediator.view_invalidations", "count"});
    v.push_back({"mediator.view_rejects", "count"});
    v.push_back({"algebra.src_navs", "count"});
    v.push_back({"algebra.client_cmds", "count"});
    v.push_back({"algebra.src_navs_per_client_cmd", "count"});
    v.push_back({"algebra.first_answer_src_navs", "count"});
    v.push_back({"algebra.replayed_sessions", "count"});
    v.push_back({"algebra.cmd_us_p50", "us"});
    v.push_back({"buffer.cache_hits", "count"});
    v.push_back({"buffer.cache_lookups", "count"});
    v.push_back({"buffer.cache_hit_ratio", "frac"});
    v.push_back({"buffer.cache_evictions", "count"});
    v.push_back({"buffer.cache_peak_kb", "KiB"});
    v.push_back({"buffer.cache_budget_kb", "KiB"});
    v.push_back({"buffer.readahead_hits", "count"});
    v.push_back({"buffer.readahead_issued", "count"});
    v.push_back({"buffer.readahead_hit_ratio", "frac"});
    v.push_back({"buffer.readahead_fallbacks", "count"});
    v.push_back({"buffer.pushed_applied", "count"});
    v.push_back({"buffer.pushed_dropped", "count"});
    v.push_back({"buffer.prefetch_jobs", "count"});
    v.push_back({"buffer.prefetch_exchanges", "count"});
    v.push_back({"buffer.prefetch_fills", "count"});
    v.push_back({"buffer.prefetch_useful_ratio", "frac"});
    v.push_back({"session.fills", "count"});
    v.push_back({"session.view_served", "count"});
    v.push_back({"session.harvested", "count"});
    v.push_back({"wrappers.exchange_us_p50", "us"});
    v.push_back({"wrappers.exchanges", "count"});
    v.push_back({"wrappers.background_exchanges", "count"});
    v.push_back({"wrappers.holes", "count"});
    v.push_back({"wrappers.holes_per_exchange", "count"});
    v.push_back({"wrappers.wait_ms", "ms"});
    v.push_back({"wrappers.wait_ms_per_session", "ms"});
    v.push_back({"rdb.rows_scanned", "count"});
    v.push_back({"rdb.rows_scanned_per_session", "count"});
    return v;
  }();
  return m;
}

double Get(const std::map<std::string, double>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

/// after - before for counters; gauges read from `after`.
CounterSnapshot Delta(const CounterSnapshot& before,
                      const CounterSnapshot& after) {
  CounterSnapshot d;
  for (const auto& [k, v] : after.counters) {
    d.counters[k] = v - Get(before.counters, k);
  }
  d.gauges = after.gauges;
  return d;
}

void AddSourceCounters(SourceTally& s, CounterSnapshot* out) {
  out->counters["wrappers.exchanges"] = static_cast<double>(s.exchanges);
  out->counters["wrappers.background_exchanges"] =
      static_cast<double>(s.background_exchanges);
  out->counters["wrappers.bytes"] = static_cast<double>(s.bytes);
  out->counters["wrappers.holes"] = static_cast<double>(s.holes);
  out->counters["wrappers.wait_ns"] = static_cast<double>(s.demand_wait_ns);
  out->counters["rdb.rows_scanned"] = static_cast<double>(s.rows_scanned);
}

CounterSnapshot FullSnapshot(Workload* w) {
  CounterSnapshot s = w->Snapshot();
  AddSourceCounters(w->sources(), &s);
  return s;
}

std::map<std::string, double> LayerMetrics(
    const CounterSnapshot& d, const PhaseStats& traced,
    const PhaseStats& untraced, const PhaseStats& capacity,
    const std::map<std::string, Tracer::NameStats>& spans) {
  std::map<std::string, double> m;
  const double sessions = static_cast<double>(traced.completed);
  m["capacity_sessions_per_s"] = capacity.SlicedRate();
  auto span_p = [&](const std::string& name, bool self, double p) {
    auto it = spans.find(name);
    if (it == spans.end()) return 0.0;
    return Percentile(self ? it->second.self_ns : it->second.duration_ns, p);
  };
  const auto& c = d.counters;
  const auto& g = d.gauges;

  m["trace.sessions"] = sessions;
  const double traced_p50 =
      traced.SlicedPercentile(&Slice::session_ns, 0.5) / 1e6;
  const double untraced_p50 =
      untraced.SlicedPercentile(&Slice::session_ns, 0.5) / 1e6;
  m["trace.session_ms_p50_traced"] = traced_p50;
  m["trace.overhead_frac"] =
      untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1 : 0;
  m["trace.spans"] = static_cast<double>(Tracer::SpanCount());
  m["failed_sessions"] = static_cast<double>(traced.failed);
  m["attempted_sessions"] = static_cast<double>(traced.attempted);
  m["failed_frac"] = Ratio(m["failed_sessions"], m["attempted_sessions"]);
  // Session-level figures come from the untraced half of the schedule.
  m["session_ms_p50"] = untraced_p50;
  m["first_answer_ms_p50"] =
      untraced.SlicedPercentile(&Slice::first_ns, 0.5) / 1e6;
  m["cmd_us_p50"] = untraced.SlicedPercentile(&Slice::cmd_ns, 0.5) / 1e3;
  m["cpu_ms_per_session"] =
      Ratio(untraced.cpu_s * 1e3, static_cast<double>(untraced.completed));
  m["session_ms_p99"] =
      untraced.SlicedPercentile(&Slice::session_ns, 0.99) / 1e6;
  m["cmd_us_p99"] = untraced.SlicedPercentile(&Slice::cmd_ns, 0.99) / 1e3;
  m["first_answer_ms_p99"] =
      untraced.SlicedPercentile(&Slice::first_ns, 0.99) / 1e6;
  m["late_ms_p99"] = untraced.SlicedPercentile(&Slice::late_ns, 0.99) / 1e6;

  std::vector<double> client_self;
  for (const char* op : kClientOps) {
    const std::string name = std::string("client.") + op;
    m["client.rtt_us_p50." + std::string(op)] =
        span_p(name, false, 0.5) / 1e3;
    auto it = spans.find(name);
    if (it != spans.end()) {
      client_self.insert(client_self.end(), it->second.self_ns.begin(),
                         it->second.self_ns.end());
    }
  }
  m["client.materialize_self_ms"] =
      span_p("client.materialize", true, 0.5) / 1e6;
  m["client.frames"] = static_cast<double>(traced.frames);
  m["client.frames_per_session"] =
      Ratio(static_cast<double>(traced.frames), sessions);
  m["client.resp_kb"] = static_cast<double>(traced.resp_bytes) / 1024;
  m["client.resp_kb_per_session"] = Ratio(m["client.resp_kb"], sessions);

  const bool fleet = spans.count("fleet.backend") > 0;
  m["fleet.self_us_p50"] = fleet ? Percentile(client_self, 0.5) / 1e3 : 0;
  for (const char* name :
       {"fleet.commands", "fleet.opens_routed", "fleet.open_spills",
        "fleet.sheds", "fleet.path_replays"}) {
    m[name] = Get(c, name);
  }
  m["fleet.backends_used"] = Get(g, "fleet.backends_used");
  m["tcp.backend_rtt_us_p50"] = span_p("fleet.backend", false, 0.5) / 1e3;
  m["tcp.backend_rtt_us_p99"] = span_p("fleet.backend", false, 0.99) / 1e3;
  const double tcp_frames =
      Get(c, "tcp.frames_in") + Get(c, "tcp.frames_out");
  m["tcp.frames"] = tcp_frames;
  m["tcp.bytes"] = Get(c, "tcp.rx_bytes") + Get(c, "tcp.tx_bytes");
  m["tcp.bytes_per_frame"] = Ratio(m["tcp.bytes"], tcp_frames);
  m["tcp.partial_reads"] = Get(c, "tcp.partial_reads");
  m["tcp.partial_reads_per_frame"] =
      Ratio(m["tcp.partial_reads"], Get(c, "tcp.frames_in"));
  m["tcp.backpressure_stalls"] = Get(c, "tcp.backpressure_stalls");
  m["tcp.read_pauses"] = Get(c, "tcp.read_pauses");

  m["service.latency_us_p50"] = Get(g, "service.p50_ns") / 1e3;
  m["service.latency_us_p99"] = Get(g, "service.p99_ns") / 1e3;
  m["service.requests"] =
      Get(c, "service.requests_ok") + Get(c, "service.requests_error");
  m["service.requests_rejected"] = Get(c, "service.requests_rejected");
  m["service.requests_expired"] = Get(c, "service.requests_expired");
  m["service.wire_kb"] = Get(c, "service.wire_bytes") / 1024;
  m["service.wire_kb_per_session"] = Ratio(m["service.wire_kb"], sessions);

  m["mediator.compile_us_p50"] = span_p("mediator.compile", false, 0.5) / 1e3;
  m["mediator.compiles"] = Get(c, "mediator.compiles");
  m["mediator.rewrites"] = Get(c, "mediator.compile_rewrites");
  m["mediator.rewrites_per_compile"] =
      Ratio(m["mediator.rewrites"], m["mediator.compiles"]);
  const double plan_hits = Get(c, "mediator.plan_cache_hits");
  m["mediator.plan_cache_hits"] = plan_hits;
  m["mediator.plan_cache_lookups"] =
      plan_hits + Get(c, "mediator.plan_cache_misses");
  m["mediator.plan_cache_hit_ratio"] =
      Ratio(plan_hits, m["mediator.plan_cache_lookups"]);
  const double view_hits = Get(c, "mediator.view_hits");
  m["mediator.view_hits"] = view_hits;
  m["mediator.view_lookups"] = view_hits + Get(c, "mediator.view_misses");
  m["mediator.view_hit_ratio"] = Ratio(view_hits, m["mediator.view_lookups"]);
  m["mediator.view_publishes"] = Get(c, "mediator.view_publishes");
  m["mediator.view_invalidations"] = Get(c, "mediator.view_invalidations");
  m["mediator.view_rejects"] = Get(c, "mediator.view_rejects");

  m["algebra.src_navs"] = Get(c, "algebra.src_navs");
  m["algebra.client_cmds"] = Get(c, "algebra.client_cmds");
  m["algebra.src_navs_per_client_cmd"] =
      Ratio(m["algebra.src_navs"], m["algebra.client_cmds"]);
  m["algebra.replayed_sessions"] = Get(c, "algebra.replayed_sessions");
  m["algebra.first_answer_src_navs"] =
      Ratio(Get(c, "algebra.first_answer_src_navs"),
            m["algebra.replayed_sessions"]);
  m["algebra.cmd_us_p50"] = span_p("algebra.cmd", false, 0.5) / 1e3;

  const double cache_hits = Get(c, "buffer.cache_hits");
  m["buffer.cache_hits"] = cache_hits;
  m["buffer.cache_lookups"] = cache_hits + Get(c, "buffer.cache_misses");
  m["buffer.cache_hit_ratio"] = Ratio(cache_hits, m["buffer.cache_lookups"]);
  m["buffer.cache_evictions"] = Get(c, "buffer.cache_evictions");
  m["buffer.cache_peak_kb"] = Get(g, "buffer.cache_peak_bytes") / 1024;
  m["buffer.cache_budget_kb"] = Get(g, "buffer.cache_budget_bytes") / 1024;
  const double ra_hits = Get(c, "session.readahead_hits");
  m["buffer.readahead_hits"] = ra_hits;
  m["buffer.readahead_issued"] = Get(c, "session.readahead_issued");
  m["buffer.readahead_hit_ratio"] =
      Ratio(ra_hits, m["buffer.readahead_issued"]);
  m["buffer.readahead_fallbacks"] = Get(c, "session.readahead_fallbacks");
  m["buffer.pushed_applied"] = Get(c, "session.pushed_applied");
  m["buffer.pushed_dropped"] = Get(c, "session.pushed_dropped");
  m["buffer.prefetch_jobs"] = Get(c, "service.prefetch_jobs");
  m["buffer.prefetch_exchanges"] = Get(c, "service.prefetch_exchanges");
  m["buffer.prefetch_fills"] = Get(c, "service.prefetch_fills");
  m["buffer.prefetch_useful_ratio"] =
      Ratio(m["buffer.pushed_applied"], m["buffer.prefetch_fills"]);
  m["session.fills"] = Get(c, "session.fills");
  m["session.view_served"] = Get(c, "session.view_served");
  m["session.harvested"] = Get(c, "session.harvested");

  m["wrappers.exchange_us_p50"] =
      span_p("wrapper.exchange", false, 0.5) / 1e3;
  m["wrappers.exchanges"] = Get(c, "wrappers.exchanges");
  m["wrappers.background_exchanges"] =
      Get(c, "wrappers.background_exchanges");
  m["wrappers.holes"] = Get(c, "wrappers.holes");
  m["wrappers.holes_per_exchange"] =
      Ratio(m["wrappers.holes"], m["wrappers.exchanges"]);
  m["wrappers.wait_ms"] = Get(c, "wrappers.wait_ns") / 1e6;
  m["wrappers.wait_ms_per_session"] = Ratio(m["wrappers.wait_ms"], sessions);
  m["rdb.rows_scanned"] = Get(c, "rdb.rows_scanned");
  m["rdb.rows_scanned_per_session"] =
      Ratio(m["rdb.rows_scanned"], sessions);
  return m;
}

std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) o << ", ";
    o << JsonString(metrics[i].name) << ": {\"value\": "
      << FormatNumber(metrics[i].value)
      << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  o << "}}";
  return o.str();
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "browse_fleet") return MakeBrowseFleet();
  if (name == "report_relational") return MakeReportRelational();
  if (name == "hot_views_remote") return MakeHotViewsRemote();
  return nullptr;
}

}  // namespace

// -------------------------------------------------------------- public API

Rng Rng::Derive(uint64_t seed, uint64_t stream, uint64_t index) {
  Rng r(seed ^ (stream * 0xD1B54A32D192ED03ull));
  r.Next();
  Rng out(r.Next() ^ (index * 0x94D049BB133111EBull));
  out.Next();
  return out;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SizeAxis(uint64_t seed, uint64_t index) {
  // 64-bit fixed point keeps the sequence exact for large indices.
  const uint64_t start = Rng::Derive(seed, kShape).Next();
  const uint64_t x = start + index * 0x9E3779B97F4A7C15ull;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

int RunBenchmark(const RunOptions& options) {
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload);
  if (workload == nullptr) {
    std::cerr << "unknown workload " << options.workload << "\n";
    return 2;
  }
  ::mkdir(kOutDir, 0755);
  const std::string host = HostFacts();
  std::cout << host << std::endl;
  {
    std::ofstream f(std::string(kOutDir) + "/host.json", std::ios::trunc);
    f << host << "\n";
  }

  const double rate = workload->rate();
  std::vector<double> setup_s;
  double setup_total_s = 0;
  do {
    workload->Teardown();
    const int64_t t0 = NowNs();
    workload->Setup(options.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    setup_total_s += setup_s.back();
  } while (!options.trace && (static_cast<int>(setup_s.size()) < kSetups ||
                              setup_total_s < kSetupSeconds));
  const double write_ratio = Ratio(workload->write_rate(), rate);

  auto runner = std::make_unique<Runner>(workload.get(), options.seed);
  PhaseStats warm = runner->ClosedLoop(kWarmupS, kWarmupBase, write_ratio);

  std::vector<Metric> metrics;
  int64_t attempted = warm.attempted;
  int64_t failed = warm.failed;

  if (!options.trace) {
    const std::vector<Event> events = MakeSchedule(
        options.seed, options.seconds, rate, workload->write_rate());
    const CounterSnapshot before = FullSnapshot(workload.get());
    PhaseStats open = runner->OpenLoop(
        events, options.seconds, SlicesFor(rate * options.seconds));
    const CounterSnapshot d = Delta(before, FullSnapshot(workload.get()));
    attempted += open.attempted;
    failed += open.failed;
    const double sessions = static_cast<double>(open.completed);
    std::map<std::string, double> v;
    v["setup_s"] = Median(setup_s);
    v["src_exchanges_per_session"] =
        Ratio(Get(d.counters, "wrappers.exchanges"), sessions);
    v["src_kb_per_session"] =
        Ratio(Get(d.counters, "wrappers.bytes") / 1024, sessions);
    v["peak_rss_mb"] = PeakRssMb();
    for (const auto& [name, unit] : EndToEndMetrics()) {
      metrics.push_back({name, v[name], unit});
    }
    // Timings for a reader; they do not repeat well enough on a shared
    // host to be end-to-end metrics (the traced run reports them).
    std::cerr << "open loop: " << open.attempted << " sessions, "
              << open.writes << " writes, failed " << open.failed
              << "; session_ms_p50 "
              << open.SlicedPercentile(&Slice::session_ns, 0.5) / 1e6
              << ", cmd_us_p50 "
              << open.SlicedPercentile(&Slice::cmd_ns, 0.5) / 1e3
              << ", cpu_ms_per_session " << Ratio(open.cpu_s * 1e3, sessions)
              << "\n";
  } else {
    // Untraced and traced halves replay the same schedule, so the
    // difference in their medians is the tracing overhead; the rest of the
    // time measures capacity, untraced.
    const double half_s = options.seconds * kOpenShare / 2;
    const std::vector<Event> events =
        MakeSchedule(options.seed, half_s, rate, workload->write_rate());
    const int slices = SlicesFor(rate * half_s);
    PhaseStats untraced = runner->OpenLoop(events, half_s, slices);
    const CounterSnapshot before = FullSnapshot(workload.get());
    Tracer::Clear();
    Tracer::Enable(true);
    PhaseStats traced = runner->OpenLoop(events, half_s, slices);
    CounterSnapshot d = Delta(before, FullSnapshot(workload.get()));
    workload->MeasureLayersDirectly(&d);
    Tracer::Enable(false);
    PhaseStats cap = runner->ClosedLoop(options.seconds * (1 - kOpenShare),
                                        kCapacityBase, write_ratio);
    attempted += untraced.attempted + traced.attempted + cap.attempted;
    failed += untraced.failed + traced.failed + cap.failed;
    std::map<std::string, double> v =
        LayerMetrics(d, traced, untraced, cap, Tracer::Summarize());
    for (const auto& [name, unit] : PerLayerMetrics()) {
      metrics.push_back({name, v[name], unit});
    }
    const std::string path = std::string(kOutDir) + "/spans-" +
                             options.workload + "-" +
                             std::to_string(options.seed) + ".jsonl";
    if (!Tracer::WriteJsonl(path)) {
      std::cerr << "could not write " << path << "\n";
    }
  }
  runner.reset();  // client transports go before the servers they use
  workload->Teardown();

  // Every session must succeed: a refusal, an error, a wrong answer or a
  // missed latency limit makes the run fail.
  if (failed > 0) std::cerr << failed << " sessions failed\n";
  const bool correct = failed == 0;
  std::cout << ResultLine(correct, attempted, failed, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace perfbench
