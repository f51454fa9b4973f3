// Load generation, sampling and reporting shared by the three workloads.
//
// All load comes from one process and at most kClientThreads client
// threads. Sessions arrive open loop on a seeded schedule (N arrivals
// spread uniformly at random over the window, i.e. a Poisson process
// conditioned on its count); within a session commands run closed loop.
// Latency is timed from each session's due time. In the traced run, a
// separate closed-loop phase with every client thread busy measures
// capacity.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probes.h"

namespace perfbench {

inline constexpr int kClientThreads = 4;
/// Every workload's latency limit on one session, timed from its due time.
inline constexpr double kLatencyLimitMs = 1000;

/// splitmix64 stream; `Derive` gives independent streams per purpose/index.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  static Rng Derive(uint64_t seed, uint64_t stream, uint64_t index = 0);
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Unit() < p; }

 private:
  uint64_t state_;
};

/// Position of session `index` on the workload's size axis, in [0, 1): the
/// golden-ratio sequence from a seeded start.
double SizeAxis(uint64_t seed, uint64_t index);

/// Nearest-rank percentile of exact samples (p in [0, 1]); 0 when empty.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

/// The outcome of one session as the workload judged it.
struct SessionResult {
  bool ok = true;  ///< no error, refusal, bad status or oracle mismatch
  int64_t first_answer_ns = 0;  ///< NowNs() when the first answer arrived
  std::string problem;    ///< first failure, for stderr
};

/// Per-client-thread state a workload keeps (transports, scratch).
class ClientState {
 public:
  virtual ~ClientState() = default;
  ClientTally tally;
};

/// Cumulative counters (diffed across a phase) and gauges (read as is).
struct CounterSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates every input from `seed`, computes the oracle answers and
  /// starts the servers. Called several times per run; each call first
  /// tears the previous state down.
  virtual void Setup(uint64_t seed) = 0;
  virtual void Teardown() = 0;

  virtual std::unique_ptr<ClientState> NewClient() = 0;
  /// Runs session `index`. `u` in [0, 1) is the session's position on the
  /// workload's main size axis (scan length, view rank, query shape), drawn
  /// from a seeded low-discrepancy sequence so every window of sessions
  /// covers the distribution evenly.
  virtual SessionResult RunSession(ClientState* client, uint64_t index,
                                   double u) = 0;

  /// Sessions per second in the open-loop schedule.
  virtual double rate() const = 0;
  /// Writes per second in the open-loop stream (0: none).
  virtual double write_rate() const { return 0; }
  virtual void RunWrite(uint64_t index) { (void)index; }

  /// Counters of the program's own modules plus the source tally.
  virtual CounterSnapshot Snapshot() = 0;

  /// Traced run only: layer measurements made outside the session path
  /// (direct compile calls, the in-process LazyMediator replay). Adds
  /// counters/gauges to `out`.
  virtual void MeasureLayersDirectly(CounterSnapshot* out) = 0;

  SourceTally& sources() { return sources_; }

 protected:
  SourceTally sources_;
};

std::unique_ptr<Workload> MakeBrowseFleet();
std::unique_ptr<Workload> MakeReportRelational();
std::unique_ptr<Workload> MakeHotViewsRemote();

/// One ordered output metric.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Runs the whole benchmark for one workload; prints host facts and the
/// result line on stdout. Returns the process exit code.
int RunBenchmark(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
