// Helpers the three workloads share: oracle answers, counter harvest from
// the program's metric snapshots, direct compile calls, and the
// materializing session.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "client/framed_document.h"
#include "core/navigable.h"
#include "harness.h"
#include "mediator/passes/pass.h"
#include "mediator/reference_eval.h"
#include "service/metrics.h"
#include "service/service.h"
#include "xml/tree.h"

namespace perfbench {

/// Worker threads of each in-process service.
inline constexpr int kServiceWorkers = 4;

/// `n` zip offsets in [0, zips), each used n / zips times (the first
/// n % zips once more), in seeded order.
std::vector<int64_t> BalancedZips(int64_t n, int64_t zips, Rng* rng);

/// Homes (homes/home{addr, zip}) or schools (schools/school{dir, zip}):
/// the shape of xml::MakeHomesDoc/MakeSchoolsDoc, with zips 91000 ..
/// 91000 + zips - 1, but each zip used equally often, in seeded order.
/// (Independent uniform zips leave some zips without schools on some seeds,
/// which changes the answer's size and the join's cost from seed to seed.)
std::unique_ptr<mix::xml::Document> MakeHomesDoc(int n, int zips, Rng* rng);
std::unique_ptr<mix::xml::Document> MakeSchoolsDoc(int n, int zips, Rng* rng);

/// The paper's Fig. 3 query with `root` as the answer's root label. Every
/// root label is a distinct plan-cache and placement key with the same
/// answer below the root.
std::string Fig3Query(const std::string& root);

/// An oracle answer from mediator::EvaluateReference over the materialized
/// sources; `scratch` owns the nodes.
struct OracleAnswer {
  std::unique_ptr<mix::xml::Document> scratch;
  const mix::xml::Node* root = nullptr;
  std::string term;
};
OracleAnswer EvaluateOracle(const std::string& xmas_text,
                            const mix::mediator::ReferenceSources& sources);

/// Adds a service snapshot to `out`: counters summed, latency gauges as the
/// maximum over services, cache peak bytes summed.
void AddServiceCounters(const mix::service::ServiceMetricsSnapshot& s,
                        CounterSnapshot* out);

/// Per-session SessionMetrics summed over harvested sessions.
struct SessionHarvest {
  std::atomic<int64_t> sessions{0};
  std::atomic<int64_t> fills{0};
  std::atomic<int64_t> readahead_issued{0};
  std::atomic<int64_t> readahead_hits{0};
  std::atomic<int64_t> readahead_fallbacks{0};
  std::atomic<int64_t> pushed_applied{0};
  std::atomic<int64_t> pushed_dropped{0};
  std::atomic<int64_t> view_served{0};

  /// Reads session `id` of an in-process service; call before Close.
  void Harvest(mix::service::MediatorService* service, uint64_t id);
  void AddTo(CounterSnapshot* out) const;
};

/// The optimizer configuration MediatorService derives from `env`
/// (capabilities of wrappers registered on the "db" view), rebuilt here so
/// compile calls can be made and timed directly.
mix::mediator::passes::OptimizerOptions OptimizerFor(
    const mix::service::SessionEnvironment& env);

/// CompileXmas + OptimizePlan on each text under a "mediator.compile" span;
/// adds mediator.compiles and mediator.compile_rewrites.
void MeasureCompiles(const std::vector<std::string>& texts,
                     const mix::mediator::passes::OptimizerOptions& options,
                     CounterSnapshot* out);

/// Client state of an in-process framed workload: the client decorator
/// directly over the service.
class FramedClient : public ClientState {
 public:
  explicit FramedClient(mix::service::MediatorService* service)
      : transport(service, &tally) {}
  ClientTransport transport;
};

/// A seeded DOM-VXD browsing program: Right scans of heavy-tailed length,
/// with descents and NthChild jumps into some visited elements.
struct ProgramShape {
  double scan_alpha;  ///< Pareto tail of the Right-scan length
  int scan_cap;
  double descend_p;   ///< chance to descend into a visited element
  int nth_jumps;      ///< NthChild jumps per descent
};

/// Scan length for position `u` in [0, 1): P(k > x) = x^-alpha, capped.
int ScanLength(double u, const ProgramShape& shape);

/// Runs one browsing program on `doc` (a framed client document or an
/// in-process answer document) in lockstep with the oracle tree `ref`:
/// Down to the first answer element, then `scan` Rights, checking every
/// label read. `healthy` reports whether the last command succeeded;
/// `on_first_answer` fires once the first answer element's label is held.
/// Returns false and fills `r` on the first failure.
bool RunProgram(mix::Navigable* doc, const mix::xml::Node* ref, int scan,
                const ProgramShape& shape, Rng* rng,
                const std::function<bool()>& healthy,
                const std::function<void()>& on_first_answer,
                SessionResult* r);

/// open -> RunProgram -> close over `transport`. Harvests SessionMetrics
/// while tracing when `service` (an in-process service) is given.
SessionResult BrowseSession(mix::service::wire::FrameTransport* transport,
                            const std::string& xmas_text,
                            const mix::xml::Node* expected, int scan,
                            const ProgramShape& shape, Rng* rng,
                            mix::service::MediatorService* service,
                            SessionHarvest* harvest);

/// open -> xml::MaterializeInto (one FetchSubtree of the root) -> oracle
/// check -> close. Harvests SessionMetrics while tracing.
SessionResult MaterializeSession(FramedClient* client,
                                 mix::service::MediatorService* service,
                                 const std::string& xmas_text,
                                 const std::string& expected_term,
                                 SessionHarvest* harvest);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
