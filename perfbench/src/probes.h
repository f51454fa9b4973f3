// Decorators at the seams where the benchmark calls into the program. They
// time and count what crosses each seam; spans are recorded only while the
// tracer is on.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "buffer/lxp.h"
#include "core/navigable.h"
#include "service/wire.h"
#include "wrappers/relational_wrapper.h"

namespace perfbench {

/// What one client thread's transport saw. Touched only by that thread.
struct ClientTally {
  std::vector<double> cmd_ns;  ///< round trip of every command
  int64_t frames = 0;
  int64_t resp_bytes = 0;
  int64_t last_done_ns = 0;  ///< NowNs() when the last response arrived
};

/// FrameTransport decorator directly under FramedDocument: times every
/// command's round trip; a span per command while tracing.
class ClientTransport : public mix::service::wire::FrameTransport {
 public:
  ClientTransport(mix::service::wire::FrameTransport* inner,
                  ClientTally* tally)
      : inner_(inner), tally_(tally) {}

  mix::Result<std::string> RoundTrip(const std::string& request) override;

 private:
  mix::service::wire::FrameTransport* inner_;
  ClientTally* tally_;
};

/// Decorates the connection a fleet router dials to one backend: a span
/// per backend round trip while tracing.
class BackendConnection : public mix::service::wire::FrameTransport {
 public:
  explicit BackendConnection(
      std::unique_ptr<mix::service::wire::FrameTransport> inner)
      : inner_(std::move(inner)) {}

  mix::Result<std::string> RoundTrip(const std::string& request) override;

 private:
  std::unique_ptr<mix::service::wire::FrameTransport> inner_;
};

/// Source-side totals across every wrapper instance of a workload.
struct SourceTally {
  std::atomic<int64_t> exchanges{0};  ///< demand and background
  std::atomic<int64_t> background_exchanges{0};
  std::atomic<int64_t> bytes{0};      ///< fragment bytes returned
  std::atomic<int64_t> holes{0};      ///< holes requested
  std::atomic<int64_t> demand_wait_ns{0};  ///< injected sleep, demand path
  std::atomic<int64_t> rows_scanned{0};
};

/// LxpWrapper factory decorator: counts every exchange that reaches the
/// wrapper, optionally sleeps a fixed time first (a remote source), and
/// records a detached span of the wrapper's own work while tracing.
class SourceWrapper : public mix::buffer::LxpWrapper {
 public:
  /// `relational` (optional) aliases `inner` so its rows_scanned() can be
  /// harvested.
  SourceWrapper(std::unique_ptr<mix::buffer::LxpWrapper> inner,
                SourceTally* tally, int64_t delay_ns,
                const mix::wrappers::RelationalLxpWrapper* relational =
                    nullptr);

  /// Wrapper instances built while this is set are background ones (the
  /// service builds its prefetch workers' wrappers in its constructor).
  static void SetBuildingBackground(bool on);

  mix::buffer::PushdownCapability Capability() const override {
    return inner_->Capability();
  }
  std::string GetRoot(const std::string& uri) override {
    return inner_->GetRoot(uri);
  }
  mix::buffer::FragmentList Fill(const std::string& hole_id) override {
    return inner_->Fill(hole_id);
  }
  mix::buffer::HoleFillList FillMany(
      const std::vector<std::string>& holes,
      const mix::buffer::FillBudget& budget) override {
    return inner_->FillMany(holes, budget);
  }
  mix::Status TryGetRoot(const std::string& uri, std::string* out) override;
  mix::Status TryFill(const std::string& hole_id,
                      mix::buffer::FragmentList* out) override;
  mix::Status TryFillMany(const std::vector<std::string>& holes,
                          const mix::buffer::FillBudget& budget,
                          mix::buffer::HoleFillList* out) override;

 private:
  /// Sleeps, runs `exchange` under a detached span, and charges the tally.
  mix::Status Exchange(int64_t holes,
                       const std::function<mix::Status()>& exchange,
                       const std::function<int64_t()>& response_bytes);

  std::unique_ptr<mix::buffer::LxpWrapper> inner_;
  SourceTally* tally_;
  int64_t delay_ns_;
  bool background_;
  const mix::wrappers::RelationalLxpWrapper* relational_;
  int64_t rows_seen_ = 0;
  uint64_t instance_;
};

/// Navigable decorator over the in-process answer document of a replayed
/// session: one span and one count per client command.
class CommandProbe : public mix::Navigable {
 public:
  explicit CommandProbe(mix::Navigable* inner) : inner_(inner) {}

  int64_t commands() const { return commands_; }

  mix::NodeId Root() override;
  std::optional<mix::NodeId> Down(const mix::NodeId& p) override;
  std::optional<mix::NodeId> Right(const mix::NodeId& p) override;
  mix::Label Fetch(const mix::NodeId& p) override;
  std::optional<mix::NodeId> NthChild(const mix::NodeId& p,
                                      int64_t index) override;

 private:
  mix::Navigable* inner_;
  int64_t commands_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
