#include "probes.h"

#include <chrono>
#include <thread>

#include "trace.h"

namespace perfbench {

namespace wire = mix::service::wire;

namespace {

/// Span name per request type; the type byte follows the u32 length, the
/// two magic bytes and the version byte (service/wire.h).
const char* ClientSpanName(const std::string& request) {
  if (request.size() < 8) return "client.other";
  switch (static_cast<wire::MsgType>(static_cast<uint8_t>(request[7]))) {
    case wire::MsgType::kOpen:
      return "client.open";
    case wire::MsgType::kClose:
      return "client.close";
    case wire::MsgType::kRoot:
      return "client.root";
    case wire::MsgType::kDown:
      return "client.down";
    case wire::MsgType::kRight:
      return "client.right";
    case wire::MsgType::kFetch:
      return "client.fetch";
    case wire::MsgType::kNthChild:
      return "client.nth_child";
    case wire::MsgType::kFetchSubtree:
      return "client.fetch_subtree";
    default:
      return "client.other";
  }
}

std::atomic<bool> g_building_background{false};
std::atomic<uint64_t> g_next_instance{1};

}  // namespace

mix::Result<std::string> ClientTransport::RoundTrip(
    const std::string& request) {
  ScopedSpan span(ClientSpanName(request));
  const int64_t t0 = NowNs();
  mix::Result<std::string> response = inner_->RoundTrip(request);
  tally_->last_done_ns = NowNs();
  tally_->cmd_ns.push_back(static_cast<double>(tally_->last_done_ns - t0));
  ++tally_->frames;
  if (response.ok()) {
    tally_->resp_bytes += static_cast<int64_t>(response.value().size());
  }
  return response;
}

mix::Result<std::string> BackendConnection::RoundTrip(
    const std::string& request) {
  ScopedSpan span("fleet.backend");
  return inner_->RoundTrip(request);
}

SourceWrapper::SourceWrapper(std::unique_ptr<mix::buffer::LxpWrapper> inner,
                             SourceTally* tally, int64_t delay_ns,
                             const mix::wrappers::RelationalLxpWrapper*
                                 relational)
    : inner_(std::move(inner)),
      tally_(tally),
      delay_ns_(delay_ns),
      background_(g_building_background.load()),
      relational_(relational),
      instance_(g_next_instance.fetch_add(1)) {}

void SourceWrapper::SetBuildingBackground(bool on) {
  g_building_background.store(on);
}

mix::Status SourceWrapper::Exchange(
    int64_t holes, const std::function<mix::Status()>& exchange,
    const std::function<int64_t()>& response_bytes) {
  if (delay_ns_ > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(delay_ns_));
    if (!background_) tally_->demand_wait_ns.fetch_add(delay_ns_);
  }
  const int64_t t0 = Tracer::enabled() ? NowNs() : 0;
  mix::Status status = exchange();
  if (Tracer::enabled()) {
    Tracer::RecordDetached("wrapper.exchange", t0, NowNs(), instance_);
  }
  tally_->exchanges.fetch_add(1);
  if (background_) tally_->background_exchanges.fetch_add(1);
  tally_->holes.fetch_add(holes);
  if (status.ok()) tally_->bytes.fetch_add(response_bytes());
  if (relational_ != nullptr) {
    const int64_t rows = relational_->rows_scanned();
    tally_->rows_scanned.fetch_add(rows - rows_seen_);
    rows_seen_ = rows;
  }
  return status;
}

mix::Status SourceWrapper::TryGetRoot(const std::string& uri,
                                      std::string* out) {
  return Exchange(
      0, [&] { return inner_->TryGetRoot(uri, out); },
      [&] { return static_cast<int64_t>(out->size()); });
}

mix::Status SourceWrapper::TryFill(const std::string& hole_id,
                                   mix::buffer::FragmentList* out) {
  return Exchange(
      1, [&] { return inner_->TryFill(hole_id, out); },
      [&] { return mix::buffer::FragmentListByteSize(*out); });
}

mix::Status SourceWrapper::TryFillMany(const std::vector<std::string>& holes,
                                       const mix::buffer::FillBudget& budget,
                                       mix::buffer::HoleFillList* out) {
  return Exchange(
      static_cast<int64_t>(holes.size()),
      [&] { return inner_->TryFillMany(holes, budget, out); },
      [&] { return mix::buffer::HoleFillListByteSize(*out); });
}

mix::NodeId CommandProbe::Root() {
  ScopedSpan span("algebra.cmd");
  ++commands_;
  return inner_->Root();
}

std::optional<mix::NodeId> CommandProbe::Down(const mix::NodeId& p) {
  ScopedSpan span("algebra.cmd");
  ++commands_;
  return inner_->Down(p);
}

std::optional<mix::NodeId> CommandProbe::Right(const mix::NodeId& p) {
  ScopedSpan span("algebra.cmd");
  ++commands_;
  return inner_->Right(p);
}

mix::Label CommandProbe::Fetch(const mix::NodeId& p) {
  ScopedSpan span("algebra.cmd");
  ++commands_;
  return inner_->Fetch(p);
}

std::optional<mix::NodeId> CommandProbe::NthChild(const mix::NodeId& p,
                                                  int64_t index) {
  ScopedSpan span("algebra.cmd");
  ++commands_;
  return inner_->NthChild(p, index);
}

}  // namespace perfbench
