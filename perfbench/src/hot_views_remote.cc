// hot_views_remote: repeated reads beside writes over slow sources. Homes
// and schools sit behind SourceWrapper with a fixed sleep per exchange (a
// remote source). The service runs in-process (framed) with the source
// cache sized to fit, the answer-view cache on, readahead and background
// prefetch on. Sessions pick Zipf-skewed from 32 view queries; most
// materialize the whole answer, a seeded share browses it with d/r/f
// commands, which gives the prefetcher holes to fill while the session is
// still open. A seeded open-loop stream of
// InvalidateSource calls drops views and bumps generations, so later
// sessions miss and refill through the slow wrappers. The documents never
// change, so the oracle answers stay valid.
#include <algorithm>
#include <cmath>
#include <tuple>

#include "trace.h"
#include "workloads.h"
#include "wrappers/xml_lxp_wrapper.h"

namespace perfbench {

namespace {

using mix::service::MediatorService;
using mix::service::SessionEnvironment;

constexpr uint64_t kDataStream = 301;
constexpr uint64_t kSessionStream = 303;
constexpr int kFirstZip = 91000;

constexpr double kRate = 300;      // sessions/s
constexpr double kWriteRate = 10;  // InvalidateSource calls/s
constexpr int kHomes = 60;
constexpr int kSchools = 30;
constexpr int kZips = 20;
constexpr double kZipfS = 1.0;
/// Injected sleep before every wrapper exchange: a remote source.
constexpr int64_t kDelayNs = 200'000;
/// Both caches hold every source generation's fragments (~21 KiB each).
constexpr int64_t kSourceCacheBytes = 4 * 1024 * 1024;
constexpr int64_t kViewCacheBytes = 4 * 1024 * 1024;
constexpr int kMaxInFlight = 4;
constexpr int kPrefetchPerCommand = 4;
constexpr int kPrefetchWorkers = 2;
/// Share of sessions that browse instead of materializing, and how.
constexpr double kBrowseShare = 0.25;
constexpr ProgramShape kBrowseShape{/*scan_alpha=*/1.0, /*scan_cap=*/60,
                                    /*descend_p=*/0.2, /*nth_jumps=*/1};

/// Fig. 3, E16's base views, and predicate-narrowed variants of the zip
/// views that subsumption serves from a cached base view, most popular
/// first: the list order is the Zipf rank order.
std::vector<std::string> ViewQueries() {
  const std::string homes_zips =
      "CONSTRUCT <answer> $V {$V} </answer> {} "
      "WHERE homesSrc homes.home.zip._ $V";
  const std::string schools_zips =
      "CONSTRUCT <answer> $V {$V} </answer> {} "
      "WHERE schoolsSrc schools.school.zip._ $V";
  std::vector<std::string> q = {
      Fig3Query("answer"),
      homes_zips,
      schools_zips,
      "CONSTRUCT <answer> $H {$H} </answer> {} WHERE homesSrc homes.home $H",
      "CONSTRUCT <answer> $S {$S} </answer> {} "
      "WHERE schoolsSrc schools.school $S",
  };
  for (int i = 1; i <= 14; ++i) {
    q.push_back(homes_zips + " AND $V < '" + std::to_string(kFirstZip + i) +
                "'");
  }
  for (int i = 1; i <= 13; ++i) {
    q.push_back(schools_zips + " AND $V < '" +
                std::to_string(kFirstZip + i) + "'");
  }
  return q;
}

class HotViewsRemote : public Workload {
 public:
  ~HotViewsRemote() override { Teardown(); }

  void Setup(uint64_t seed) override {
    Teardown();
    seed_ = seed;
    Rng data = Rng::Derive(seed, kDataStream);
    homes_ = MakeHomesDoc(kHomes, kZips, &data);
    schools_ = MakeSchoolsDoc(kSchools, kZips, &data);
    queries_ = ViewQueries();
    const mix::mediator::ReferenceSources ref{
        {"homesSrc", homes_->root()}, {"schoolsSrc", schools_->root()}};
    for (const std::string& q : queries_) {
      oracle_.push_back(EvaluateOracle(q, ref));
    }
    // Zipf(s) over ranks in ViewQueries() order. The order is fixed, not
    // seeded: which views are hot decides what each invalidation costs, and
    // a seeded order spread src_exchanges_per_session by 0.13 IQR/median
    // across seeds.
    double total = 0;
    for (size_t r = 0; r < queries_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;

    env_ = std::make_unique<SessionEnvironment>();
    SessionEnvironment::WrapperOptions wo;
    wo.prefetch_per_command = kPrefetchPerCommand;
    wo.background_prefetch = true;
    wo.max_in_flight = kMaxInFlight;
    for (const auto& [name, uri, doc] :
         {std::tuple{"homesSrc", "homes.xml", homes_.get()},
          std::tuple{"schoolsSrc", "schools.xml", schools_.get()}}) {
      env_->RegisterWrapperFactory(
          name,
          [doc = doc, tally = &sources_]()
              -> std::unique_ptr<mix::buffer::LxpWrapper> {
            return std::make_unique<SourceWrapper>(
                std::make_unique<mix::wrappers::XmlLxpWrapper>(doc), tally,
                kDelayNs);
          },
          uri, wo);
    }
    MediatorService::Options so;
    so.workers = kServiceWorkers;
    so.queue_capacity = 1024;
    so.source_cache_bytes = kSourceCacheBytes;
    so.answer_view_cache_bytes = kViewCacheBytes;
    so.prefetch_workers = kPrefetchWorkers;
    // The prefetch workers' wrapper instances are built in the service
    // constructor; they are the background ones.
    SourceWrapper::SetBuildingBackground(true);
    service_ = std::make_unique<MediatorService>(env_.get(), so);
    SourceWrapper::SetBuildingBackground(false);
  }

  void Teardown() override {
    service_.reset();
    env_.reset();
    oracle_.clear();
    queries_.clear();
    cdf_.clear();
    homes_.reset();
    schools_.reset();
  }

  double rate() const override { return kRate; }

  std::unique_ptr<ClientState> NewClient() override {
    return std::make_unique<FramedClient>(service_.get());
  }

  SessionResult RunSession(ClientState* state, uint64_t index,
                           double u) override {
    auto* client = static_cast<FramedClient*>(state);
    const size_t q = std::min(
        static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                            cdf_.begin()),
        queries_.size() - 1);
    Rng rng = Rng::Derive(seed_, kSessionStream, index);
    if (rng.Chance(kBrowseShare)) {
      return BrowseSession(&client->transport, queries_[q], oracle_[q].root,
                           ScanLength(rng.Unit(), kBrowseShape),
                           kBrowseShape, &rng, service_.get(), &harvest_);
    }
    return MaterializeSession(client, service_.get(), queries_[q],
                              oracle_[q].term, &harvest_);
  }

  double write_rate() const override { return kWriteRate; }

  /// Writes alternate between the sources, so every run refills both
  /// equally often; their times are seeded.
  void RunWrite(uint64_t index) override {
    service_->InvalidateSource(index % 2 == 0 ? "homesSrc" : "schoolsSrc");
  }

  CounterSnapshot Snapshot() override {
    CounterSnapshot s;
    AddServiceCounters(service_->Metrics(), &s);
    harvest_.AddTo(&s);
    s.gauges["buffer.cache_budget_bytes"] =
        static_cast<double>(kSourceCacheBytes);
    return s;
  }

  void MeasureLayersDirectly(CounterSnapshot* out) override {
    for (int round = 0; round < 5; ++round) {
      MeasureCompiles(queries_, OptimizerFor(*env_), out);
    }
  }

 private:
  uint64_t seed_ = 0;
  std::unique_ptr<mix::xml::Document> homes_;
  std::unique_ptr<mix::xml::Document> schools_;
  std::vector<std::string> queries_;
  std::vector<OracleAnswer> oracle_;
  std::vector<double> cdf_;
  std::unique_ptr<SessionEnvironment> env_;
  std::unique_ptr<MediatorService> service_;
  SessionHarvest harvest_;
};

}  // namespace

std::unique_ptr<Workload> MakeHotViewsRemote() {
  return std::make_unique<HotViewsRemote>();
}

}  // namespace perfbench
