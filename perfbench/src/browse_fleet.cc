// browse_fleet: interactive partial browsing of Fig. 3 answers through the
// whole network stack — FramedDocument -> SessionRouter -> two TcpServer
// backends on loopback -> sessions over XmlLxpWrapper sources. Each session
// runs a seeded DOM-VXD program of single d/r/f commands and checks every
// label it reads against the oracle answer.
#include <iostream>
#include <tuple>

#include "fleet/router.h"
#include "mediator/instantiate.h"
#include "mediator/translate.h"
#include "net/tcp/tcp_server.h"
#include "net/tcp/tcp_transport.h"
#include "trace.h"
#include "workloads.h"
#include "wrappers/xml_lxp_wrapper.h"
#include "xml/doc_navigable.h"

namespace perfbench {

namespace {

using mix::service::MediatorService;
using mix::service::SessionEnvironment;

constexpr uint64_t kProgramStream = 101;
constexpr uint64_t kDataStream = 102;

constexpr double kRate = 250;  // sessions/s
/// 2000 homes and 25 schools over 5 zips: every home has 5 schools, and a
/// Fig. 3 answer has 2000 med_homes.
constexpr int kHomes = 2000;
constexpr int kSchools = 25;
constexpr int kZips = 5;
/// Most sessions scan <= 10 med_homes, a few scan hundreds.
constexpr ProgramShape kShape{/*scan_alpha=*/1.3, /*scan_cap=*/300,
                              /*descend_p=*/0.1, /*nth_jumps=*/2};
/// Per backend; the fragments sessions touch peak at ~100 KiB per backend
/// with an unbounded cache, so this one evicts.
constexpr int64_t kSourceCacheBytes = 16 * 1024;
constexpr int kBackends = 2;
constexpr int kBackendWorkers = 2;

/// Root labels of the Fig. 3 variants sessions pick from. Distinct roots
/// are distinct placement keys, spread over both backends by the ring.
const char* const kRoots[] = {"answer", "homes_near_schools", "listing",
                              "results"};

class FleetClient : public ClientState {
 public:
  explicit FleetClient(mix::fleet::SessionRouter* router)
      : routed(router->MakeTransport()), transport(routed.get(), &tally) {}
  std::unique_ptr<mix::service::wire::FrameTransport> routed;
  ClientTransport transport;
};

class BrowseFleet : public Workload {
 public:
  ~BrowseFleet() override { Teardown(); }

  void Setup(uint64_t seed) override {
    Teardown();
    seed_ = seed;
    Rng data = Rng::Derive(seed, kDataStream);
    homes_ = MakeHomesDoc(kHomes, kZips, &data);
    schools_ = MakeSchoolsDoc(kSchools, kZips, &data);
    const mix::mediator::ReferenceSources ref{
        {"homesSrc", homes_->root()}, {"schoolsSrc", schools_->root()}};
    for (const char* root : kRoots) {
      queries_.push_back(Fig3Query(root));
      oracle_.push_back(EvaluateOracle(queries_.back(), ref));
    }

    std::vector<mix::fleet::SessionRouter::Backend> dial;
    for (int i = 0; i < kBackends; ++i) {
      Backend b;
      b.env = std::make_unique<SessionEnvironment>();
      for (const auto& [name, uri, doc] :
           {std::tuple{"homesSrc", "homes.xml", homes_.get()},
            std::tuple{"schoolsSrc", "schools.xml", schools_.get()}}) {
        b.env->RegisterWrapperFactory(
            name,
            [doc = doc, tally = &sources_]()
                -> std::unique_ptr<mix::buffer::LxpWrapper> {
              return std::make_unique<SourceWrapper>(
                  std::make_unique<mix::wrappers::XmlLxpWrapper>(doc), tally,
                  0);
            },
            uri);
      }
      MediatorService::Options so;
      so.backend_id = "b" + std::to_string(i);
      so.workers = kBackendWorkers;
      so.queue_capacity = 1024;
      so.source_cache_bytes = kSourceCacheBytes;
      b.service = std::make_unique<MediatorService>(b.env.get(), so);
      mix::net::tcp::TcpServerOptions to;
      to.event_loops = 1;
      b.server = std::make_unique<mix::net::tcp::TcpServer>(b.service.get(),
                                                            to);
      mix::Status started = b.server->Start();
      if (!started.ok()) {
        std::cerr << "backend failed to start: " << started.ToString()
                  << "\n";
        std::exit(3);
      }
      const uint16_t port = b.server->port();
      dial.push_back({so.backend_id, [port] {
                        mix::net::tcp::TcpTransportOptions co;
                        co.port = port;
                        co.op_timeout_ns = 10'000'000'000;
                        return std::make_unique<BackendConnection>(
                            std::make_unique<
                                mix::net::tcp::TcpFrameTransport>(co));
                      }});
      backends_.push_back(std::move(b));
    }
    router_ = std::make_unique<mix::fleet::SessionRouter>(
        std::move(dial), mix::fleet::SessionRouter::Options{});
  }

  void Teardown() override {
    router_.reset();
    for (Backend& b : backends_) b.server->Stop();
    backends_.clear();
    oracle_.clear();
    queries_.clear();
    homes_.reset();
    schools_.reset();
  }

  double rate() const override { return kRate; }

  std::unique_ptr<ClientState> NewClient() override {
    return std::make_unique<FleetClient>(router_.get());
  }

  SessionResult RunSession(ClientState* state, uint64_t index,
                           double u) override {
    auto* client = static_cast<FleetClient*>(state);
    Rng rng = Rng::Derive(seed_, kProgramStream, index);
    const size_t variant = rng.Below(queries_.size());
    return BrowseSession(&client->transport, queries_[variant],
                         oracle_[variant].root, ScanLength(u, kShape), kShape,
                         &rng, nullptr, nullptr);
  }

  CounterSnapshot Snapshot() override {
    CounterSnapshot s;
    double used = 0;
    for (Backend& b : backends_) {
      const mix::service::ServiceMetricsSnapshot m = b.service->Metrics();
      AddServiceCounters(m, &s);
      if (m.sessions_opened > 0) ++used;
    }
    const mix::fleet::FleetStats f = router_->stats();
    s.counters["fleet.commands"] = static_cast<double>(f.commands);
    s.counters["fleet.opens_routed"] = static_cast<double>(f.opens_routed);
    s.counters["fleet.open_spills"] = static_cast<double>(f.open_spills);
    s.counters["fleet.sheds"] = static_cast<double>(f.sheds);
    s.counters["fleet.path_replays"] = static_cast<double>(f.path_replays);
    s.gauges["fleet.backends_used"] = used;
    s.gauges["buffer.cache_budget_bytes"] =
        static_cast<double>(kSourceCacheBytes) *
        static_cast<double>(backends_.size());
    return s;
  }

  void MeasureLayersDirectly(CounterSnapshot* out) override {
    const mix::mediator::passes::OptimizerOptions options =
        OptimizerFor(*backends_[0].env);
    for (int round = 0; round < 25; ++round) {
      MeasureCompiles(queries_, options, out);
    }
    // The paper's navigational complexity: the same programs on the lazy
    // mediator in-process, counting source navigations per client command.
    const int replays = 200;
    int64_t src_navs = 0;
    int64_t client_cmds = 0;
    int64_t first_answer_navs = 0;
    for (int i = 0; i < replays; ++i) {
      const auto index = static_cast<uint64_t>(i);
      Rng rng = Rng::Derive(seed_, kProgramStream, index);
      const size_t variant = rng.Below(queries_.size());
      auto plan = mix::mediator::CompileXmas(queries_[variant]);
      if (!plan.ok()) continue;
      (void)mix::mediator::passes::OptimizePlan(&plan.value(), options);
      mix::xml::DocNavigable homes_doc(homes_.get());
      mix::xml::DocNavigable schools_doc(schools_.get());
      mix::NavStats homes_stats;
      mix::NavStats schools_stats;
      mix::CountingNavigable homes_nav(&homes_doc, &homes_stats);
      mix::CountingNavigable schools_nav(&schools_doc, &schools_stats);
      mix::mediator::SourceRegistry registry;
      registry.Register("homesSrc", &homes_nav);
      registry.Register("schoolsSrc", &schools_nav);
      auto med = mix::mediator::LazyMediator::Build(*plan.value(), registry);
      if (!med.ok()) continue;
      CommandProbe probe(med.value()->document());
      SessionResult r;
      RunProgram(
          &probe, oracle_[variant].root,
          ScanLength(SizeAxis(seed_, index), kShape), kShape, &rng,
          [] { return true; },
          [&] {
            first_answer_navs += homes_stats.total() + schools_stats.total();
          },
          &r);
      src_navs += homes_stats.total() + schools_stats.total();
      client_cmds += probe.commands();
    }
    out->counters["algebra.replayed_sessions"] = replays;
    out->counters["algebra.src_navs"] = static_cast<double>(src_navs);
    out->counters["algebra.client_cmds"] = static_cast<double>(client_cmds);
    out->counters["algebra.first_answer_src_navs"] =
        static_cast<double>(first_answer_navs);
  }

 private:
  struct Backend {
    std::unique_ptr<SessionEnvironment> env;
    std::unique_ptr<MediatorService> service;
    std::unique_ptr<mix::net::tcp::TcpServer> server;
  };

  uint64_t seed_ = 0;
  std::unique_ptr<mix::xml::Document> homes_;
  std::unique_ptr<mix::xml::Document> schools_;
  std::vector<std::string> queries_;
  std::vector<OracleAnswer> oracle_;
  std::vector<Backend> backends_;
  std::unique_ptr<mix::fleet::SessionRouter> router_;
};

}  // namespace

std::unique_ptr<Workload> MakeBrowseFleet() {
  return std::make_unique<BrowseFleet>();
}

}  // namespace perfbench
