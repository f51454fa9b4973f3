// report_relational: compile-heavy full materialization over relational
// sources. Two seeded rdb tables sit behind RelationalLxpWrapper on the
// whole-database "db" view with their pushdown capability; each session
// opens an E15 scan or join query with a fresh constant, materializes the
// whole answer with one FetchSubtree, checks it against the oracle and
// closes. The service runs in-process (framed), answer views off.
#include <algorithm>
#include <iostream>

#include "rdb/database.h"
#include "trace.h"
#include "workloads.h"
#include "wrappers/relational_wrapper.h"

namespace perfbench {

namespace {

using mix::service::MediatorService;
using mix::service::SessionEnvironment;

constexpr uint64_t kSessionStream = 201;
constexpr uint64_t kDataStream = 202;
constexpr int64_t kFirstZip = 91200;

constexpr double kRate = 600;  // sessions/s
/// Every zip value occurs equally often in both tables.
constexpr int64_t kHomeRows = 256;
constexpr int64_t kSchoolRows = 128;
/// Half the sessions run the scan, half the join, each with a constant
/// drawn from kZips values: 2 * kZips distinct queries against a
/// kPlanCacheEntries-entry plan cache, so most Opens compile.
constexpr int64_t kZips = 128;
constexpr double kScanShare = 0.5;
constexpr int64_t kPlanCacheEntries = 64;
/// Pushed-down query views bypass the source cache.
constexpr int64_t kSourceCacheBytes = 1024 * 1024;

std::string ScanQuery(int64_t zip) {
  return "CONSTRUCT <hits> $R {$R} </hits> {} "
         "WHERE realty realty.homes.row $R AND $R zip._ $Z AND $Z = '" +
         std::to_string(zip) + "'";
}

std::string JoinQuery(int64_t zip) {
  const std::string z = "'" + std::to_string(zip) + "'";
  return "CONSTRUCT <pairs> <pair> $R $S {$S} </pair> {$R} </pairs> {} "
         "WHERE realty realty.homes.row $R AND $R zip._ $Z1 "
         "AND edu edu.schools.row $S AND $S zip._ $Z2 "
         "AND $Z1 = $Z2 AND $Z1 = " +
         z + " AND $Z2 = " + z;
}

/// A table of `rows` rows whose zip column holds each of `zips` values
/// equally often, in seeded order; `label` names the string column.
std::unique_ptr<mix::rdb::Database> MakeDb(const std::string& db_name,
                                           const std::string& table,
                                           const std::string& label,
                                           int64_t rows, int64_t zips,
                                           Rng* rng) {
  const std::vector<int64_t> slots = BalancedZips(rows, zips, rng);
  auto db = std::make_unique<mix::rdb::Database>(db_name);
  mix::rdb::Schema schema({{label, mix::rdb::Type::kString},
                           {"zip", mix::rdb::Type::kInt}});
  mix::rdb::Table* t = db->CreateTable(table, schema).ValueOrDie();
  for (int64_t i = 0; i < rows; ++i) {
    (void)t->Insert({mix::rdb::Value(label + " " + std::to_string(i)),
                     mix::rdb::Value(kFirstZip + slots[static_cast<size_t>(i)])});
  }
  return db;
}

/// The XML document RelationalLxpWrapper exports for `db` ("db" view):
/// <db><table><row><col>value</col>...</row>...</table></db>.
std::unique_ptr<mix::xml::Document> ExportedDocument(
    const mix::rdb::Database& db) {
  auto doc = std::make_unique<mix::xml::Document>();
  mix::xml::Node* root = doc->NewElement(db.name());
  for (const std::string& name : db.table_names()) {
    const mix::rdb::Table* table = db.GetTable(name);
    mix::xml::Node* t = doc->NewElement(name);
    for (int64_t i = 0; i < table->row_count(); ++i) {
      mix::xml::Node* row = doc->NewElement("row");
      const mix::rdb::Row& values = table->row(i);
      for (size_t c = 0; c < values.size(); ++c) {
        mix::xml::Node* col =
            doc->NewElement(table->schema().columns()[c].name);
        doc->AppendChild(col, doc->NewText(values[c].ToString()));
        doc->AppendChild(row, col);
      }
      doc->AppendChild(t, row);
    }
    doc->AppendChild(root, t);
  }
  doc->set_root(root);
  return doc;
}

class ReportRelational : public Workload {
 public:
  ~ReportRelational() override { Teardown(); }

  void Setup(uint64_t seed) override {
    Teardown();
    seed_ = seed;
    Rng data = Rng::Derive(seed, kDataStream);
    realty_ = MakeDb("realty", "homes", "addr", kHomeRows, kZips, &data);
    edu_ = MakeDb("edu", "schools", "dir", kSchoolRows, kZips, &data);
    realty_doc_ = ExportedDocument(*realty_);
    edu_doc_ = ExportedDocument(*edu_);
    const mix::mediator::ReferenceSources ref{
        {"realty", realty_doc_->root()}, {"edu", edu_doc_->root()}};
    // Every query a session can draw: scans then joins, by zip offset.
    for (int64_t z = 0; z < kZips; ++z) {
      oracle_.push_back(EvaluateOracle(ScanQuery(kFirstZip + z), ref).term);
    }
    for (int64_t z = 0; z < kZips; ++z) {
      oracle_.push_back(EvaluateOracle(JoinQuery(kFirstZip + z), ref).term);
    }

    env_ = std::make_unique<SessionEnvironment>();
    for (const auto* db : {realty_.get(), edu_.get()}) {
      SessionEnvironment::WrapperOptions wo;
      wo.capability = mix::wrappers::RelationalLxpWrapper(db).Capability();
      env_->RegisterWrapperFactory(
          db->name(),
          [db, tally = &sources_]()
              -> std::unique_ptr<mix::buffer::LxpWrapper> {
            auto inner =
                std::make_unique<mix::wrappers::RelationalLxpWrapper>(db);
            const auto* alias = inner.get();
            return std::make_unique<SourceWrapper>(std::move(inner), tally, 0,
                                                   alias);
          },
          "db", wo);
    }
    MediatorService::Options so;
    so.workers = kServiceWorkers;
    so.queue_capacity = 1024;
    so.source_cache_bytes = kSourceCacheBytes;
    so.plan_cache_entries = kPlanCacheEntries;
    so.answer_view_cache_bytes = 0;
    service_ = std::make_unique<MediatorService>(env_.get(), so);
  }

  void Teardown() override {
    service_.reset();
    env_.reset();
    oracle_.clear();
    realty_doc_.reset();
    edu_doc_.reset();
    realty_.reset();
    edu_.reset();
  }

  double rate() const override { return kRate; }

  std::unique_ptr<ClientState> NewClient() override {
    return std::make_unique<FramedClient>(service_.get());
  }

  SessionResult RunSession(ClientState* state, uint64_t index,
                           double u) override {
    const size_t q = QueryFor(index, u);
    return MaterializeSession(static_cast<FramedClient*>(state),
                              service_.get(), QueryText(q), oracle_[q],
                              &harvest_);
  }

  CounterSnapshot Snapshot() override {
    CounterSnapshot s;
    AddServiceCounters(service_->Metrics(), &s);
    harvest_.AddTo(&s);
    s.gauges["buffer.cache_budget_bytes"] = static_cast<double>(kSourceCacheBytes);
    return s;
  }

  void MeasureLayersDirectly(CounterSnapshot* out) override {
    std::vector<std::string> texts;
    for (uint64_t i = 0; i < 200; ++i) {
      texts.push_back(QueryText(QueryFor(i, SizeAxis(seed_, i))));
    }
    MeasureCompiles(texts, OptimizerFor(*env_), out);
  }

 private:
  /// Shape from the size axis (scan below kScanShare), constant uniform.
  size_t QueryFor(uint64_t index, double u) const {
    Rng rng = Rng::Derive(seed_, kSessionStream, index);
    const auto zip = static_cast<size_t>(rng.Below(kZips));
    return u < kScanShare ? zip : static_cast<size_t>(kZips) + zip;
  }

  std::string QueryText(size_t q) const {
    const auto zips = static_cast<size_t>(kZips);
    return q < zips ? ScanQuery(kFirstZip + static_cast<int64_t>(q))
                    : JoinQuery(kFirstZip + static_cast<int64_t>(q - zips));
  }

  uint64_t seed_ = 0;
  std::unique_ptr<mix::rdb::Database> realty_;
  std::unique_ptr<mix::rdb::Database> edu_;
  std::unique_ptr<mix::xml::Document> realty_doc_;
  std::unique_ptr<mix::xml::Document> edu_doc_;
  std::vector<std::string> oracle_;
  std::unique_ptr<SessionEnvironment> env_;
  std::unique_ptr<MediatorService> service_;
  SessionHarvest harvest_;
};

}  // namespace

std::unique_ptr<Workload> MakeReportRelational() {
  return std::make_unique<ReportRelational>();
}

}  // namespace perfbench
