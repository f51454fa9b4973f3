#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "mediator/translate.h"
#include "trace.h"
#include "workloads.h"
#include "xml/materialize.h"

namespace perfbench {

namespace {

mix::mediator::ColumnType Convert(
    mix::buffer::PushdownCapability::ColumnType t) {
  switch (t) {
    case mix::buffer::PushdownCapability::ColumnType::kInt:
      return mix::mediator::ColumnType::kInt;
    case mix::buffer::PushdownCapability::ColumnType::kDouble:
      return mix::mediator::ColumnType::kDouble;
    case mix::buffer::PushdownCapability::ColumnType::kString:
      return mix::mediator::ColumnType::kString;
  }
  return mix::mediator::ColumnType::kString;
}

std::unique_ptr<mix::xml::Document> MakeZipDoc(const char* root_tag,
                                              const char* item_tag,
                                              const char* field_tag,
                                              const std::string& field_text,
                                              int n, int zips, Rng* rng) {
  const std::vector<int64_t> slots = BalancedZips(n, zips, rng);
  auto doc = std::make_unique<mix::xml::Document>();
  mix::xml::Node* root = doc->NewElement(root_tag);
  for (int i = 0; i < n; ++i) {
    mix::xml::Node* item = doc->NewElement(item_tag);
    mix::xml::Node* field = doc->NewElement(field_tag);
    doc->AppendChild(field, doc->NewText(field_text + std::to_string(i)));
    mix::xml::Node* zip = doc->NewElement("zip");
    doc->AppendChild(
        zip, doc->NewText(std::to_string(91000 + slots[static_cast<size_t>(i)])));
    doc->AppendChild(item, field);
    doc->AppendChild(item, zip);
    doc->AppendChild(root, item);
  }
  doc->set_root(root);
  return doc;
}

}  // namespace

std::vector<int64_t> BalancedZips(int64_t n, int64_t zips, Rng* rng) {
  std::vector<int64_t> slots(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) slots[static_cast<size_t>(i)] = i % zips;
  for (size_t i = slots.size(); i > 1; --i) {
    std::swap(slots[i - 1], slots[rng->Below(i)]);
  }
  return slots;
}

std::unique_ptr<mix::xml::Document> MakeHomesDoc(int n, int zips, Rng* rng) {
  return MakeZipDoc("homes", "home", "addr", "street ", n, zips, rng);
}

std::unique_ptr<mix::xml::Document> MakeSchoolsDoc(int n, int zips,
                                                   Rng* rng) {
  return MakeZipDoc("schools", "school", "dir", "director ", n, zips, rng);
}

std::string Fig3Query(const std::string& root) {
  return "CONSTRUCT <" + root +
         "> <med_home> $H $S {$S} </med_home> {$H} </" + root +
         "> {} WHERE homesSrc homes.home $H AND $H zip._ $V1 "
         "AND schoolsSrc schools.school $S AND $S zip._ $V2 "
         "AND $V1 = $V2";
}

int ScanLength(double u, const ProgramShape& shape) {
  const double k = std::floor(std::pow(1.0 - u, -1.0 / shape.scan_alpha));
  return static_cast<int>(std::min<double>(k, shape.scan_cap));
}

bool RunProgram(mix::Navigable* doc, const mix::xml::Node* ref, int scan,
                const ProgramShape& shape, Rng* rng,
                const std::function<bool()>& healthy,
                const std::function<void()>& on_first_answer,
                SessionResult* r) {
  auto fail = [r](const std::string& what) {
    r->ok = false;
    r->problem = what;
    return false;
  };
  // Checks presence against the oracle and, when present, the label.
  auto check = [&](const std::optional<mix::NodeId>& got,
                   const mix::xml::Node* want, const char* what) {
    if (!healthy()) return fail(std::string(what) + " failed");
    if (got.has_value() != (want != nullptr)) {
      return fail(std::string(what) + ": presence differs");
    }
    if (!got.has_value()) return true;
    const mix::Label label = doc->Fetch(*got);
    if (!healthy()) return fail("fetch failed");
    if (label != want->label) {
      return fail(std::string(what) + ": label " + label + " != " +
                            want->label);
    }
    return true;
  };

  const mix::NodeId root = doc->Root();
  if (!healthy()) return fail("root failed");
  std::optional<mix::NodeId> cur = doc->Down(root);
  const mix::xml::Node* want = ref->first_child();
  if (!check(cur, want, "down to first med_home")) return false;
  if (!cur.has_value()) return true;
  on_first_answer();
  for (int i = 0; i < scan; ++i) {
    if (rng->Chance(shape.descend_p)) {
      if (!check(doc->Down(*cur), want->first_child(), "down")) return false;
      // Jumps land on children that exist, as a client jumping to listed
      // positions would. (Probing past the end makes the lazy groupBy
      // prove the group complete by scanning the rest of the join input,
      // a cost that would swamp everything else in the session.)
      for (int j = 0; j < shape.nth_jumps && !want->children.empty(); ++j) {
        const size_t idx = rng->Below(want->children.size());
        if (!check(doc->NthChild(*cur, static_cast<int64_t>(idx)),
                   want->children[idx], "nth_child")) {
          return false;
        }
      }
    }
    std::optional<mix::NodeId> next = doc->Right(*cur);
    const mix::xml::Node* want_next = want->right_sibling();
    if (!check(next, want_next, "right")) return false;
    if (!next.has_value()) break;
    cur = next;
    want = want_next;
  }
  return true;
}

OracleAnswer EvaluateOracle(const std::string& xmas_text,
                            const mix::mediator::ReferenceSources& sources) {
  OracleAnswer a;
  a.scratch = std::make_unique<mix::xml::Document>();
  auto plan = mix::mediator::CompileXmas(xmas_text);
  if (!plan.ok()) {
    std::cerr << "oracle: cannot compile: " << plan.status().ToString()
              << "\n" << xmas_text << "\n";
    std::exit(3);
  }
  auto root = mix::mediator::EvaluateReference(*plan.value(), sources,
                                               a.scratch.get());
  if (!root.ok()) {
    std::cerr << "oracle: " << root.status().ToString() << "\n";
    std::exit(3);
  }
  a.root = root.value();
  a.term = mix::xml::ToTerm(a.root);
  return a;
}

void AddServiceCounters(const mix::service::ServiceMetricsSnapshot& s,
                        CounterSnapshot* out) {
  auto add = [out](const char* name, int64_t v) {
    out->counters[name] += static_cast<double>(v);
  };
  add("service.requests_ok", s.requests_ok);
  add("service.requests_error", s.requests_error);
  add("service.requests_rejected", s.requests_rejected);
  add("service.requests_expired", s.requests_expired);
  add("service.wire_bytes", s.wire.bytes);
  add("mediator.plan_cache_hits", s.plan_cache_hits);
  add("mediator.plan_cache_misses", s.plan_cache_misses);
  add("mediator.view_hits", s.view_hits);
  add("mediator.view_misses", s.view_misses);
  add("mediator.view_publishes", s.view_publishes);
  add("mediator.view_invalidations", s.view_invalidations);
  int64_t rejects = 0;
  for (const auto& [reason, n] : s.view_rejects) rejects += n;
  add("mediator.view_rejects", rejects);
  add("buffer.cache_hits", s.cache_hits);
  add("buffer.cache_misses", s.cache_misses);
  add("buffer.cache_evictions", s.cache_evictions);
  add("service.prefetch_fills", s.prefetch_fills);
  add("service.prefetch_jobs", s.prefetch_jobs);
  add("service.prefetch_exchanges", s.prefetch_exchanges);
  add("tcp.frames_in", s.net.frames_in);
  add("tcp.frames_out", s.net.frames_out);
  add("tcp.rx_bytes", s.net.rx_bytes);
  add("tcp.tx_bytes", s.net.tx_bytes);
  add("tcp.partial_reads", s.net.partial_reads);
  add("tcp.backpressure_stalls", s.net.backpressure_stalls);
  add("tcp.read_pauses", s.net.read_pauses);
  auto& g = out->gauges;
  g["service.p50_ns"] =
      std::max(g["service.p50_ns"], static_cast<double>(s.p50_ns));
  g["service.p99_ns"] =
      std::max(g["service.p99_ns"], static_cast<double>(s.p99_ns));
  g["buffer.cache_peak_bytes"] += static_cast<double>(s.cache_peak_bytes);
}

void SessionHarvest::Harvest(mix::service::MediatorService* service,
                             uint64_t id) {
  std::shared_ptr<mix::service::Session> s = service->registry().Find(id);
  if (s == nullptr) return;
  // No command of this session is in flight: the client waits for each
  // reply, so the buffers are quiescent here.
  s->RefreshSourceMetrics();
  const mix::service::SessionMetrics& m = s->metrics();
  sessions.fetch_add(1);
  fills.fetch_add(m.fills);
  readahead_issued.fetch_add(m.readahead_issued);
  readahead_hits.fetch_add(m.readahead_hits);
  readahead_fallbacks.fetch_add(m.readahead_fallbacks);
  pushed_applied.fetch_add(m.pushed_applied);
  pushed_dropped.fetch_add(m.pushed_dropped);
  view_served.fetch_add(m.view_served);
}

void SessionHarvest::AddTo(CounterSnapshot* out) const {
  auto& c = out->counters;
  c["session.harvested"] = static_cast<double>(sessions.load());
  c["session.fills"] = static_cast<double>(fills.load());
  c["session.readahead_issued"] = static_cast<double>(readahead_issued.load());
  c["session.readahead_hits"] = static_cast<double>(readahead_hits.load());
  c["session.readahead_fallbacks"] =
      static_cast<double>(readahead_fallbacks.load());
  c["session.pushed_applied"] = static_cast<double>(pushed_applied.load());
  c["session.pushed_dropped"] = static_cast<double>(pushed_dropped.load());
  c["session.view_served"] = static_cast<double>(view_served.load());
}

mix::mediator::passes::OptimizerOptions OptimizerFor(
    const mix::service::SessionEnvironment& env) {
  mix::mediator::passes::OptimizerOptions opts;
  for (const auto& w : env.wrappers()) {
    const mix::buffer::PushdownCapability& probed = w.options.capability;
    mix::mediator::SourceCapability cap;
    cap.sigma = probed.sigma;
    if (probed.pushdown && w.uri == "db") {
      cap.pushdown = true;
      cap.database = probed.database;
      for (const auto& [table, cols] : probed.tables) {
        for (const auto& c : cols) {
          cap.tables[table].push_back({c.name, Convert(c.type)});
        }
      }
    }
    if (cap.sigma || cap.pushdown) opts.sources[w.name] = cap;
  }
  return opts;
}

void MeasureCompiles(const std::vector<std::string>& texts,
                     const mix::mediator::passes::OptimizerOptions& options,
                     CounterSnapshot* out) {
  int64_t compiles = 0;
  int64_t rewrites = 0;
  for (const std::string& text : texts) {
    ScopedSpan span("mediator.compile");
    auto plan = mix::mediator::CompileXmas(text);
    if (!plan.ok()) continue;
    auto report = mix::mediator::passes::OptimizePlan(&plan.value(), options);
    ++compiles;
    if (report.ok()) rewrites += report.value().total();
  }
  out->counters["mediator.compiles"] += static_cast<double>(compiles);
  out->counters["mediator.compile_rewrites"] += static_cast<double>(rewrites);
}

SessionResult BrowseSession(mix::service::wire::FrameTransport* transport,
                            const std::string& xmas_text,
                            const mix::xml::Node* expected, int scan,
                            const ProgramShape& shape, Rng* rng,
                            mix::service::MediatorService* service,
                            SessionHarvest* harvest) {
  SessionResult r;
  auto opened = mix::client::FramedDocument::Open(transport, xmas_text);
  if (!opened.ok()) {
    r.ok = false;
    r.problem = "open: " + opened.status().ToString();
    return r;
  }
  mix::client::FramedDocument* doc = opened.value().get();
  RunProgram(
      doc, expected, scan, shape, rng,
      [doc] { return doc->last_status().ok(); },
      [&r] { r.first_answer_ns = NowNs(); }, &r);
  if (service != nullptr && Tracer::enabled()) {
    harvest->Harvest(service, doc->session_id());
  }
  mix::Status closed = doc->Close();
  if (r.ok && !closed.ok()) {
    r.ok = false;
    r.problem = "close: " + closed.ToString();
  }
  return r;
}

SessionResult MaterializeSession(FramedClient* client,
                                 mix::service::MediatorService* service,
                                 const std::string& xmas_text,
                                 const std::string& expected_term,
                                 SessionHarvest* harvest) {
  SessionResult r;
  auto opened = mix::client::FramedDocument::Open(&client->transport,
                                                  xmas_text);
  if (!opened.ok()) {
    r.ok = false;
    r.problem = "open: " + opened.status().ToString();
    return r;
  }
  mix::client::FramedDocument* doc = opened.value().get();
  mix::xml::Document out;
  const mix::xml::Node* answer = nullptr;
  {
    ScopedSpan span("client.materialize");
    answer = mix::xml::MaterializeInto(doc, &out);
  }
  r.first_answer_ns = client->tally.last_done_ns;
  if (!doc->last_status().ok()) {
    r.ok = false;
    r.problem = "materialize: " + doc->last_status().ToString();
  } else if (mix::xml::ToTerm(answer) != expected_term) {
    r.ok = false;
    r.problem = "answer differs from the oracle";
  }
  if (Tracer::enabled()) harvest->Harvest(service, doc->session_id());
  mix::Status closed = doc->Close();
  if (r.ok && !closed.ok()) {
    r.ok = false;
    r.problem = "close: " + closed.ToString();
  }
  return r;
}

}  // namespace perfbench
