#include "replay.h"

#include <optional>

#include "analysis/datalog_analyzer.h"
#include "analysis/fo_analyzer.h"
#include "analysis/program_optimizer.h"
#include "core/algorithmic/bounded_degree.h"
#include "datalog/compiled_engine.h"
#include "datalog/program.h"
#include "eval/compiled_eval.h"
#include "logic/parser.h"
#include "planner/canonical.h"
#include "planner/planner.h"
#include "server/http.h"
#include "server/json_value.h"
#include "structures/bulk_load.h"
#include "structures/structure_stats.h"

namespace fmtkbench {

namespace {

/// Running sums behind the per-layer counts and ratios.
struct Sums {
  double fo_requests = 0, programs = 0;
  double text_hits = 0, canonical_hits = 0, lookups = 0;
  std::map<std::string, double> routes;
  std::map<std::string, std::vector<double>> cost_error;
  double eval_runs = 0, node_visits = 0, short_circuits = 0, index_hits = 0;
  double dl_runs = 0, iterations = 0, tuples_scanned = 0, index_probes = 0;
  double tuples_new = 0, tuples_derived = 0;
  double bd_runs = 0, bfs = 0, canon_codes = 0, canon_hits = 0, iso = 0;
};

void ReplaySentenceOrQuery(const Request& r, const fmtk::Structure& s,
                           fmtk::PlanCache* cache, Tracer* t, std::uint64_t id,
                           Sums* sums) {
  const bool query_mode = r.kind == Request::Kind::kQuery;
  fmtk::Result<fmtk::Formula> parsed = fmtk::Status::Internal("unset");
  {
    ScopedSpan span(t, "logic.parse", id);
    parsed = fmtk::ParseFormula(r.text, &s.signature());
  }
  if (!parsed.ok()) return;
  {
    ScopedSpan span(t, "analysis.analyze", id);
    fmtk::FoAnalyzerOptions options;
    options.signature = &s.signature();
    options.profile =
        query_mode ? fmtk::FoProfile::kQuery : fmtk::FoProfile::kModelCheck;
    (void)fmtk::AnalyzeFormula(*parsed, options);
  }
  std::optional<fmtk::CanonicalQuery> canonical;
  {
    ScopedSpan span(t, "planner.canonicalize", id);
    canonical = fmtk::CanonicalizeQuery(*parsed, s.signature());
  }
  fmtk::Result<fmtk::CompiledFormula> compiled = fmtk::Status::Internal("unset");
  {
    ScopedSpan span(t, "eval.compile", id);
    compiled = fmtk::CompiledFormula::Compile(canonical->formula, s.signature());
  }

  fmtk::PlannerOptions options;
  options.cache = cache;
  fmtk::PlanExplanation explain;
  {
    ScopedSpan span(t, "planner.plan", id);
    fmtk::Result<fmtk::PlanExplanation> plan =
        fmtk::PlanAuto(s, r.text, query_mode, r.outputs.size(), options);
    if (plan.ok()) explain = *std::move(plan);
  }
  sums->lookups += 1;
  sums->text_hits += explain.text_cache_hit ? 1 : 0;
  sums->canonical_hits += explain.cache_hit && !explain.text_cache_hit ? 1 : 0;

  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span(t, "planner.execute", id);
    if (query_mode) {
      (void)fmtk::EvaluateQueryAuto(s, r.text, r.outputs, options, &explain);
    } else {
      (void)fmtk::EvaluateAuto(s, r.text, options, &explain);
    }
  }
  const double exec_ns = MicrosBetween(start, Clock::now()) * 1000.0;
  const std::string route = fmtk::EngineKindName(explain.chosen);
  sums->fo_requests += 1;
  sums->routes[route] += 1;
  for (const fmtk::EngineCost& cost : explain.costs) {
    if (cost.engine == explain.chosen && cost.cost > 0) {
      sums->cost_error[route].push_back(exec_ns / cost.cost);
    }
  }

  // The engine the route reached, called directly so its stats are
  // visible: the compiled evaluator for compiled sentences, the Hanf
  // histogram evaluator for bounded-degree ones.
  if (query_mode || !compiled.ok()) return;
  if (explain.chosen == fmtk::EngineKind::kCompiled ||
      explain.chosen == fmtk::EngineKind::kParallel) {
    fmtk::Result<fmtk::CompiledEvaluator> bound = fmtk::Status::Internal("unset");
    {
      ScopedSpan span(t, "eval.bind", id);
      bound = fmtk::CompiledEvaluator::Bind(*compiled, s);
    }
    if (!bound.ok()) return;
    {
      ScopedSpan span(t, "eval.evaluate", id);
      (void)bound->Evaluate();
    }
    sums->eval_runs += 1;
    sums->node_visits += static_cast<double>(bound->stats().node_visits);
    sums->short_circuits += static_cast<double>(bound->stats().short_circuits);
    sums->index_hits += static_cast<double>(bound->stats().index_hits);
  } else if (explain.chosen == fmtk::EngineKind::kBoundedDegree) {
    ScopedSpan span(t, "locality.bounded_degree", id);
    auto evaluator = fmtk::BoundedDegreeEvaluator::Create(canonical->formula);
    if (!evaluator.ok()) return;
    (void)evaluator->Evaluate(s);
    const fmtk::LocalityStats& ls = evaluator->locality_stats();
    sums->bd_runs += 1;
    sums->bfs += static_cast<double>(ls.bfs_node_visits);
    sums->canon_codes += static_cast<double>(ls.canon_codes);
    sums->canon_hits += static_cast<double>(ls.canon_hits);
    sums->iso += static_cast<double>(ls.iso_tests);
  }
}

void ReplayProgram(const Request& r, const fmtk::Structure& s,
                   fmtk::PlanCache* cache, Tracer* t, std::uint64_t id,
                   Sums* sums) {
  fmtk::Result<fmtk::DatalogProgram> program = fmtk::Status::Internal("unset");
  {
    ScopedSpan span(t, "logic.parse", id);
    program = fmtk::ParseDatalogProgram(r.text, /*validate=*/false);
  }
  if (!program.ok()) return;
  {
    ScopedSpan span(t, "analysis.analyze", id);
    fmtk::DatalogAnalyzerOptions options;
    options.signature = &s.signature();
    options.outputs = r.outputs;
    (void)fmtk::AnalyzeProgram(*program, options);
  }
  {
    ScopedSpan span(t, "analysis.optimize", id);
    fmtk::DatalogOptimizerOptions options;
    options.signature = &s.signature();
    options.outputs = r.outputs;
    (void)fmtk::OptimizeDatalogProgram(*program, options);
  }
  {
    ScopedSpan span(t, "planner.canonicalize", id);
    (void)fmtk::CanonicalizeProgram(*program);
  }
  fmtk::PlanCacheLookup lookup;
  fmtk::Result<std::shared_ptr<const fmtk::CachedDatalogPlan>> plan =
      fmtk::Status::Internal("unset");
  {
    ScopedSpan span(t, "planner.plan", id);
    fmtk::DatalogPlanOptions options;
    options.outputs = r.outputs;
    plan = cache->GetDatalogPlanFromText(r.text, s.signature(), options, &lookup);
  }
  sums->lookups += 1;
  sums->text_hits += lookup.text_hit ? 1 : 0;
  sums->canonical_hits += lookup.hit && !lookup.text_hit ? 1 : 0;

  fmtk::PlannerOptions options;
  options.cache = cache;
  options.datalog_outputs = r.outputs;
  fmtk::DatalogPlanExplanation explain;
  {
    ScopedSpan span(t, "planner.execute", id);
    (void)fmtk::EvaluateDatalogAuto(s, r.text, options, nullptr, nullptr,
                                    &explain);
  }
  sums->programs += 1;
  sums->routes["program_" + explain.route] += 1;
  if (!plan.ok() || explain.route != "datalog") return;

  fmtk::Result<fmtk::CompiledDatalogEngine> engine =
      fmtk::Status::Internal("unset");
  {
    ScopedSpan span(t, "datalog.create", id);
    engine = fmtk::CompiledDatalogEngine::Create((*plan)->ExecProgram(), s);
  }
  if (!engine.ok()) return;
  fmtk::DatalogStats stats;
  {
    ScopedSpan span(t, "datalog.evaluate", id);
    (void)engine->Evaluate(&stats);
  }
  sums->dl_runs += 1;
  sums->iterations += static_cast<double>(stats.iterations);
  sums->tuples_scanned += static_cast<double>(stats.tuples_scanned);
  sums->index_probes += static_cast<double>(stats.index_probes);
  sums->tuples_new += static_cast<double>(stats.tuples_new);
  sums->tuples_derived += static_cast<double>(stats.tuples_derived);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

LayerNumbers ReplayRequests(const Workload& w, std::size_t count,
                            Tracer* tracer) {
  fmtk::PlanCache cache;
  Sums sums;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const Request& r = w.requests[w.stream[i % w.stream.size()]];
    const fmtk::Structure* s = FindStructure(w, r.structure);
    if (s == nullptr) continue;
    const std::uint64_t id = i + 1;
    ScopedSpan request_span(tracer, "request", id);
    {
      ScopedSpan span(tracer, "server.http_parse", id);
      fmtk::HttpRequestParser parser;
      (void)parser.Parse(r.raw);
    }
    {
      ScopedSpan span(tracer, "server.json_parse", id);
      (void)fmtk::JsonValue::Parse(r.body);
    }
    if (r.kind == Request::Kind::kDatalog) {
      ReplayProgram(r, *s, &cache, tracer, id, &sums);
    } else {
      ReplaySentenceOrQuery(r, *s, &cache, tracer, id, &sums);
    }
  }
  LayerNumbers out;
  out.wall_s = SecondsBetween(start, Clock::now());
  auto& v = out.values;
  v["planner.text_hit_ratio"] = Ratio(sums.text_hits, sums.lookups);
  v["planner.canonical_hit_ratio"] = Ratio(sums.canonical_hits, sums.lookups);
  v["planner.evictions"] =
      static_cast<double>(cache.formula_stats().evictions +
                          cache.datalog_stats().evictions);
  const double total = sums.fo_requests + sums.programs;
  for (const auto& [route, n] : sums.routes) {
    v["planner.route_share." + route] = Ratio(n, total);
  }
  for (const auto& [route, errors] : sums.cost_error) {
    v["planner.cost_error." + route] = Median(errors);
  }
  v["eval.node_visits"] = Ratio(sums.node_visits, sums.eval_runs);
  v["eval.short_circuits"] = Ratio(sums.short_circuits, sums.eval_runs);
  v["eval.index_hits"] = Ratio(sums.index_hits, sums.eval_runs);
  v["datalog.iterations"] = Ratio(sums.iterations, sums.dl_runs);
  v["datalog.tuples_scanned"] = Ratio(sums.tuples_scanned, sums.dl_runs);
  v["datalog.index_probes"] = Ratio(sums.index_probes, sums.dl_runs);
  v["datalog.new_per_derived"] = Ratio(sums.tuples_new, sums.tuples_derived);
  v["locality.bfs_node_visits"] = Ratio(sums.bfs, sums.bd_runs);
  v["locality.canon_hit_ratio"] = Ratio(sums.canon_hits, sums.canon_codes);
  v["locality.iso_tests"] = Ratio(sums.iso, sums.bd_runs);
  return out;
}

LayerNumbers ReplayLoads(const Workload& w, Tracer* tracer) {
  LayerNumbers out;
  std::vector<double> bytes;
  const Clock::time_point start = Clock::now();
  std::uint64_t id = 0;
  for (const Published& p : w.structures) {
    ++id;
    std::optional<fmtk::Structure> loaded;
    {
      ScopedSpan span(tracer, "structures.load", id);
      if (p.target.find("format=bin") != std::string::npos) {
        auto parsed = fmtk::ParseStructureBinary(p.body);
        if (parsed.ok()) loaded.emplace(*std::move(parsed));
      } else {
        fmtk::EdgeListOptions options;
        options.id_mode = fmtk::EdgeListOptions::IdMode::kNumeric;
        auto parsed = fmtk::LoadEdgeListText(p.body, options);
        if (parsed.ok()) loaded.emplace(std::move(parsed->structure));
      }
    }
    if (!loaded.has_value()) continue;
    {
      ScopedSpan span(tracer, "structures.stats", id);
      (void)fmtk::ComputeStructureStats(*loaded);
    }
    bytes.push_back(static_cast<double>(p.body.size()));
  }
  out.wall_s = SecondsBetween(start, Clock::now());
  out.values["structures.load_bytes"] = Median(bytes);
  return out;
}

}  // namespace fmtkbench
