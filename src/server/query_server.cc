#include "server/query_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <utility>

#include "analysis/datalog_analyzer.h"
#include "analysis/fo_analyzer.h"
#include "base/json_out.h"
#include "datalog/program.h"
#include "logic/parser.h"
#include "server/json_value.h"
#include "structures/bulk_load.h"
#include "structures/io.h"
#include "structures/structure_stats.h"

namespace fmtk {

namespace {

std::int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

HttpResponse JsonError(int status, std::string_view message,
                       std::string_view diagnostics_json = {}) {
  std::string body = "{\"error\":";
  JsonAppendString(body, message);
  if (!diagnostics_json.empty()) {
    body += ",\"diagnostics\":";
    body += diagnostics_json;
  }
  body += "}\n";
  return HttpResponse::Json(status, std::move(body));
}

/// Maps an engine Status to the HTTP status of an error response.
int HttpStatusFor(const Status& s) {
  switch (s.code()) {
    case StatusCode::kParseError:
      return 400;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kUnsupported:
      return 422;
    default:
      return 422;
  }
}

void AppendStructureStatsJson(std::string& out, std::string_view name,
                              const StructureStats& stats,
                              std::uint64_t server_generation) {
  out += "{\"name\":";
  JsonAppendString(out, name);
  out += ",\"generation\":" + std::to_string(server_generation);
  out += ",\"domain_size\":" + std::to_string(stats.domain_size);
  out += ",\"tuple_count\":" + std::to_string(stats.tuple_count);
  out += ",\"relation_count\":" + std::to_string(stats.relation_count);
  out += ",\"max_degree\":" + std::to_string(stats.max_degree);
  out += ",\"avg_degree\":" + JsonNumber(stats.avg_degree);
  out += ",\"components\":" + std::to_string(stats.component_count);
  out += "}";
}

/// Serializes a relation's rows as [[e,...],...], capped at `max_rows`.
void AppendRelationRowsJson(std::string& out, const Relation& relation,
                            std::size_t max_rows) {
  const std::size_t n = std::min(relation.size(), max_rows);
  out += "\"row_count\":" + std::to_string(relation.size());
  out += ",\"truncated\":";
  out += relation.size() > max_rows ? "true" : "false";
  out += ",\"rows\":[";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += ',';
    out += '[';
    const Element* row = relation.TupleData(i);
    for (std::size_t c = 0; c < relation.arity(); ++c) {
      if (c > 0) out += ',';
      out += std::to_string(row[c]);
    }
    out += ']';
  }
  out += ']';
}

/// FO diagnostics for an error response: re-runs parse + analysis with a
/// sink so the client gets the structured FMTK0xx list, not just the
/// Status message. Error paths only — admitted requests never pay this.
std::string FoDiagnosticsJson(std::string_view text, const Structure& s,
                              bool query_mode) {
  auto parsed = ParseFormulaWithSpans(text, &s.signature());
  if (!parsed.ok()) return {};
  FoAnalyzerOptions options;
  options.signature = &s.signature();
  options.spans = &parsed->spans;
  options.profile = query_mode ? FoProfile::kQuery : FoProfile::kModelCheck;
  const FoAnalysis analysis = AnalyzeFormula(parsed->formula, options);
  return analysis.diagnostics.ToJson();
}

}  // namespace

// --- Heavy lane -------------------------------------------------------------

class QueryServer::HeavyLaneTicket {
 public:
  HeavyLaneTicket(QueryServer* server, bool heavy) : server_(server) {
    if (!heavy) return;
    const AdmissionPolicy& policy = server_->options_.admission;
    std::unique_lock<std::mutex> lock(server_->heavy_mu_);
    if (server_->heavy_running_ >= policy.heavy_concurrency) {
      if (server_->heavy_waiting_ >= policy.heavy_max_waiting) {
        rejected_ = true;
        return;
      }
      ++server_->heavy_waiting_;
      server_->heavy_cv_.wait(lock, [&] {
        return server_->heavy_running_ < policy.heavy_concurrency;
      });
      --server_->heavy_waiting_;
    }
    ++server_->heavy_running_;
    held_ = true;
  }

  ~HeavyLaneTicket() {
    if (!held_) return;
    {
      std::lock_guard<std::mutex> lock(server_->heavy_mu_);
      --server_->heavy_running_;
    }
    server_->heavy_cv_.notify_one();
  }

  HeavyLaneTicket(const HeavyLaneTicket&) = delete;
  HeavyLaneTicket& operator=(const HeavyLaneTicket&) = delete;

  bool rejected() const { return rejected_; }
  bool heavy() const { return held_; }

 private:
  QueryServer* server_;
  bool held_ = false;
  bool rejected_ = false;
};

// --- Registry ---------------------------------------------------------------

QueryServer::QueryServer(QueryServerOptions options)
    : options_(std::move(options)) {}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  if (http_ != nullptr) return Status::InvalidArgument("server already started");
  http_ = std::make_unique<HttpServer>(
      options_.http,
      [this](const HttpRequest& request) { return Handle(request); });
  Status s = http_->Start();
  if (!s.ok()) http_.reset();
  return s;
}

void QueryServer::Stop() {
  if (http_ != nullptr) {
    http_->Stop();
    http_.reset();
  }
}

std::uint16_t QueryServer::port() const {
  return http_ == nullptr ? 0 : http_->port();
}

std::uint64_t QueryServer::PutStructure(std::string name, Structure structure,
                                        std::string source) {
  auto shared = std::make_shared<const Structure>(std::move(structure));
  const std::uint64_t generation =
      next_generation_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> lock(registry_mu_);
  RegistryEntry& entry = registry_[std::move(name)];
  entry.structure = std::move(shared);
  entry.generation = generation;
  entry.source = std::move(source);
  return generation;
}

std::shared_ptr<const Structure> QueryServer::GetStructure(
    std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  auto it = registry_.find(name);
  return it == registry_.end() ? nullptr : it->second.structure;
}

bool QueryServer::DropStructure(std::string_view name) {
  std::unique_lock<std::shared_mutex> lock(registry_mu_);
  auto it = registry_.find(name);
  if (it == registry_.end()) return false;
  registry_.erase(it);
  return true;
}

std::vector<std::string> QueryServer::StructureNames() const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  std::vector<std::string> names;
  names.reserve(registry_.size());
  for (const auto& [name, entry] : registry_) names.push_back(name);
  return names;
}

QueryServer::Stats QueryServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

HttpServer::Stats QueryServer::http_stats() const {
  return http_ == nullptr ? HttpServer::Stats{} : http_->stats();
}

// --- Routing ----------------------------------------------------------------

HttpResponse QueryServer::Handle(const HttpRequest& request) {
  HttpResponse response;
  const std::string_view path = request.path;
  if (path == "/healthz" && request.method == "GET") {
    response = HttpResponse::Json(200, "{\"ok\":true}\n");
  } else if (path == "/stats" && request.method == "GET") {
    response = HandleStats();
  } else if (path == "/structures" && request.method == "GET") {
    response = HandleStructures();
  } else if (path.rfind("/structure/", 0) == 0) {
    const std::string_view name = path.substr(11);
    if (name.empty() || name.size() > 128 ||
        name.find('/') != std::string_view::npos) {
      response = JsonError(400, "bad structure name");
    } else if (request.method == "PUT") {
      response = HandlePutStructure(request, name);
    } else if (request.method == "GET") {
      response = HandleGetStructure(name);
    } else if (request.method == "DELETE") {
      response = HandleDeleteStructure(name);
    } else {
      response = JsonError(405, "method not allowed");
    }
  } else if (path == "/query") {
    response = request.method == "POST" ? HandleQuery(request)
                                        : JsonError(405, "POST required");
  } else if (path == "/datalog") {
    response = request.method == "POST" ? HandleDatalog(request)
                                        : JsonError(405, "POST required");
  } else {
    response = JsonError(404, "no such endpoint");
  }
  if (response.status >= 400) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.errors;
  }
  return response;
}

// --- /query -----------------------------------------------------------------

HttpResponse QueryServer::HandleQuery(const HttpRequest& request) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.queries;
  }
  auto body = JsonValue::Parse(request.body);
  if (!body.ok()) return JsonError(400, body.status().message());
  if (!body->is_object()) return JsonError(400, "request body must be a JSON object");

  const auto structure_name = body->FindString("structure");
  const auto query_text = body->FindString("query");
  if (!structure_name) return JsonError(400, "missing string field 'structure'");
  if (!query_text) return JsonError(400, "missing string field 'query'");

  std::vector<std::string> outputs;
  bool query_mode = false;
  if (const JsonValue* array = body->Find("outputs"); array != nullptr) {
    if (!array->is_array()) return JsonError(400, "'outputs' must be an array");
    query_mode = true;
    for (const JsonValue& item : array->array_items()) {
      if (!item.is_string()) {
        return JsonError(400, "'outputs' must hold variable names");
      }
      outputs.push_back(item.string_value());
    }
  }

  PlannerOptions planner = options_.planner;
  if (const auto engine = body->FindString("engine")) {
    const auto kind = ParseEngineKind(*engine);
    if (!kind) return JsonError(400, "unknown engine '" + *engine + "'");
    planner.force_engine = kind;
  }
  const bool want_explain = body->FindBool("explain").value_or(false);
  std::size_t max_rows = options_.max_response_rows;
  if (const auto requested = body->FindNumber("max_rows")) {
    if (*requested >= 0 && *requested < static_cast<double>(max_rows)) {
      max_rows = static_cast<std::size_t>(*requested);
    }
  }

  const std::shared_ptr<const Structure> structure =
      GetStructure(*structure_name);
  if (structure == nullptr) {
    return JsonError(404, "no structure named '" + *structure_name + "'");
  }

  // Plan once: the routed plan prices the request for admission (plan-cache
  // backed, no execution) and is the very plan that runs, so the engine
  // admitted is the engine executed — a forced engine is priced by its own
  // row of the same cost table.
  auto routed = PrepareAuto(*structure, *query_text, query_mode,
                            outputs.size(), planner);
  if (!routed.ok()) {
    return JsonError(HttpStatusFor(routed.status()), routed.status().message(),
                     FoDiagnosticsJson(*query_text, *structure, query_mode));
  }
  const AdmissionPolicy& policy = options_.admission;
  const FoAnalysis& measures = routed->plan->analysis;
  const double cost_units = routed->ChosenCost();
  const double estimated_rows =
      query_mode ? std::pow(static_cast<double>(structure->domain_size()),
                            static_cast<double>(outputs.size()))
                 : 1.0;
  std::string rejection;
  if (policy.max_quantifier_rank > 0 &&
      measures.quantifier_rank > policy.max_quantifier_rank) {
    rejection = "quantifier rank " + std::to_string(measures.quantifier_rank) +
                " exceeds budget " + std::to_string(policy.max_quantifier_rank);
  } else if (policy.max_variable_width > 0 &&
             measures.variable_width > policy.max_variable_width) {
    rejection = "variable width " + std::to_string(measures.variable_width) +
                " exceeds budget " + std::to_string(policy.max_variable_width);
  } else if (policy.max_node_count > 0 &&
             measures.node_count > policy.max_node_count) {
    rejection = "formula size " + std::to_string(measures.node_count) +
                " exceeds budget " + std::to_string(policy.max_node_count);
  } else if (policy.max_cost_units > 0 && cost_units > policy.max_cost_units) {
    rejection = "estimated cost " + JsonNumber(cost_units) +
                " exceeds budget " + JsonNumber(policy.max_cost_units);
  } else if (policy.max_estimated_rows > 0 &&
             estimated_rows > policy.max_estimated_rows) {
    rejection = "estimated rows " + JsonNumber(estimated_rows) +
                " exceeds budget " + JsonNumber(policy.max_estimated_rows);
  }
  if (!rejection.empty()) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.admission_rejected;
    }
    std::string body_out = "{\"error\":\"request rejected by admission control\"";
    body_out += ",\"admission\":{\"rejected\":true,\"reason\":";
    JsonAppendString(body_out, rejection);
    body_out += ",\"cost_units\":" + JsonNumber(cost_units);
    body_out += ",\"quantifier_rank\":" + std::to_string(measures.quantifier_rank);
    body_out += ",\"variable_width\":" + std::to_string(measures.variable_width);
    body_out += ",\"node_count\":" + std::to_string(measures.node_count);
    body_out += ",\"estimated_rows\":" + JsonNumber(estimated_rows);
    body_out += "}}\n";
    return HttpResponse::Json(429, std::move(body_out));
  }

  const bool heavy =
      policy.heavy_cost_units > 0 && cost_units >= policy.heavy_cost_units;
  HeavyLaneTicket ticket(this, heavy);
  if (ticket.rejected()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.heavy_lane_rejected;
    return JsonError(429, "heavy lane saturated, retry later");
  }
  if (ticket.heavy()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.heavy_lane_entries;
  }

  const std::int64_t started = NowMicros();
  std::string body_out = "{";
  body_out += "\"structure\":";
  JsonAppendString(body_out, *structure_name);
  body_out += ",\"query\":";
  JsonAppendString(body_out, *query_text);
  if (!query_mode) {
    auto verdict = RunSentence(*structure, *routed);
    if (!verdict.ok()) {
      return JsonError(HttpStatusFor(verdict.status()),
                       verdict.status().message(),
                       FoDiagnosticsJson(*query_text, *structure, query_mode));
    }
    body_out += ",\"result\":";
    body_out += *verdict ? "true" : "false";
  } else {
    auto rows = RunQuery(*structure, *routed, outputs);
    if (!rows.ok()) {
      return JsonError(HttpStatusFor(rows.status()), rows.status().message(),
                       FoDiagnosticsJson(*query_text, *structure, query_mode));
    }
    body_out += ",\"columns\":[";
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      if (i > 0) body_out += ',';
      JsonAppendString(body_out, outputs[i]);
    }
    body_out += "],";
    AppendRelationRowsJson(body_out, *rows, max_rows);
  }
  const std::int64_t wall_us = NowMicros() - started;

  body_out += ",\"engine\":";
  JsonAppendString(body_out, EngineKindName(routed->chosen));
  body_out += ",\"cache_hit\":";
  body_out += routed->lookup.hit ? "true" : "false";
  body_out += ",\"wall_us\":" + std::to_string(wall_us);
  body_out += ",\"admission\":{\"cost_units\":" + JsonNumber(cost_units);
  body_out += ",\"lane\":\"";
  body_out += ticket.heavy() ? "heavy" : "fast";
  body_out += "\"}";
  if (want_explain) {
    body_out += ",\"explain\":";
    body_out += routed->Explain().ToJson();
  }
  body_out += "}\n";
  return HttpResponse::Json(200, std::move(body_out));
}

// --- /datalog ---------------------------------------------------------------

HttpResponse QueryServer::HandleDatalog(const HttpRequest& request) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.datalog_queries;
  }
  auto body = JsonValue::Parse(request.body);
  if (!body.ok()) return JsonError(400, body.status().message());
  if (!body->is_object()) return JsonError(400, "request body must be a JSON object");

  const auto structure_name = body->FindString("structure");
  const auto program_text = body->FindString("program");
  if (!structure_name) return JsonError(400, "missing string field 'structure'");
  if (!program_text) return JsonError(400, "missing string field 'program'");

  std::vector<std::string> outputs;
  if (const JsonValue* array = body->Find("outputs"); array != nullptr) {
    if (!array->is_array()) return JsonError(400, "'outputs' must be an array");
    for (const JsonValue& item : array->array_items()) {
      if (!item.is_string()) {
        return JsonError(400, "'outputs' must hold predicate names");
      }
      outputs.push_back(item.string_value());
    }
  }
  std::size_t max_rows = options_.max_response_rows;
  if (const auto requested = body->FindNumber("max_rows")) {
    if (*requested >= 0 && *requested < static_cast<double>(max_rows)) {
      max_rows = static_cast<std::size_t>(*requested);
    }
  }

  const std::shared_ptr<const Structure> structure =
      GetStructure(*structure_name);
  if (structure == nullptr) {
    return JsonError(404, "no structure named '" + *structure_name + "'");
  }

  // Admission: parse + static analysis (rule count, recursion shape,
  // estimated IDB rows) before any fixpoint work.
  auto program = ParseDatalogProgram(*program_text, /*validate=*/false);
  if (!program.ok()) return JsonError(400, program.status().message());
  DatalogAnalyzerOptions analyzer_options;
  analyzer_options.signature = &structure->signature();
  analyzer_options.outputs = outputs;
  const DatalogAnalysis analysis = AnalyzeProgram(*program, analyzer_options);
  if (!analysis.ok()) {
    return JsonError(422, analysis.status().message(),
                     analysis.diagnostics.ToJson());
  }

  const AdmissionPolicy& policy = options_.admission;
  bool recursive = false;
  bool nonlinear = false;
  for (const DatalogSccInfo& scc : analysis.sccs) {
    recursive = recursive || scc.recursive;
    nonlinear = nonlinear || (scc.recursive && !scc.linear);
  }
  // Coarse output-size bound: each IDB predicate holds at most n^arity
  // tuples (arity read off the first defining rule head).
  double estimated_rows = 0.0;
  const double n = static_cast<double>(structure->domain_size());
  std::map<std::string, std::size_t> arity;
  for (const DlRule& rule : program->rules()) {
    arity.emplace(rule.head.predicate, rule.head.terms.size());
  }
  for (const auto& [predicate, a] : arity) {
    estimated_rows += std::pow(n, static_cast<double>(a));
  }
  std::string rejection;
  if (policy.max_datalog_rules > 0 &&
      program->rules().size() > policy.max_datalog_rules) {
    rejection = "program has " + std::to_string(program->rules().size()) +
                " rules, budget " + std::to_string(policy.max_datalog_rules);
  } else if (policy.reject_recursion && recursive) {
    rejection = "recursive programs are not admitted";
  } else if (policy.reject_nonlinear_recursion && nonlinear) {
    rejection = "nonlinear recursion is not admitted";
  } else if (policy.max_estimated_rows > 0 &&
             estimated_rows > policy.max_estimated_rows) {
    rejection = "estimated IDB rows " + JsonNumber(estimated_rows) +
                " exceeds budget " + JsonNumber(policy.max_estimated_rows);
  }
  if (!rejection.empty()) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.admission_rejected;
    }
    std::string body_out = "{\"error\":\"request rejected by admission control\"";
    body_out += ",\"admission\":{\"rejected\":true,\"reason\":";
    JsonAppendString(body_out, rejection);
    body_out += ",\"rules\":" + std::to_string(program->rules().size());
    body_out += ",\"recursive\":";
    body_out += recursive ? "true" : "false";
    body_out += ",\"nonlinear\":";
    body_out += nonlinear ? "true" : "false";
    body_out += ",\"estimated_rows\":" + JsonNumber(estimated_rows);
    body_out += "}}\n";
    return HttpResponse::Json(429, std::move(body_out));
  }

  // Recursive fixpoints ride the heavy lane when one is configured: their
  // cost is unbounded by any static per-request measure, which is exactly
  // what the lane exists to contain.
  const bool heavy = policy.heavy_cost_units > 0 && recursive;
  HeavyLaneTicket ticket(this, heavy);
  if (ticket.rejected()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.heavy_lane_rejected;
    return JsonError(429, "heavy lane saturated, retry later");
  }
  if (ticket.heavy()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.heavy_lane_entries;
  }

  DatalogStats dstats;
  PlanCacheLookup lookup;
  DatalogPlanExplanation plan_explanation;
  // The request's outputs are the optimizer's liveness/demand roots (the
  // same set FMTK106 reports against), so the planner can drop dead rules
  // and specialize with magic sets relative to what this request asked for.
  PlannerOptions planner_options = options_.planner;
  planner_options.datalog_outputs = outputs;
  const std::int64_t started = NowMicros();
  auto relations =
      EvaluateDatalogAuto(*structure, *program_text, planner_options, &dstats,
                          &lookup, &plan_explanation);
  const std::int64_t wall_us = NowMicros() - started;
  if (!relations.ok()) {
    return JsonError(HttpStatusFor(relations.status()),
                     relations.status().message(),
                     analysis.diagnostics.ToJson());
  }

  std::string body_out = "{\"structure\":";
  JsonAppendString(body_out, *structure_name);
  body_out += ",\"relations\":{";
  bool first = true;
  for (const auto& [predicate, relation] : *relations) {
    if (!outputs.empty() &&
        std::find(outputs.begin(), outputs.end(), predicate) ==
            outputs.end()) {
      continue;
    }
    if (!first) body_out += ',';
    first = false;
    JsonAppendString(body_out, predicate);
    body_out += ":{\"arity\":" + std::to_string(relation.arity()) + ',';
    AppendRelationRowsJson(body_out, relation, max_rows);
    body_out += '}';
  }
  body_out += "},\"cache_hit\":";
  body_out += lookup.hit ? "true" : "false";
  body_out += ",\"analysis\":" + plan_explanation.ToJson();
  body_out += ",\"wall_us\":" + std::to_string(wall_us);
  body_out += ",\"stats\":{\"iterations\":" + std::to_string(dstats.iterations);
  body_out += ",\"tuples_new\":" + std::to_string(dstats.tuples_new);
  body_out += ",\"rule_applications\":" +
              std::to_string(dstats.rule_applications);
  body_out += "},\"admission\":{\"lane\":\"";
  body_out += ticket.heavy() ? "heavy" : "fast";
  body_out += "\"}}\n";
  return HttpResponse::Json(200, std::move(body_out));
}

// --- Structure endpoints ----------------------------------------------------

HttpResponse QueryServer::HandlePutStructure(const HttpRequest& request,
                                             std::string_view name) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.structure_loads;
  }
  std::string_view format = request.QueryParam("format");
  if (format.empty()) {
    // Sniff: the binary magic, else the textual header keyword, else edges.
    if (request.body.rfind("FMTKBIN1", 0) == 0) {
      format = "bin";
    } else {
      std::string_view peek = request.body;
      while (!peek.empty()) {
        const std::size_t start = peek.find_first_not_of(" \t\r\n");
        if (start == std::string_view::npos) break;
        peek.remove_prefix(start);
        if (peek[0] != '#' && peek[0] != '%') break;
        const std::size_t eol = peek.find('\n');
        if (eol == std::string_view::npos) break;
        peek.remove_prefix(eol + 1);
      }
      format = peek.rfind("domain", 0) == 0 ? "text" : "edges";
    }
  }

  DiagnosticSink sink;
  std::optional<Structure> loaded;
  std::string source;
  if (format == "bin") {
    auto parsed = ParseStructureBinary(request.body, &sink);
    if (!parsed.ok()) {
      return JsonError(422, parsed.status().message(), sink.ToJson());
    }
    loaded.emplace(*std::move(parsed));
    source = "bin:" + std::to_string(request.body.size()) + " bytes";
  } else if (format == "edges") {
    EdgeListOptions edge_options;
    if (const std::string_view relation = request.QueryParam("relation");
        !relation.empty()) {
      edge_options.relation_name = std::string(relation);
    }
    edge_options.undirected = request.QueryParam("undirected") == "1";
    if (request.QueryParam("ids") == "numeric") {
      edge_options.id_mode = EdgeListOptions::IdMode::kNumeric;
    }
    auto parsed = LoadEdgeListText(request.body, edge_options, &sink);
    if (!parsed.ok()) {
      return JsonError(422, parsed.status().message(), sink.ToJson());
    }
    loaded.emplace(std::move(parsed->structure));
    source = "edges:" + std::to_string(parsed->stats.edges) + " edges";
  } else if (format == "text") {
    auto parsed = ParseStructure(request.body);
    if (!parsed.ok()) {
      return JsonError(422, parsed.status().message());
    }
    loaded.emplace(*std::move(parsed));
    source = "text:" + std::to_string(request.body.size()) + " bytes";
  } else {
    return JsonError(400, "unknown format '" + std::string(format) +
                              "' (want bin, edges, or text)");
  }

  const StructureStats structure_stats = loaded->Stats();
  const std::uint64_t generation =
      PutStructure(std::string(name), *std::move(loaded), source);

  std::string body_out = "{\"loaded\":";
  AppendStructureStatsJson(body_out, name, structure_stats, generation);
  body_out += ",\"format\":";
  JsonAppendString(body_out, format);
  body_out += ",\"diagnostics\":";
  body_out += sink.ToJson();
  body_out += "}\n";
  HttpResponse response = HttpResponse::Json(201, std::move(body_out));
  return response;
}

HttpResponse QueryServer::HandleGetStructure(std::string_view name) {
  const std::shared_ptr<const Structure> structure = GetStructure(name);
  std::uint64_t generation = 0;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    auto it = registry_.find(name);
    if (it != registry_.end()) generation = it->second.generation;
  }
  if (structure == nullptr) {
    return JsonError(404, "no structure named '" + std::string(name) + "'");
  }
  std::string body_out;
  AppendStructureStatsJson(body_out, name, structure->Stats(), generation);
  body_out += "\n";
  return HttpResponse::Json(200, std::move(body_out));
}

HttpResponse QueryServer::HandleDeleteStructure(std::string_view name) {
  if (!DropStructure(name)) {
    return JsonError(404, "no structure named '" + std::string(name) + "'");
  }
  return HttpResponse::Json(200, "{\"dropped\":true}\n");
}

HttpResponse QueryServer::HandleStructures() {
  std::string body_out = "{\"structures\":[";
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    bool first = true;
    for (const auto& [name, entry] : registry_) {
      if (!first) body_out += ',';
      first = false;
      AppendStructureStatsJson(body_out, name, entry.structure->Stats(),
                               entry.generation);
    }
  }
  body_out += "]}\n";
  return HttpResponse::Json(200, std::move(body_out));
}

HttpResponse QueryServer::HandleStats() {
  const Stats server = stats();
  const HttpServer::Stats http = http_stats();
  PlanCache* cache = options_.planner.cache != nullptr ? options_.planner.cache
                                                       : &DefaultPlanCache();
  const PlanCacheStats formulas = cache->formula_stats();
  const PlanCacheStats programs = cache->datalog_stats();

  std::string body_out = "{\"server\":{";
  body_out += "\"queries\":" + std::to_string(server.queries);
  body_out += ",\"datalog_queries\":" + std::to_string(server.datalog_queries);
  body_out += ",\"structure_loads\":" + std::to_string(server.structure_loads);
  body_out +=
      ",\"admission_rejected\":" + std::to_string(server.admission_rejected);
  body_out +=
      ",\"heavy_lane_entries\":" + std::to_string(server.heavy_lane_entries);
  body_out +=
      ",\"heavy_lane_rejected\":" + std::to_string(server.heavy_lane_rejected);
  body_out += ",\"errors\":" + std::to_string(server.errors);
  body_out += "},\"http\":{";
  body_out += "\"connections_accepted\":" +
              std::to_string(http.connections_accepted);
  body_out += ",\"connections_rejected\":" +
              std::to_string(http.connections_rejected);
  body_out += ",\"requests_handled\":" + std::to_string(http.requests_handled);
  body_out += ",\"requests_shed\":" + std::to_string(http.requests_shed);
  body_out += ",\"parse_errors\":" + std::to_string(http.parse_errors);
  body_out += ",\"timeouts\":" + std::to_string(http.timeouts);
  body_out += ",\"bytes_in\":" + std::to_string(http.bytes_in);
  body_out += ",\"bytes_out\":" + std::to_string(http.bytes_out);
  body_out += "},\"plan_cache\":{\"formulas\":{";
  body_out += "\"hits\":" + std::to_string(formulas.hits);
  body_out += ",\"misses\":" + std::to_string(formulas.misses);
  body_out += ",\"entries\":" + std::to_string(formulas.entries);
  body_out += "},\"programs\":{";
  body_out += "\"hits\":" + std::to_string(programs.hits);
  body_out += ",\"misses\":" + std::to_string(programs.misses);
  body_out += ",\"entries\":" + std::to_string(programs.entries);
  body_out += "}},\"structures\":";
  body_out += std::to_string(StructureNames().size());
  body_out += "}\n";
  return HttpResponse::Json(200, std::move(body_out));
}

}  // namespace fmtk
