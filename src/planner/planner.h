#ifndef FMTK_PLANNER_PLANNER_H_
#define FMTK_PLANNER_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "datalog/evaluator.h"
#include "logic/formula.h"
#include "planner/plan_cache.h"
#include "structures/relation.h"
#include "structures/structure.h"
#include "structures/structure_stats.h"

namespace fmtk {

/// The evaluation strategies EvaluateAuto routes between.
enum class EngineKind {
  /// The reference interpreter (ModelChecker / EvaluateQueryNaive):
  /// dominated by kCompiled on every input, kept as a forceable oracle.
  kNaive,
  /// Compiled slot evaluation, serial (eval/compiled_eval.h). For queries:
  /// domain^m enumeration over the cached compiled plan's row fast path.
  kCompiled,
  /// Compiled evaluation with the outer-quantifier parallel fan-out.
  kParallel,
  /// Bottom-up relational algebra (eval/query_eval.h EvaluateQuery).
  kRelational,
  /// Existential-positive lowering to nonrecursive Datalog on the compiled
  /// semi-naive engine (planner/fo_to_datalog.h).
  kDatalog,
  /// The Hanf bounded-degree histogram evaluator
  /// (core/algorithmic/bounded_degree.h) — survey Thm 3.10/3.11.
  kBoundedDegree,
};

/// "naive", "compiled", "parallel", "relational", "datalog",
/// "bounded-degree".
const char* EngineKindName(EngineKind kind);

/// Inverse of EngineKindName (also accepts "bounded_degree"); nullopt for
/// unknown names.
std::optional<EngineKind> ParseEngineKind(std::string_view name);

struct PlannerOptions {
  /// Run this engine instead of the router's pick (Unsupported when the
  /// engine cannot evaluate the query, e.g. Datalog outside the
  /// existential-positive fragment). The cost table is still computed, so
  /// the forced engine is priced by its own row; that row's note says
  /// "forced", and the run records no scan feedback.
  std::optional<EngineKind> force_engine;
  /// Use (and fill) the plan cache. Off = canonicalize + compile fresh.
  bool use_cache = true;
  /// Cache to use; nullptr = the process-global DefaultPlanCache().
  PlanCache* cache = nullptr;
  /// Datalog route: output predicates — the liveness/demand roots dead-rule
  /// elimination and the magic-set transformation rewrite against (the same
  /// root set fmtk_lint --output feeds FMTK106). Empty = every IDB
  /// predicate is an output; the result map then covers all of them.
  /// Non-empty = the result map is restricted to these predicates.
  std::vector<std::string> datalog_outputs;
  /// Run the static program optimizer as a cached pre-pass and execute its
  /// rewritten program.
  bool optimize_datalog = true;
  /// When the optimizer proves the program bounded (non-recursive after
  /// rewrites) and lowers it to FO, route the outputs through
  /// EvaluateQueryAuto instead of the Datalog engine.
  bool datalog_fo_routing = true;
};

/// Cost-model verdict for one engine (for --explain).
struct EngineCost {
  EngineKind engine = EngineKind::kCompiled;
  bool eligible = false;
  /// Abstract work units (comparable across engines, not wall time).
  double cost = 0.0;
  /// Why ineligible / what the estimate assumed.
  std::string note;
};

/// Everything --explain prints: the chosen route, the analyzer measures and
/// structure statistics that drove it, the survey theorem justifying it,
/// and the per-engine cost table.
struct PlanExplanation {
  EngineKind chosen = EngineKind::kCompiled;
  /// The routing rule that fired, in words.
  std::string rule;
  /// The survey result backing the rule (e.g. "Thm 3.10/3.11: bounded
  /// degree => Hanf-local => linear time").
  std::string theorem;
  bool cache_hit = false;
  bool text_cache_hit = false;
  std::string canonical_text;
  std::uint64_t signature_fingerprint = 0;

  /// Analyzer measures (of the canonical formula).
  std::size_t quantifier_rank = 0;
  std::size_t variable_width = 0;
  std::size_t node_count = 0;
  std::size_t free_variable_count = 0;
  bool safe_range = false;
  bool existential_positive = false;

  /// How the compiled-scan estimate was priced (PR 9 short-circuit
  /// feedback): "static" = full nodes * n^qr scan model, "measured" = this
  /// exact (structure, generation) had a recorded compiled run and its
  /// EvalStats::node_visits priced the route, "prior" = another
  /// structure's observed visited/static ratio discounted the scan.
  std::string scan_estimate = "static";
  /// The effective discount applied to the static full-scan estimate
  /// (1.0 = no discount; "measured" runs report visits / static scan).
  double scan_ratio = 1.0;
  /// EvalStats::short_circuits of the recorded run ("measured"/"prior").
  std::uint64_t observed_short_circuits = 0;

  StructureStats structure;
  std::vector<EngineCost> costs;

  /// Multi-line, human-readable --explain block.
  std::string ToString() const;
  /// One JSON object (machine-readable --explain / fmtk_lint --json).
  std::string ToJson() const;
};

/// One routing pass over one FO query: the plan-cache entry, the outcome
/// of that cache access, the structure statistics and the full per-engine
/// cost table, with `chosen` the engine to run. PrepareAuto produces it and
/// RunSentence / RunQuery execute it, so the engine that runs is the one the
/// cost table priced. A forced engine (PlannerOptions::force_engine) only
/// overrides `chosen` and turns scan feedback off; the table is unchanged.
struct RoutedPlan {
  std::shared_ptr<const CachedFormulaPlan> plan;
  PlanCacheLookup lookup;
  StructureStats stats;
  EngineKind chosen = EngineKind::kCompiled;
  std::vector<EngineCost> costs;
  /// "static" / "measured" / "prior" — see PlanExplanation::scan_estimate.
  const char* scan_estimate = "static";
  double scan_ratio = 1.0;
  std::uint64_t observed_short_circuits = 0;
  /// Feedback is recorded only for router-chosen runs, never forced ones.
  bool record_feedback = false;

  /// The cost row of `chosen`, in compiled-slot-op units.
  double ChosenCost() const;
  /// The --explain view of this routing pass.
  PlanExplanation Explain() const;
};

/// Plan acquisition + routing, without execution. `query_mode` prices
/// RunQuery's domain^m enumeration with `output_count` output columns;
/// sentences pass query_mode = false. Repeat texts hit the plan cache, so
/// preparing adds no parse/analyze/compile work to a warm request. The
/// Formula door first checks the *original* formula against the
/// vocabulary, for error parity with the direct engines (folding could
/// erase an invalid dead branch).
Result<RoutedPlan> PrepareAuto(const Structure& structure,
                               std::string_view text, bool query_mode,
                               std::size_t output_count,
                               const PlannerOptions& options = {});
Result<RoutedPlan> PrepareAuto(const Structure& structure,
                               const Formula& formula, bool query_mode,
                               std::size_t output_count,
                               const PlannerOptions& options = {});

/// Runs a sentence's routed plan on the structure it was prepared for.
/// InvalidArgument when the query has free variables.
Result<bool> RunSentence(const Structure& structure, const RoutedPlan& routed);

/// Runs a query's routed plan (prepared with query_mode and
/// output_variables.size() outputs). The outputs obey
/// CheckOutputVariables against the canonical query's free variables.
Result<Relation> RunQuery(const Structure& structure, const RoutedPlan& routed,
                          const std::vector<std::string>& output_variables);

/// PrepareAuto's explanation alone: what the query server's admission
/// control and --explain read. The `costs` row for `chosen` carries the
/// work estimate in compiled-slot-op units.
Result<PlanExplanation> PlanAuto(const Structure& structure,
                                 std::string_view text, bool query_mode,
                                 std::size_t output_count,
                                 const PlannerOptions& options = {});

/// Decides structure ⊨ sentence, routing to the estimated-fastest engine.
/// Verdicts are identical to every engine's direct invocation (the engines
/// are differential-tested against each other). `sentence` must have no
/// free variables. PrepareAuto + RunSentence; `explain` receives the
/// routing pass.
Result<bool> EvaluateAuto(const Structure& structure, const Formula& sentence,
                          const PlannerOptions& options = {},
                          PlanExplanation* explain = nullptr);

/// Text front door: repeat query strings skip parse + analyze + compile
/// via the exact-text cache layer.
Result<bool> EvaluateAuto(const Structure& structure,
                          std::string_view sentence_text,
                          const PlannerOptions& options = {},
                          PlanExplanation* explain = nullptr);

/// ans(φ(x̄), A) with automatic engine choice. Matches EvaluateQuery's
/// semantics: column i is output_variables[i], the list must cover every
/// free variable (of the canonicalized query) and contain no duplicates;
/// extra variables range over the whole domain. PrepareAuto + RunQuery.
Result<Relation> EvaluateQueryAuto(
    const Structure& structure, const Formula& f,
    const std::vector<std::string>& output_variables,
    const PlannerOptions& options = {}, PlanExplanation* explain = nullptr);

Result<Relation> EvaluateQueryAuto(
    const Structure& structure, std::string_view query_text,
    const std::vector<std::string>& output_variables,
    const PlannerOptions& options = {}, PlanExplanation* explain = nullptr);

/// What the Datalog route did with a program (the --explain face of the
/// optimizer pre-pass and the plan cache).
struct DatalogPlanExplanation {
  bool cache_hit = false;
  bool text_cache_hit = false;
  /// "datalog" (compiled semi-naive over the optimized rules), or "fo"
  /// (bounded program lowered to first-order queries and routed through
  /// EvaluateQueryAuto).
  std::string route = "datalog";
  bool optimized = false;
  bool magic_applied = false;
  bool fo_expressible = false;
  /// One line per rewrite the optimizer applied, in application order.
  std::vector<std::string> rewrites;
  /// Stratum schedule of the executed program, bottom-up.
  std::vector<std::string> strata;
  /// Per-predicate boundedness verdicts.
  std::vector<std::string> boundedness;

  /// Multi-line, human-readable --explain block.
  std::string ToString() const;
  /// One JSON object (server "analysis" field / fmtk_lint --json).
  std::string ToJson() const;
};

/// Datalog serving path: the cached rule-lowering. The canonicalized
/// program's analysis, the optimizer pre-pass, and the per-structure
/// compiled engine are memoized on the plan cache entry, so repeat
/// programs skip parse/analyze/optimize/compile and repeat
/// (program, structure) pairs skip rule binding too. Results equal
/// EvaluateDatalog(program, edb, kSemiNaive) restricted to
/// options.datalog_outputs when that set is non-empty (every rewrite is
/// output-preserving).
Result<std::map<std::string, Relation>> EvaluateDatalogAuto(
    const Structure& edb, const DatalogProgram& program,
    const PlannerOptions& options = {}, DatalogStats* stats = nullptr,
    PlanCacheLookup* lookup = nullptr,
    DatalogPlanExplanation* explain = nullptr);

Result<std::map<std::string, Relation>> EvaluateDatalogAuto(
    const Structure& edb, std::string_view program_text,
    const PlannerOptions& options = {}, DatalogStats* stats = nullptr,
    PlanCacheLookup* lookup = nullptr,
    DatalogPlanExplanation* explain = nullptr);

}  // namespace fmtk

#endif  // FMTK_PLANNER_PLANNER_H_
