#include "planner/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/json_out.h"
#include "base/parallel.h"
#include "core/algorithmic/bounded_degree.h"
#include "eval/compiled_eval.h"
#include "eval/model_check.h"
#include "eval/query_eval.h"
#include "logic/analysis.h"
#include "logic/parser.h"
#include "planner/canonical.h"
#include "planner/fo_to_datalog.h"

namespace fmtk {

namespace {

constexpr double kCostCap = 1e30;

double Cap(double x) { return x > kCostCap ? kCostCap : x; }

double PowCap(double base, std::size_t exp) {
  double out = 1.0;
  for (std::size_t i = 0; i < exp; ++i) {
    out *= base;
    if (out > kCostCap) {
      return kCostCap;
    }
  }
  return out;
}

// Moore-bound estimate of the radius-r Gaifman ball size under a degree
// bound, capped at the domain size: a true upper bound on |B_r(v)|.
double BallEstimate(std::size_t degree, std::size_t radius, std::size_t n) {
  double b;
  if (degree == 0) {
    b = 1.0;
  } else if (degree == 1) {
    b = 2.0;
  } else if (degree == 2) {
    b = 2.0 * static_cast<double>(radius) + 1.0;
  } else {
    b = 1.0;
    double layer = static_cast<double>(degree);
    for (std::size_t r = 0; r < radius; ++r) {
      b += layer;
      if (b > 1e15) {
        b = 1e15;
        break;
      }
      layer *= static_cast<double>(degree - 1);
    }
  }
  const double cap = static_cast<double>(n == 0 ? 1 : n);
  return b < cap ? b : cap;
}

// Crude relational-algebra work estimate over the canonical AST: joins
// produce |A|*|B| / n^shared rows (independence assumption), complements
// and ∀ materialize domain^k tables. Costs are in *row materializations*;
// one materialized row (heap tuple + hash insert) costs about
// kRelationalRowCost compiled slot operations (calibrated on the E19
// bench), which is what makes the estimates comparable across engines.
constexpr double kRelationalRowCost = 30.0;

// Bounded-degree route: the largest estimated r-ball worth the histogram
// pass, and the safety factor — the histogram pass must be estimated at
// most this fraction of the compiled scan before the route is taken (so
// even a verdict-cache miss, which falls back to one compiled check, costs
// at most (1 + safety) of the compiled route).
constexpr double kBoundedDegreeMaxBall = 256.0;
constexpr double kBoundedDegreeSafety = 0.15;

// Threads the parallel route fans out over: every hardware thread.
std::size_t ParallelThreads() {
  const std::size_t threads = std::thread::hardware_concurrency();
  return threads == 0 ? 1 : threads;
}

struct RelEst {
  double rows = 0.0;
  double cost = 0.0;
};

RelEst EstimateRelational(const Formula& f, const Structure& s, double n) {
  RelEst est;
  switch (f.kind()) {
    case FormulaKind::kTrue:
      est.rows = 1.0;
      est.cost = 1.0;
      return est;
    case FormulaKind::kFalse:
      est.rows = 0.0;
      est.cost = 1.0;
      return est;
    case FormulaKind::kAtom: {
      Result<std::size_t> index = s.RelationIndex(f.relation_name());
      const double rows =
          index.ok() ? static_cast<double>(s.relation(*index).size()) : 0.0;
      est.rows = rows;
      est.cost = rows + 1.0;
      return est;
    }
    case FormulaKind::kEqual:
      est.rows = n;
      est.cost = n;
      return est;
    case FormulaKind::kAnd: {
      // Join-size estimate: |A ⋈ B| ≈ |A|*|B| / n^|shared vars|, folded
      // over all conjuncts at once (Σ|fv_i| - |fv(∧)| shared slots).
      double product = -1.0;
      double var_slots = 0.0;
      for (const Formula& child : f.children()) {
        const RelEst c = EstimateRelational(child, s, n);
        est.cost = Cap(est.cost + c.cost);
        product = product < 0.0 ? c.rows : Cap(product * c.rows);
        var_slots += static_cast<double>(FreeVariables(child).size());
      }
      if (product < 0.0) {
        product = 1.0;  // empty conjunction
      }
      const double shared = var_slots - static_cast<double>(
                                            FreeVariables(f).size());
      const double denom = PowCap(n, static_cast<std::size_t>(
                                         shared > 0.0 ? shared : 0.0));
      est.rows = product / denom;
      if (est.rows < 1.0) {
        est.rows = 1.0;
      }
      est.cost = Cap(est.cost + est.rows);  // materializing the result
      return est;
    }
    case FormulaKind::kOr: {
      const double fv_f = static_cast<double>(FreeVariables(f).size());
      for (const Formula& child : f.children()) {
        const RelEst c = EstimateRelational(child, s, n);
        const double extra = fv_f - static_cast<double>(
                                        FreeVariables(child).size());
        const double ext = PowCap(n, static_cast<std::size_t>(extra));
        est.rows = Cap(est.rows + c.rows * ext);
        est.cost = Cap(est.cost + c.cost + c.rows * ext);
      }
      return est;
    }
    case FormulaKind::kNot: {
      const RelEst c = EstimateRelational(f.child(0), s, n);
      const double full = PowCap(n, FreeVariables(f.child(0)).size());
      est.rows = full;
      est.cost = Cap(c.cost + full);
      return est;
    }
    case FormulaKind::kImplies:
    case FormulaKind::kIff: {
      const double full = PowCap(n, FreeVariables(f).size());
      for (const Formula& child : f.children()) {
        const RelEst c = EstimateRelational(child, s, n);
        est.cost = Cap(est.cost + c.cost);
      }
      est.cost = Cap(est.cost + 2.0 * full);
      est.rows = full;
      return est;
    }
    case FormulaKind::kExists:
    case FormulaKind::kCountExists: {
      const RelEst c = EstimateRelational(f.body(), s, n);
      est.rows = c.rows;
      est.cost = Cap(c.cost + c.rows);
      return est;
    }
    case FormulaKind::kForall: {
      const RelEst c = EstimateRelational(f.body(), s, n);
      const double full = PowCap(n, FreeVariables(f.body()).size());
      est.rows = PowCap(n, FreeVariables(f).size());
      est.cost = Cap(c.cost + 2.0 * full);
      return est;
    }
  }
  return est;
}

// Lazily attempts (once) the EP -> nonrecursive-Datalog lowering for a
// cached plan. Caller must hold plan.engines_mu.
const FoDatalogTranslation* EnsureTranslationLocked(
    const CachedFormulaPlan& plan, const Signature& signature) {
  if (!plan.datalog_attempted) {
    plan.datalog_attempted = true;
    Result<FoDatalogTranslation> r =
        TranslateToDatalog(plan.canonical.formula, signature);
    if (r.ok()) {
      plan.datalog = std::move(r).value();
    }
  }
  return plan.datalog.has_value() ? &*plan.datalog : nullptr;
}

// Bounded-degree route parameters: valid only when the plan is a
// constant-free, counting-free sentence of modest rank.
struct BdParams {
  bool structurally_eligible = false;
  std::size_t radius = 0;
  double ball = 0.0;
  std::size_t threshold = 1;
  std::string reason;  // why not, when ineligible
};

BdParams BoundedDegreeParams(const CachedFormulaPlan& plan,
                             const Structure& s, const StructureStats& stats) {
  BdParams p;
  if (!plan.analysis.free_variables.empty()) {
    p.reason = "free variables (sentences only)";
    return p;
  }
  if (plan.has_counting) {
    p.reason = "counting quantifier";
    return p;
  }
  if (plan.has_constant_terms || s.signature().constant_count() > 0) {
    p.reason = "constants break the neighborhood argument";
    return p;
  }
  const std::size_t qr = plan.analysis.quantifier_rank;
  if (qr == 0) {
    p.reason = "quantifier-free";
    return p;
  }
  if (qr > 6) {
    p.reason = "quantifier rank too large for the Hanf radius";
    return p;
  }
  p.radius = HanfParametersForRank(qr).radius;
  p.ball = BallEstimate(stats.max_degree, p.radius, stats.domain_size);
  // The fully conservative FSV threshold: rank * max-ball-size + 1 (see
  // bounded_degree.h) — sound on any structure class, and clipping cost
  // does not grow with it.
  const double t = static_cast<double>(qr) * p.ball + 1.0;
  p.threshold = static_cast<std::size_t>(t > 1e9 ? 1e9 : t);
  p.structurally_eligible = true;
  return p;
}

double BdHistogramCost(const StructureStats& stats, double ball) {
  return Cap(static_cast<double>(stats.domain_size) * ball * ball * 8.0 +
             64.0);
}

const char* kEngineNames[] = {"naive",      "compiled", "parallel",
                              "relational", "datalog",  "bounded-degree"};

// --------------------------------------------------------------------------
// Short-circuit scan feedback (PR 9): see CachedFormulaPlan's feedback
// fields. The static model prices a full scan; the engine short-circuits.

// Identity of one measured configuration. `output_count` distinguishes
// sentence checks (0) from query enumerations, whose work scales with the
// output arity.
std::uint64_t ScanFeedbackKey(const Structure& s, std::size_t output_count) {
  std::size_t seed = 0;
  HashCombine(seed, s.uid());
  HashCombine(seed, s.generation());
  HashCombine(seed, output_count + 1);  // never 0: 0 = "no measurement"
  const std::uint64_t key = Mix64(seed);
  return key == 0 ? 1 : key;
}

// The static full-scan estimate in node-visit units — the denominator the
// measured visits are normalized against (must match the pricing below).
double StaticScanUnits(const CachedFormulaPlan& plan, double n,
                       bool query_mode, std::size_t output_count) {
  const double nodes = static_cast<double>(
      plan.analysis.node_count == 0 ? 1 : plan.analysis.node_count);
  const std::size_t exp = plan.analysis.quantifier_rank +
                          (query_mode ? output_count : 0);
  return Cap(nodes * PowCap(n, exp));
}

// Records a router-chosen compiled run's measured work on the plan.
void RecordScanFeedback(const CachedFormulaPlan& plan, const Structure& s,
                        bool query_mode, std::size_t output_count,
                        const EvalStats& stats) {
  const double n =
      static_cast<double>(s.domain_size() == 0 ? 1 : s.domain_size());
  const double scan = StaticScanUnits(plan, n, query_mode, output_count);
  const std::uint64_t visits =
      stats.node_visits == 0 ? 1 : stats.node_visits;
  double ratio = static_cast<double>(visits) / scan;
  if (ratio > 1.0) {
    ratio = 1.0;  // the model underestimated; never inflate other routes
  }
  plan.scan_feedback_visits.store(visits, std::memory_order_relaxed);
  plan.scan_feedback_short_circuits.store(stats.short_circuits,
                                          std::memory_order_relaxed);
  plan.scan_feedback_ratio.store(ratio, std::memory_order_relaxed);
  plan.scan_feedback_key.store(ScanFeedbackKey(s, query_mode ? output_count : 0),
                               std::memory_order_release);
}

EngineCost MakeCost(EngineKind k, bool eligible, double cost,
                    std::string note = "") {
  EngineCost c;
  c.engine = k;
  c.eligible = eligible;
  c.cost = cost;
  c.note = std::move(note);
  return c;
}

// The cost model: one table of (eligibility, estimated work units) per
// engine for result.plan on `s`, then argmin into result.chosen — or the
// forced engine, whose row is marked. `output_count` is meaningful in
// query mode only.
void Route(const Structure& s, bool query_mode, std::size_t output_count,
           const PlannerOptions& opts, RoutedPlan& result) {
  const CachedFormulaPlan& plan = *result.plan;
  result.stats = s.Stats();
  const StructureStats& stats = result.stats;
  const double n = static_cast<double>(
      stats.domain_size == 0 ? 1 : stats.domain_size);
  const double nodes = static_cast<double>(
      plan.analysis.node_count == 0 ? 1 : plan.analysis.node_count);
  const std::size_t qr = plan.analysis.quantifier_rank;
  const double scan = Cap(nodes * PowCap(n, qr));

  // Serial compiled evaluation: the default. Queries enumerate domain^m
  // candidate rows over the cached plan. The full-scan estimate is
  // discounted by short-circuit feedback when this plan has a measured run
  // (PR 8's "remaining headroom": the model priced full scans even when
  // the engine short-circuits after a handful of node visits).
  double compiled_units = StaticScanUnits(plan, n, query_mode, output_count);
  std::string compiled_note;
  {
    const std::uint64_t key =
        ScanFeedbackKey(s, query_mode ? output_count : 0);
    const std::uint64_t seen =
        plan.scan_feedback_key.load(std::memory_order_acquire);
    if (seen == key) {
      const double visits = static_cast<double>(
          plan.scan_feedback_visits.load(std::memory_order_relaxed));
      result.scan_estimate = "measured";
      result.scan_ratio = visits / compiled_units;
      result.observed_short_circuits =
          plan.scan_feedback_short_circuits.load(std::memory_order_relaxed);
      compiled_units = visits < 1.0 ? 1.0 : visits;
      compiled_note = "measured node visits";
    } else if (seen != 0) {
      double ratio = plan.scan_feedback_ratio.load(std::memory_order_relaxed);
      if (ratio > 0.0 && ratio < 1.0) {
        // Another structure's measurement: apply the dimensionless ratio,
        // hedged toward the static model (a different structure may
        // short-circuit later, so a prior never discounts past 10x).
        if (ratio < 0.1) {
          ratio = 0.1;
        }
        result.scan_estimate = "prior";
        result.scan_ratio = ratio;
        result.observed_short_circuits =
            plan.scan_feedback_short_circuits.load(std::memory_order_relaxed);
        compiled_units = Cap(compiled_units * ratio);
        compiled_note = "short-circuit ratio prior";
      }
    }
  }
  const double compiled_cost = Cap(0.3 * compiled_units);
  result.costs.push_back(MakeCost(EngineKind::kCompiled, true, compiled_cost,
                                  std::move(compiled_note)));

  // The interpreter: same exploration, measured 3-4x slower per node
  // (PR 1); queries additionally recompile per call.
  result.costs.push_back(MakeCost(
      EngineKind::kNaive, true,
      Cap((query_mode ? 1.05 * compiled_cost : scan) + 1000.0),
      "reference oracle"));

  // Parallel outer-quantifier fan-out (sentences; PR 1's ParallelPolicy).
  {
    const std::size_t threads = ParallelThreads();
    if (query_mode) {
      result.costs.push_back(MakeCost(EngineKind::kParallel, false, 0.0,
                                      "sentences only"));
    } else if (threads < 2) {
      result.costs.push_back(
          MakeCost(EngineKind::kParallel, false, 0.0, "threads<2"));
    } else if (stats.domain_size < 64 || compiled_cost < 1e6 || qr == 0) {
      result.costs.push_back(MakeCost(EngineKind::kParallel, false, 0.0,
                                      "too little work to fan out"));
    } else {
      const double fan = static_cast<double>(
          std::min<std::size_t>(threads, stats.domain_size));
      result.costs.push_back(MakeCost(EngineKind::kParallel, true,
                                      Cap(compiled_cost / fan + 5e4)));
    }
  }

  // Bottom-up relational algebra.
  double relational_cost = 0.0;
  bool relational_eligible = false;
  if (plan.has_counting) {
    result.costs.push_back(MakeCost(EngineKind::kRelational, false, 0.0,
                                    "counting quantifier"));
  } else {
    const RelEst est = EstimateRelational(plan.canonical.formula, s, n);
    double cost = est.cost;
    if (query_mode) {
      const std::size_t extra =
          output_count - plan.analysis.free_variables.size();
      cost = Cap(cost + est.rows * PowCap(n, extra));
    }
    relational_cost = Cap(kRelationalRowCost * cost);
    relational_eligible = true;
    result.costs.push_back(
        MakeCost(EngineKind::kRelational, true, relational_cost));
  }

  // Nonrecursive-Datalog lowering onto the compiled semi-naive engine.
  {
    std::string why;
    bool eligible = true;
    if (!plan.existential_positive) {
      eligible = false;
      why = "outside the existential-positive fragment";
    } else if (plan.has_constant_terms) {
      eligible = false;
      why = "constant terms";
    } else if (stats.domain_size == 0) {
      eligible = false;
      why = "empty domain";
    }
    const FoDatalogTranslation* translation = nullptr;
    if (eligible) {
      std::lock_guard<std::mutex> lock(plan.engines_mu);
      translation = EnsureTranslationLocked(plan, s.signature());
      if (translation == nullptr) {
        eligible = false;
        why = "not range-restrictable as Datalog";
      }
    }
    if (eligible && !relational_eligible) {
      eligible = false;
      why = "no relational estimate to price the lowering";
    }
    if (eligible) {
      // Semi-naive with posting-list indexes touches roughly half what the
      // generic algebra evaluator does on the same joins (PR 6 bench), and
      // engine binding amortizes away via the per-structure memo — only a
      // small per-call constant remains.
      result.costs.push_back(MakeCost(EngineKind::kDatalog, true,
                                      Cap(0.5 * relational_cost + 100.0)));
    } else {
      result.costs.push_back(
          MakeCost(EngineKind::kDatalog, false, 0.0, why));
    }
  }

  // Hanf bounded-degree histogram evaluation (Thm 3.10/3.11). Chosen
  // optimistically when the histogram pass is far below the compiled scan:
  // a verdict-cache miss still pays one compiled check (<= (1 + safety) of
  // the compiled route), and every later evaluation over the same
  // bounded-degree class answers in the linear histogram pass alone.
  if (query_mode) {
    result.costs.push_back(MakeCost(EngineKind::kBoundedDegree, false, 0.0,
                                    "sentences only"));
  } else {
    const BdParams bd = BoundedDegreeParams(plan, s, stats);
    if (!bd.structurally_eligible) {
      result.costs.push_back(
          MakeCost(EngineKind::kBoundedDegree, false, 0.0, bd.reason));
    } else if (bd.ball > kBoundedDegreeMaxBall) {
      result.costs.push_back(MakeCost(EngineKind::kBoundedDegree, false, 0.0,
                                      "estimated ball too large"));
    } else {
      const double hist = BdHistogramCost(stats, bd.ball);
      if (hist <= kBoundedDegreeSafety * compiled_cost) {
        result.costs.push_back(
            MakeCost(EngineKind::kBoundedDegree, true, hist));
      } else {
        result.costs.push_back(MakeCost(
            EngineKind::kBoundedDegree, false, hist,
            "histogram pass not clearly cheaper than the compiled scan"));
      }
    }
  }

  // Argmin over the eligible rows.
  bool have = false;
  double best = 0.0;
  for (const EngineCost& c : result.costs) {
    if (!c.eligible) {
      continue;
    }
    if (!have || c.cost < best) {
      have = true;
      best = c.cost;
      result.chosen = c.engine;
    }
  }
  result.record_feedback = !opts.force_engine.has_value();
  if (opts.force_engine.has_value()) {
    result.chosen = *opts.force_engine;
    for (EngineCost& c : result.costs) {
      if (c.engine == result.chosen) {
        c.note = c.note.empty() ? "forced" : "forced; " + c.note;
      }
    }
  }
}

void RuleFor(EngineKind kind, bool cache_hit, std::string* rule,
             std::string* theorem) {
  switch (kind) {
    case EngineKind::kBoundedDegree:
      *rule =
          "bounded Gaifman degree => small r-balls => evaluate by "
          "clipped neighborhood-type histogram (amortized linear time)";
      *theorem =
          "Thm 3.4/3.6 (Gaifman/Hanf locality); Thm 3.8/3.10-3.11 "
          "(bounded degree => Hanf-local => linear-time evaluation)";
      return;
    case EngineKind::kDatalog:
      *rule =
          "existential-positive => union of conjunctive queries => "
          "nonrecursive Datalog on the indexed semi-naive engine";
      *theorem =
          "Sec. 4 (Datalog): UCQs are the nonrecursive fragment; "
          "bottom-up evaluation with index-driven joins";
      return;
    case EngineKind::kRelational:
      *rule =
          "cheap algebra plan (selective joins / complements) => "
          "bottom-up relational evaluation";
      *theorem =
          "Sec. 3 / Codd: FO = relational algebra (safe-range formulas "
          "are domain independent)";
      return;
    case EngineKind::kParallel:
      *rule =
          "large domain x deep quantifier prefix => fan the outermost "
          "quantifier out across threads";
      *theorem = "Thm 2.4: FO is in AC0 — quantifier blocks are "
                 "embarrassingly parallel";
      return;
    case EngineKind::kNaive:
      *rule = "reference interpreter (forced or trivial input)";
      *theorem = "Sec. 2: O(n^qr) combined-complexity baseline";
      return;
    case EngineKind::kCompiled:
      *rule = cache_hit
                  ? "default: cached compiled plan, O(n^qr) data complexity"
                  : "default: compiled slot evaluation, O(n^qr) data "
                    "complexity";
      *theorem =
          "Sec. 2.2: data complexity of FO (fixed query => polynomial "
          "scan; FO is in AC0)";
      return;
  }
}

std::string FormatCost(double cost) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", cost);
  return buf;
}

// ---------------------------------------------------------------------------
// Execution of the chosen engine.

// domain^m enumeration over the cached compiled plan — the same candidate
// order and verdicts as EvaluateQueryNaive, minus the recompilation. The
// caller has checked that the outputs cover the free variables.
Result<Relation> EnumerateWithPlan(
    const Structure& s, const CachedFormulaPlan& plan,
    const std::vector<std::string>& output_variables,
    bool record_feedback) {
  FMTK_ASSIGN_OR_RETURN(CompiledEvaluator evaluator,
                        CompiledEvaluator::Bind(plan.plan, s));
  // The evaluator accumulates EvalStats across every enumerated row, so
  // the total is exactly what the routing formula estimates; record it on
  // the way out of each successful return path.
  const auto record = [&] {
    if (record_feedback) {
      RecordScanFeedback(plan, s, /*query_mode=*/true,
                         output_variables.size(), evaluator.stats());
    }
  };
  const std::vector<std::string>& free_vars = evaluator.free_variables();
  // free_vars[i] = output_variables[source[i]].
  std::vector<std::size_t> source;
  source.reserve(free_vars.size());
  for (const std::string& v : free_vars) {
    source.push_back(static_cast<std::size_t>(
        std::find(output_variables.begin(), output_variables.end(), v) -
        output_variables.begin()));
  }
  const std::size_t m = output_variables.size();
  const std::size_t n = s.domain_size();
  Relation answers(m);
  if (m == 0) {
    FMTK_ASSIGN_OR_RETURN(bool holds, evaluator.EvaluateRow({}));
    if (holds) {
      answers.Add({});
    }
    record();
    return answers;
  }
  if (n == 0) {
    return answers;
  }
  std::vector<Element> tuple(m, 0);
  std::vector<Element> row(free_vars.size(), 0);
  while (true) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      row[i] = tuple[source[i]];
    }
    FMTK_ASSIGN_OR_RETURN(bool holds, evaluator.EvaluateRow(row));
    if (holds) {
      answers.Add(tuple);
    }
    std::size_t pos = m;
    while (pos > 0) {
      --pos;
      if (++tuple[pos] < n) {
        break;
      }
      tuple[pos] = 0;
      if (pos == 0) {
        record();
        return answers;
      }
    }
  }
}

// The FO -> nonrecursive-Datalog route, for sentences (no outputs) and
// queries alike: evaluates the plan's lowering on `s` and returns the
// output predicate's relation with its columns in `output_variables`
// order. Datalog answers carry exactly the free variables; extra output
// columns are not expressible in positive rules.
Result<Relation> RunDatalogLowering(
    const Structure& s, const CachedFormulaPlan& plan,
    const std::vector<std::string>& output_variables) {
  std::lock_guard<std::mutex> lock(plan.engines_mu);
  const FoDatalogTranslation* translation =
      EnsureTranslationLocked(plan, s.signature());
  if (translation == nullptr) {
    return Status::Unsupported("planner: formula has no Datalog lowering");
  }
  const std::vector<std::string>& columns = translation->output_variables;
  if (!std::is_permutation(columns.begin(), columns.end(),
                           output_variables.begin(),
                           output_variables.end())) {
    return Status::Unsupported(
        "planner: Datalog route requires the outputs to be exactly the free "
        "variables");
  }
  FMTK_ASSIGN_OR_RETURN(
      CompiledDatalogEngine engine,
      GetOrBindDatalogEngine(plan.datalog_engines, translation->program, s));
  FMTK_ASSIGN_OR_RETURN(auto idb, engine.Evaluate());
  Relation& raw = idb.at(translation->output_predicate);
  if (columns == output_variables) {
    return std::move(raw);
  }
  // Output column j is lowering column perm[j].
  std::vector<std::size_t> perm;
  perm.reserve(output_variables.size());
  for (const std::string& v : output_variables) {
    perm.push_back(static_cast<std::size_t>(
        std::find(columns.begin(), columns.end(), v) - columns.begin()));
  }
  Relation answers(output_variables.size());
  for (const Tuple& t : raw.tuples()) {
    Tuple reordered(t.size());
    for (std::size_t j = 0; j < perm.size(); ++j) {
      reordered[j] = t[perm[j]];
    }
    answers.Add(std::move(reordered));
  }
  return answers;
}

// The cache a call plans through: the configured one or, with use_cache
// off, a fresh single-entry cache in `throwaway` that lives for this call
// only (so every lookup misses and nothing is shared).
PlanCache& CacheFor(const PlannerOptions& opts,
                    std::optional<PlanCache>& throwaway) {
  if (!opts.use_cache) {
    return throwaway.emplace(PlanCache::Config{1, 2});
  }
  return opts.cache != nullptr ? *opts.cache : DefaultPlanCache();
}

}  // namespace

const char* EngineKindName(EngineKind kind) {
  return kEngineNames[static_cast<std::size_t>(kind)];
}

std::optional<EngineKind> ParseEngineKind(std::string_view name) {
  for (std::size_t i = 0; i < 6; ++i) {
    if (name == kEngineNames[i]) {
      return static_cast<EngineKind>(i);
    }
  }
  if (name == "bounded_degree" || name == "bd") {
    return EngineKind::kBoundedDegree;
  }
  return std::nullopt;
}

std::string PlanExplanation::ToString() const {
  std::string out = "plan: ";
  out += EngineKindName(chosen);
  if (text_cache_hit) {
    out += " (text cache hit: parse+analyze+compile skipped)";
  } else if (cache_hit) {
    out += " (plan cache hit: analyze+compile skipped)";
  }
  out += "\n  canonical: " + canonical_text;
  char fp[32];
  std::snprintf(fp, sizeof(fp), "0x%016llx",
                static_cast<unsigned long long>(signature_fingerprint));
  out += "\n  signature fp: ";
  out += fp;
  out += "\n  measures: qr=" + std::to_string(quantifier_rank) +
         " width=" + std::to_string(variable_width) +
         " nodes=" + std::to_string(node_count) +
         " free=" + std::to_string(free_variable_count) +
         " safe_range=" + (safe_range ? "yes" : "no") +
         " ep=" + (existential_positive ? "yes" : "no");
  if (scan_estimate != "static") {
    out += "\n  scan estimate: " + scan_estimate +
           " (ratio=" + FormatCost(scan_ratio) +
           " short_circuits=" + std::to_string(observed_short_circuits) +
           ")";
  }
  out += "\n  structure: " + structure.ToString();
  out += "\n  rule: " + rule;
  out += "\n  theorem: " + theorem;
  out += "\n  costs:";
  for (const EngineCost& c : costs) {
    out += " ";
    out += EngineKindName(c.engine);
    if (c.eligible) {
      out += "=" + FormatCost(c.cost);
      if (c.engine == chosen) {
        out += "*";
      }
    } else {
      out += "=(" + (c.note.empty() ? std::string("ineligible") : c.note) +
             ")";
    }
  }
  return out;
}

std::string PlanExplanation::ToJson() const {
  std::string out = "{\"engine\":\"";
  out += EngineKindName(chosen);
  out += "\",\"cache_hit\":";
  out += cache_hit ? "true" : "false";
  out += ",\"text_cache_hit\":";
  out += text_cache_hit ? "true" : "false";
  out += ",\"canonical\":" + JsonQuote(canonical_text);
  char fp[32];
  std::snprintf(fp, sizeof(fp), "0x%016llx",
                static_cast<unsigned long long>(signature_fingerprint));
  out += ",\"signature_fingerprint\":\"";
  out += fp;
  out += "\",\"measures\":{\"quantifier_rank\":" +
         std::to_string(quantifier_rank) +
         ",\"variable_width\":" + std::to_string(variable_width) +
         ",\"node_count\":" + std::to_string(node_count) +
         ",\"free_variables\":" + std::to_string(free_variable_count) +
         ",\"safe_range\":" + (safe_range ? "true" : "false") +
         ",\"existential_positive\":" +
         (existential_positive ? "true" : "false") + "}";
  out += ",\"scan_estimate\":" + JsonQuote(scan_estimate) +
         ",\"scan_ratio\":" + FormatCost(scan_ratio) +
         ",\"observed_short_circuits\":" +
         std::to_string(observed_short_circuits);
  out += ",\"structure\":{\"domain_size\":" +
         std::to_string(structure.domain_size) +
         ",\"tuple_count\":" + std::to_string(structure.tuple_count) +
         ",\"max_degree\":" + std::to_string(structure.max_degree) +
         ",\"avg_degree\":" + FormatCost(structure.avg_degree) +
         ",\"components\":" + std::to_string(structure.component_count) +
         ",\"diameter_bound\":" + std::to_string(structure.diameter_bound) +
         "}";
  out += ",\"rule\":" + JsonQuote(rule);
  out += ",\"theorem\":" + JsonQuote(theorem);
  out += ",\"costs\":[";
  for (std::size_t i = 0; i < costs.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += "{\"engine\":\"";
    out += EngineKindName(costs[i].engine);
    out += "\",\"eligible\":";
    out += costs[i].eligible ? "true" : "false";
    out += ",\"cost\":" + FormatCost(costs[i].cost);
    if (!costs[i].note.empty()) {
      out += ",\"note\":" + JsonQuote(costs[i].note);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

double RoutedPlan::ChosenCost() const {
  for (const EngineCost& c : costs) {
    if (c.engine == chosen) {
      return c.cost;
    }
  }
  return 0.0;
}

PlanExplanation RoutedPlan::Explain() const {
  PlanExplanation explain;
  explain.chosen = chosen;
  RuleFor(chosen, lookup.hit, &explain.rule, &explain.theorem);
  explain.cache_hit = lookup.hit;
  explain.text_cache_hit = lookup.text_hit;
  explain.canonical_text = plan->canonical.text;
  explain.signature_fingerprint = plan->canonical.fingerprint;
  explain.quantifier_rank = plan->analysis.quantifier_rank;
  explain.variable_width = plan->analysis.variable_width;
  explain.node_count = plan->analysis.node_count;
  explain.free_variable_count = plan->analysis.free_variables.size();
  explain.safe_range = plan->analysis.safe_range;
  explain.existential_positive = plan->existential_positive;
  explain.scan_estimate = scan_estimate;
  explain.scan_ratio = scan_ratio;
  explain.observed_short_circuits = observed_short_circuits;
  explain.structure = stats;
  explain.costs = costs;
  return explain;
}

Result<RoutedPlan> PrepareAuto(const Structure& structure,
                               std::string_view text, bool query_mode,
                               std::size_t output_count,
                               const PlannerOptions& options) {
  std::optional<PlanCache> throwaway;
  RoutedPlan routed;
  FMTK_ASSIGN_OR_RETURN(routed.plan,
                        CacheFor(options, throwaway)
                            .GetFormulaPlanFromText(
                                text, structure.signature(), &routed.lookup));
  Route(structure, query_mode, output_count, options, routed);
  return routed;
}

Result<RoutedPlan> PrepareAuto(const Structure& structure,
                               const Formula& formula, bool query_mode,
                               std::size_t output_count,
                               const PlannerOptions& options) {
  FMTK_RETURN_IF_ERROR(CheckAgainstSignature(formula, structure.signature()));
  std::optional<PlanCache> throwaway;
  RoutedPlan routed;
  FMTK_ASSIGN_OR_RETURN(routed.plan,
                        CacheFor(options, throwaway)
                            .GetFormulaPlan(formula, structure.signature(),
                                            &routed.lookup));
  Route(structure, query_mode, output_count, options, routed);
  return routed;
}

Result<bool> RunSentence(const Structure& s, const RoutedPlan& routed) {
  const CachedFormulaPlan& plan = *routed.plan;
  if (!plan.analysis.free_variables.empty()) {
    return Status::InvalidArgument(
        "EvaluateAuto requires a sentence; use EvaluateQueryAuto for "
        "formulas with free variables");
  }
  switch (routed.chosen) {
    case EngineKind::kNaive: {
      ModelChecker checker(s);
      return checker.Check(plan.canonical.formula);
    }
    case EngineKind::kCompiled: {
      FMTK_ASSIGN_OR_RETURN(CompiledEvaluator evaluator,
                            CompiledEvaluator::Bind(plan.plan, s));
      Result<bool> verdict = evaluator.Evaluate();
      if (verdict.ok() && routed.record_feedback) {
        RecordScanFeedback(plan, s, /*query_mode=*/false, 0,
                           evaluator.stats());
      }
      return verdict;
    }
    case EngineKind::kParallel: {
      ParallelPolicy policy;
      policy.enabled = true;
      policy.num_threads = ParallelThreads();
      FMTK_ASSIGN_OR_RETURN(CompiledEvaluator evaluator,
                            CompiledEvaluator::Bind(plan.plan, s, policy));
      return evaluator.Evaluate();
    }
    case EngineKind::kRelational: {
      FMTK_ASSIGN_OR_RETURN(Relation answers,
                            EvaluateQuery(s, plan.canonical.formula, {}));
      return answers.size() > 0;
    }
    case EngineKind::kDatalog: {
      FMTK_ASSIGN_OR_RETURN(Relation answers,
                            RunDatalogLowering(s, plan, {}));
      return answers.size() > 0;
    }
    case EngineKind::kBoundedDegree: {
      std::lock_guard<std::mutex> lock(plan.engines_mu);
      if (!plan.bounded_degree.has_value()) {
        if (plan.bounded_degree_failed) {
          return Status::Unsupported(
              "planner: bounded-degree evaluator unavailable for this "
              "sentence");
        }
        const BdParams bd = BoundedDegreeParams(plan, s, routed.stats);
        if (!bd.structurally_eligible) {
          return Status::Unsupported(
              "planner: bounded-degree route ineligible: " + bd.reason);
        }
        BoundedDegreeEvaluator::Options options;
        options.threshold = bd.threshold;
        Result<BoundedDegreeEvaluator> evaluator =
            BoundedDegreeEvaluator::Create(plan.canonical.formula, options);
        if (!evaluator.ok()) {
          plan.bounded_degree_failed = true;
          return evaluator.status();
        }
        plan.bounded_degree.emplace(std::move(evaluator).value());
      }
      return plan.bounded_degree->Evaluate(s);
    }
  }
  return Status::Internal("planner: unknown engine");
}

Result<Relation> RunQuery(const Structure& s, const RoutedPlan& routed,
                          const std::vector<std::string>& output_variables) {
  const CachedFormulaPlan& plan = *routed.plan;
  FMTK_RETURN_IF_ERROR(
      CheckOutputVariables(plan.analysis.free_variables, output_variables));
  switch (routed.chosen) {
    case EngineKind::kNaive:
      return EvaluateQueryNaive(s, plan.canonical.formula, output_variables);
    case EngineKind::kCompiled:
      return EnumerateWithPlan(s, plan, output_variables,
                               routed.record_feedback);
    case EngineKind::kRelational:
      return EvaluateQuery(s, plan.canonical.formula, output_variables);
    case EngineKind::kDatalog:
      return RunDatalogLowering(s, plan, output_variables);
    case EngineKind::kParallel:
    case EngineKind::kBoundedDegree:
      return Status::Unsupported(
          std::string("planner: engine '") + EngineKindName(routed.chosen) +
          "' evaluates sentences only");
  }
  return Status::Internal("planner: unknown engine");
}

Result<PlanExplanation> PlanAuto(const Structure& structure,
                                 std::string_view text, bool query_mode,
                                 std::size_t output_count,
                                 const PlannerOptions& options) {
  FMTK_ASSIGN_OR_RETURN(
      RoutedPlan routed,
      PrepareAuto(structure, text, query_mode, output_count, options));
  return routed.Explain();
}

Result<bool> EvaluateAuto(const Structure& structure, const Formula& sentence,
                          const PlannerOptions& options,
                          PlanExplanation* explain) {
  FMTK_ASSIGN_OR_RETURN(
      RoutedPlan routed,
      PrepareAuto(structure, sentence, /*query_mode=*/false, 0, options));
  if (explain != nullptr) {
    *explain = routed.Explain();
  }
  return RunSentence(structure, routed);
}

Result<bool> EvaluateAuto(const Structure& structure,
                          std::string_view sentence_text,
                          const PlannerOptions& options,
                          PlanExplanation* explain) {
  FMTK_ASSIGN_OR_RETURN(
      RoutedPlan routed,
      PrepareAuto(structure, sentence_text, /*query_mode=*/false, 0,
                  options));
  if (explain != nullptr) {
    *explain = routed.Explain();
  }
  return RunSentence(structure, routed);
}

Result<Relation> EvaluateQueryAuto(
    const Structure& structure, const Formula& f,
    const std::vector<std::string>& output_variables,
    const PlannerOptions& options, PlanExplanation* explain) {
  FMTK_ASSIGN_OR_RETURN(
      RoutedPlan routed,
      PrepareAuto(structure, f, /*query_mode=*/true, output_variables.size(),
                  options));
  if (explain != nullptr) {
    *explain = routed.Explain();
  }
  return RunQuery(structure, routed, output_variables);
}

Result<Relation> EvaluateQueryAuto(
    const Structure& structure, std::string_view query_text,
    const std::vector<std::string>& output_variables,
    const PlannerOptions& options, PlanExplanation* explain) {
  FMTK_ASSIGN_OR_RETURN(
      RoutedPlan routed,
      PrepareAuto(structure, query_text, /*query_mode=*/true,
                  output_variables.size(), options));
  if (explain != nullptr) {
    *explain = routed.Explain();
  }
  return RunQuery(structure, routed, output_variables);
}

std::string DatalogPlanExplanation::ToString() const {
  std::string out = "route: " + route;
  out += cache_hit ? (text_cache_hit ? " (text cache hit)" : " (cache hit)")
                   : " (cache miss)";
  out += "\noptimized: ";
  out += optimized ? "yes" : "no";
  if (magic_applied) {
    out += "\nmagic sets: applied";
  }
  if (fo_expressible) {
    out += "\nbounded: program is FO-expressible";
  }
  for (const std::string& line : strata) {
    out += "\n" + line;
  }
  for (const std::string& line : boundedness) {
    out += "\nboundedness: " + line;
  }
  for (const std::string& line : rewrites) {
    out += "\nrewrite: " + line;
  }
  return out;
}

std::string DatalogPlanExplanation::ToJson() const {
  std::string out = "{\"route\":" + JsonQuote(route);
  out += ",\"cache_hit\":";
  out += cache_hit ? "true" : "false";
  out += ",\"text_cache_hit\":";
  out += text_cache_hit ? "true" : "false";
  out += ",\"optimized\":";
  out += optimized ? "true" : "false";
  out += ",\"magic_applied\":";
  out += magic_applied ? "true" : "false";
  out += ",\"fo_expressible\":";
  out += fo_expressible ? "true" : "false";
  out += ",\"strata\":";
  JsonAppendStringArray(out, strata);
  out += ",\"boundedness\":";
  JsonAppendStringArray(out, boundedness);
  out += ",\"rewrites\":";
  JsonAppendStringArray(out, rewrites);
  out += "}";
  return out;
}

namespace {

// Shared tail of both EvaluateDatalogAuto front doors: route (FO vs
// fixpoint), execute, and normalize the result-map shape so optimized and
// unoptimized runs are indistinguishable to callers — same keys (the
// outputs when given, every original IDB predicate otherwise; magic /
// adorned helper predicates never leak), missing predicates materialized
// as empty relations of the declared arity.
Result<std::map<std::string, Relation>> RunDatalogPlan(
    const Structure& edb, const std::shared_ptr<const CachedDatalogPlan>& plan,
    const PlannerOptions& options, DatalogStats* stats,
    const PlanCacheLookup& lk, DatalogPlanExplanation* explain) {
  const OptimizedDatalogProgram* opt =
      plan->optimized.has_value() ? &*plan->optimized : nullptr;
  if (explain != nullptr) {
    explain->cache_hit = lk.hit;
    explain->text_cache_hit = lk.text_hit;
    explain->optimized = opt != nullptr;
    explain->route = "datalog";
    if (opt != nullptr) {
      explain->magic_applied = opt->magic_applied;
      explain->fo_expressible = opt->fo_expressible;
      explain->rewrites = opt->RewriteSummary();
      explain->boundedness = opt->BoundednessSummary();
      explain->strata = opt->analysis.StratumSummary();
    } else {
      explain->strata = plan->analysis.StratumSummary();
    }
  }

  // The result-map key set and per-predicate arities, from the ORIGINAL
  // canonical program (rewrites may erase a predicate's rules entirely).
  std::map<std::string, std::size_t> arity;
  for (const DlRule& rule : plan->program.rules()) {
    arity[rule.head.predicate] = rule.head.terms.size();
  }
  std::vector<std::string> wanted;
  if (options.datalog_outputs.empty()) {
    for (const auto& [pred, a] : arity) {
      wanted.push_back(pred);
    }
  } else {
    for (const std::string& pred : options.datalog_outputs) {
      if (arity.count(pred) > 0) {
        wanted.push_back(pred);
      }
    }
  }
  auto normalize = [&](std::map<std::string, Relation> raw) {
    std::map<std::string, Relation> out;
    for (const std::string& pred : wanted) {
      auto it = raw.find(pred);
      if (it != raw.end()) {
        out.emplace(pred, std::move(it->second));
      } else {
        out.emplace(pred, Relation(arity.at(pred)));
      }
    }
    return out;
  };

  // Bounded programs: a union of first-order queries per output predicate.
  // Route through the formula planner (compiled/relational/... by cost);
  // any evaluation error falls back to the fixpoint engine below.
  if (opt != nullptr && opt->fo_expressible && options.datalog_fo_routing &&
      !opt->fo_queries.empty()) {
    std::map<std::string, Relation> out;
    bool all_ok = true;
    for (const auto& [pred, formula] : opt->fo_queries) {
      auto it = arity.find(pred);
      if (it == arity.end()) {
        all_ok = false;
        break;
      }
      std::vector<std::string> vars;
      vars.reserve(it->second);
      for (std::size_t i = 0; i < it->second; ++i) {
        vars.push_back("v" + std::to_string(i));
      }
      Result<Relation> rel = EvaluateQueryAuto(edb, formula, vars, options);
      if (!rel.ok()) {
        all_ok = false;
        break;
      }
      out.emplace(pred, std::move(*rel));
    }
    if (all_ok) {
      if (explain != nullptr) {
        explain->route = "fo";
      }
      if (stats != nullptr && opt != nullptr) {
        stats->strata = opt->analysis.StratumSummary();
      }
      return normalize(std::move(out));
    }
  }

  std::lock_guard<std::mutex> lock(plan->engines_mu);
  FMTK_ASSIGN_OR_RETURN(
      CompiledDatalogEngine engine,
      GetOrBindDatalogEngine(plan->engines, plan->ExecProgram(), edb));
  Result<std::map<std::string, Relation>> raw = engine.Evaluate(stats);
  if (!raw.ok()) {
    return raw.status();
  }
  return normalize(std::move(*raw));
}

DatalogPlanOptions DatalogPlanOptionsFrom(
    const PlannerOptions& options) {
  DatalogPlanOptions plan_options;
  plan_options.outputs = options.datalog_outputs;
  plan_options.optimize = options.optimize_datalog;
  return plan_options;
}

}  // namespace

Result<std::map<std::string, Relation>> EvaluateDatalogAuto(
    const Structure& edb, const DatalogProgram& program,
    const PlannerOptions& options, DatalogStats* stats,
    PlanCacheLookup* lookup, DatalogPlanExplanation* explain) {
  PlanCacheLookup local_lookup;
  PlanCacheLookup* lk = lookup != nullptr ? lookup : &local_lookup;
  std::optional<PlanCache> throwaway;
  FMTK_ASSIGN_OR_RETURN(std::shared_ptr<const CachedDatalogPlan> plan,
                        CacheFor(options, throwaway)
                            .GetDatalogPlan(program, edb.signature(),
                                            DatalogPlanOptionsFrom(options),
                                            lk));
  return RunDatalogPlan(edb, plan, options, stats, *lk, explain);
}

Result<std::map<std::string, Relation>> EvaluateDatalogAuto(
    const Structure& edb, std::string_view program_text,
    const PlannerOptions& options, DatalogStats* stats,
    PlanCacheLookup* lookup, DatalogPlanExplanation* explain) {
  PlanCacheLookup local_lookup;
  PlanCacheLookup* lk = lookup != nullptr ? lookup : &local_lookup;
  std::optional<PlanCache> throwaway;
  FMTK_ASSIGN_OR_RETURN(std::shared_ptr<const CachedDatalogPlan> plan,
                        CacheFor(options, throwaway)
                            .GetDatalogPlanFromText(
                                program_text, edb.signature(),
                                DatalogPlanOptionsFrom(options), lk));
  return RunDatalogPlan(edb, plan, options, stats, *lk, explain);
}

}  // namespace fmtk
