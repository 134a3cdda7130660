#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_set>
#include <utility>

#include "base/hash.h"
#include "datalog/evaluator.h"
#include "datalog/program.h"
#include "eval/model_check.h"
#include "eval/query_eval.h"
#include "logic/parser.h"
#include "planner/planner.h"
#include "server/json_value.h"
#include "structures/bulk_load.h"
#include "structures/signature.h"
#include "util.h"

namespace fmtkbench {

using fmtk::Element;
using fmtk::Structure;

namespace {

// --- Structures ---------------------------------------------------------------

using Edges = std::vector<std::pair<Element, Element>>;

/// FO on structures this small takes the reference model checker as oracle.
constexpr std::size_t kTinyDomain = 16;
/// Datalog on structures this small takes the seed interpreter as oracle;
/// every program on a larger structure carries a GraphAnswer.
constexpr std::size_t kSeedInterpreterDomain = 48;

/// A graph on n elements whose labels are shuffled by the seed, so the same
/// shape gets fresh element ids (and fresh answers) per seed.
Structure BuildGraph(std::size_t n, const Edges& edges, Rng& rng) {
  std::vector<Element> label(n);
  std::iota(label.begin(), label.end(), Element{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(label[i - 1], label[rng.Below(i)]);
  }
  Structure s(fmtk::Signature::Graph(), n);
  for (const auto& [a, b] : edges) s.AddTuple(0, {label[a], label[b]});
  return s;
}

Edges CycleEdges(std::size_t n) {
  Edges e;
  for (std::size_t i = 0; i < n; ++i) {
    e.emplace_back(static_cast<Element>(i), static_cast<Element>((i + 1) % n));
  }
  return e;
}

Edges PathEdges(std::size_t n) {
  Edges e;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    e.emplace_back(static_cast<Element>(i), static_cast<Element>(i + 1));
  }
  return e;
}

Edges RandomEdges(std::size_t n, double p, Rng& rng) {
  Edges e;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a != b && rng.Chance(p)) {
        e.emplace_back(static_cast<Element>(a), static_cast<Element>(b));
      }
    }
  }
  return e;
}

/// Random recursive tree: the parent of i is uniform in [0, i).
Edges TreeEdges(std::size_t n, Rng& rng) {
  Edges e;
  for (std::size_t i = 1; i < n; ++i) {
    e.emplace_back(static_cast<Element>(rng.Below(i)), static_cast<Element>(i));
  }
  return e;
}

/// `components` copies of a `size`-cycle, each with one chord per element
/// at a seeded stride: out-degree 2, in-degree 2.
Edges ChordedCycles(std::size_t components, std::size_t size, Rng& rng) {
  Edges e;
  for (std::size_t c = 0; c < components; ++c) {
    const std::size_t base = c * size;
    const std::size_t stride = 2 + rng.Below(8);
    for (std::size_t i = 0; i < size; ++i) {
      e.emplace_back(static_cast<Element>(base + i),
                     static_cast<Element>(base + (i + 1) % size));
      e.emplace_back(static_cast<Element>(base + i),
                     static_cast<Element>(base + (i + stride) % size));
    }
  }
  return e;
}

std::string EdgeListText(const Structure& s) {
  std::string out;
  const fmtk::Relation& r = s.relation(0);
  out.reserve(r.size() * 12);
  for (std::size_t i = 0; i < r.size(); ++i) {
    const Element* row = r.TupleData(i);
    out += std::to_string(row[0]);
    out += ' ';
    out += std::to_string(row[1]);
    out += '\n';
  }
  return out;
}

/// Every element of s must occur in an edge for the edge-list form to
/// carry the same domain; callers use FMTKBIN1 otherwise.
bool EveryElementOnAnEdge(const Structure& s) {
  std::vector<bool> seen(s.domain_size(), false);
  const fmtk::Relation& r = s.relation(0);
  for (std::size_t i = 0; i < r.size(); ++i) {
    seen[r.TupleData(i)[0]] = true;
    seen[r.TupleData(i)[1]] = true;
  }
  return std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
}

std::string PutForm(const Structure& s, bool binary, std::string* target,
                    const std::string& name) {
  if (binary || !EveryElementOnAnEdge(s)) {
    *target = "/structure/" + name + "?format=bin";
    return fmtk::SerializeStructureBinary(s);
  }
  *target = "/structure/" + name + "?format=edges&ids=numeric";
  return EdgeListText(s);
}

void Publish(Workload* w, std::string name, Structure s, bool binary) {
  Published p{std::move(name), std::move(s), {}, {}, {}};
  p.body = PutForm(p.structure, binary, &p.target, p.name);
  p.raw = HttpPut(p.target, p.body);
  w->structures.push_back(std::move(p));
}

// --- Requests -----------------------------------------------------------------

std::string JsonStringArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonStr(items[i]);
  }
  return out + "]";
}

Request MakeRequest(Request::Kind kind, std::string structure, std::string text,
                    std::vector<std::string> outputs = {}) {
  Request r;
  r.kind = kind;
  r.structure = std::move(structure);
  r.text = std::move(text);
  r.outputs = std::move(outputs);
  r.body = "{\"structure\":" + JsonStr(r.structure);
  r.body += kind == Request::Kind::kDatalog ? ",\"program\":" : ",\"query\":";
  r.body += JsonStr(r.text);
  if (kind != Request::Kind::kSentence) {
    r.body += ",\"outputs\":" + JsonStringArray(r.outputs);
  }
  r.body += "}";
  r.raw = HttpPost(kind == Request::Kind::kDatalog ? "/datalog" : "/query",
                   r.body);
  return r;
}

Request Sentence(const std::string& s, std::string text) {
  return MakeRequest(Request::Kind::kSentence, s, std::move(text));
}
Request Query(const std::string& s, std::string text,
              std::vector<std::string> outputs) {
  return MakeRequest(Request::Kind::kQuery, s, std::move(text),
                     std::move(outputs));
}
Request Program(const std::string& s, std::string text,
                std::vector<std::string> outputs, GraphAnswer graph = {}) {
  Request r = MakeRequest(Request::Kind::kDatalog, s, std::move(text),
                          std::move(outputs));
  r.graph_answer = graph;
  return r;
}

/// Zipf(1) stream over `ranked` (most popular first), in blocks of 1000
/// that each hold the exact Zipf mix.
std::vector<std::uint32_t> ZipfStream(const std::vector<std::uint32_t>& ranked,
                                      std::size_t length, Rng& rng) {
  std::vector<double> weights;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    weights.push_back(1.0 / static_cast<double>(i + 1));
  }
  return BalancedStream(ranked, weights, 1000, length, rng);
}

// warm_mix: 24 requests over a 2048-cycle, a 40-node random digraph, a
// 1023-node random tree, a 48-node chain and a 20-node random digraph.
void BuildWarmMix(std::uint64_t seed, std::size_t stream_length, Workload* w) {
  Rng rng(seed);
  Publish(w, "ring", BuildGraph(2048, CycleEdges(2048), rng), false);
  Publish(w, "dense", BuildGraph(40, RandomEdges(40, 0.12, rng), rng), true);
  Publish(w, "tree", BuildGraph(1023, TreeEdges(1023, rng), rng), false);
  Publish(w, "chain", BuildGraph(48, PathEdges(48), rng), false);
  Publish(w, "small", BuildGraph(20, RandomEdges(20, 0.15, rng), rng), true);
  const auto ring_c =
      static_cast<Element>(rng.Below(FindStructure(*w, "ring")->domain_size()));
  const std::string small_c =
      std::to_string(rng.Below(FindStructure(*w, "small")->domain_size()));
  const auto tree_c =
      static_cast<Element>(rng.Below(FindStructure(*w, "tree")->domain_size()));
  using G = GraphAnswer::Kind;

  const std::string tc =
      "tc(x,y) :- E(x,y). tc(x,z) :- tc(x,y), E(y,z).";
  const std::string sg =
      "sg(x,y) :- E(p,x), E(p,y). sg(x,y) :- E(p,x), E(q,y), sg(p,q).";
  w->requests = {
      /*0*/ Sentence("ring", "forall x. exists y. E(x,y)"),
      /*1*/ Sentence("ring", "exists x. exists y. E(x,y) & E(y,x)"),
      /*2*/ Sentence("ring", "exists x. exists y. exists z. E(x,y) & E(y,z) & E(z,x)"),
      /*3*/ Query("ring", "exists y. E(x,y) & E(y,z)", {"x", "z"}),
      /*4*/ Program("ring", "reach(y) :- E(" + std::to_string(ring_c) + ",y). reach(y) :- reach(x), E(x,y).", {"reach"}, {G::kForward, ring_c}),
      /*5*/ Sentence("dense", "forall x. exists y. E(x,y) & E(y,x)"),
      /*6*/ Sentence("dense", "exists x. forall y. (x = y | E(x,y) | E(y,x))"),
      /*7*/ Sentence("dense", "forall x. forall y. (x = y | exists z. E(x,z) & E(z,y))"),
      /*8*/ Query("dense", "E(x,y) & E(y,x)", {"x", "y"}),
      /*9*/ Query("dense", "E(x,y) & ~E(y,x)", {"x", "y"}),
      /*10*/ Program("dense", "r(x,y) :- E(x,y), E(y,x).", {"r"}),
      /*11*/ Program("dense", tc, {"tc"}),
      /*12*/ Program("small", sg, {"sg"}),
      /*13*/ Sentence("tree", "forall x. (exists y. E(y,x)) | (exists z. E(x,z))"),
      /*14*/ Sentence("tree", "exists x. exists y. exists z. E(x,y) & E(y,z) & E(x,z)"),
      /*15*/ Query("tree", "exists y. E(x,y) & exists z. E(y,z)", {"x"}),
      /*16*/ Query("tree", "E(x,y) & E(y,z)", {"x", "y", "z"}),
      /*17*/ Program("small", sg + " goal(y) :- sg(" + small_c + ",y).", {"goal"}),
      /*18*/ Program("tree", tc + " goal(y) :- tc(" + std::to_string(tree_c) + ",y).", {"goal"}, {G::kForward, tree_c}),
      /*19*/ Sentence("chain", "exists x. exists y. exists z. E(x,y) & E(y,z) & E(z,x)"),
      /*20*/ Sentence("chain", "forall x. forall y. (E(x,y) -> ~E(y,x))"),
      /*21*/ Query("chain", "exists z. E(x,z) & E(z,y)", {"x", "y"}),
      /*22*/ Program("chain", tc, {"tc"}),
      /*23*/ Program("chain", "two(x,z) :- E(x,y), E(y,z). three(x,w) :- two(x,z), E(z,w).", {"three"}),
  };
  // Popularity is fixed (not seeded) so every seed sends the same mix.
  const std::vector<std::uint32_t> ranked = {0,  5,  13, 8,  19, 11, 3,  17,
                                             1,  6,  21, 10, 14, 4,  15, 22,
                                             2,  7,  16, 12, 20, 9,  18, 23};
  w->stream = ZipfStream(ranked, stream_length, rng);
  w->warmup.resize(w->requests.size());
  std::iota(w->warmup.begin(), w->warmup.end(), 0u);
}

// cold_stream: random FO sentences and Datalog programs over tiny
// structures; every text is new, and every eighth is an alpha-renaming of a
// recent one (a canonical-layer hit, a text-layer miss).

struct FoNode {
  enum Op { kEdge, kEq, kNot, kAnd, kOr, kExists, kForall } op = kEdge;
  int a = 0, b = 0;  // Atom variables, or the quantified variable in a.
  std::unique_ptr<FoNode> left, right;
};

std::unique_ptr<FoNode> RandomFo(Rng& rng, std::vector<int>& scope, int depth,
                                 int rank_left, int& next_var) {
  auto node = std::make_unique<FoNode>();
  const bool can_quantify = rank_left > 0;
  if (!scope.empty() && (depth <= 0 || rng.Chance(0.3))) {
    node->op = rng.Chance(0.8) ? FoNode::kEdge : FoNode::kEq;
    node->a = scope[rng.Below(scope.size())];
    node->b = scope[rng.Below(scope.size())];
    return node;
  }
  if (scope.empty() || (can_quantify && rng.Chance(0.45))) {
    node->op = rng.Chance(0.5) ? FoNode::kExists : FoNode::kForall;
    node->a = next_var++;
    scope.push_back(node->a);
    node->left = RandomFo(rng, scope, depth - 1, rank_left - 1, next_var);
    scope.pop_back();
    return node;
  }
  if (rng.Chance(0.2)) {
    node->op = FoNode::kNot;
    node->left = RandomFo(rng, scope, depth - 1, rank_left, next_var);
    return node;
  }
  node->op = rng.Chance(0.5) ? FoNode::kAnd : FoNode::kOr;
  node->left = RandomFo(rng, scope, depth - 1, rank_left, next_var);
  node->right = RandomFo(rng, scope, depth - 1, rank_left, next_var);
  return node;
}

void PrintFo(const FoNode& n, const std::vector<std::string>& names,
             std::string& out) {
  switch (n.op) {
    case FoNode::kEdge:
      out += "E(" + names[n.a] + "," + names[n.b] + ")";
      return;
    case FoNode::kEq:
      out += names[n.a] + " = " + names[n.b];
      return;
    case FoNode::kNot:
      out += "~(";
      PrintFo(*n.left, names, out);
      out += ")";
      return;
    case FoNode::kAnd:
    case FoNode::kOr:
      out += "(";
      PrintFo(*n.left, names, out);
      out += n.op == FoNode::kAnd ? " & " : " | ";
      PrintFo(*n.right, names, out);
      out += ")";
      return;
    case FoNode::kExists:
    case FoNode::kForall:
      out += n.op == FoNode::kExists ? "exists " : "forall ";
      out += names[n.a] + ". (";
      PrintFo(*n.left, names, out);
      out += ")";
      return;
  }
}

/// Variable names for one text: a seeded prefix and suffix, so two texts
/// of one formula differ only by an alpha-renaming.
std::vector<std::string> RandomNames(Rng& rng, int count) {
  static const char* kPrefixes[] = {"x", "y", "v", "u", "w", "t", "s", "r"};
  const std::string prefix = kPrefixes[rng.Below(8)];
  std::vector<std::string> names;
  const std::uint64_t offset = rng.Below(1000);
  for (int i = 0; i < count; ++i) {
    names.push_back(prefix + std::to_string(offset + static_cast<std::uint64_t>(i)));
  }
  return names;
}

struct ColdText {
  bool datalog = false;
  std::string structure;
  std::unique_ptr<FoNode> fo;  // FO sentence
  int vars = 0;
  // Datalog: rule templates over variable slots A..C and an output name.
  std::vector<std::string> rule_templates;
  std::string output;
};

std::string RenderDatalog(const ColdText& t, const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& tmpl : t.rule_templates) {
    for (const char c : tmpl) {
      if (c >= 'A' && c <= 'C') {
        out += names[c - 'A'];
      } else {
        out += c;
      }
    }
    out += ' ';
  }
  out.pop_back();
  return out;
}

ColdText RandomDatalog(Rng& rng, const std::string& structure) {
  ColdText t;
  t.datalog = true;
  t.structure = structure;
  const std::string p = "p" + std::to_string(rng.Below(1000000));
  static const char* kBase[] = {"P(A,B) :- E(A,B).", "P(A,B) :- E(B,A).",
                                "P(A,B) :- E(A,C), E(C,B).",
                                "P(A,B) :- E(A,C), E(B,C)."};
  static const char* kStep[] = {"P(A,B) :- P(A,C), E(C,B).",
                                "P(A,B) :- E(A,C), P(C,B).",
                                "P(A,B) :- P(A,C), P(C,B).", ""};
  static const char* kTop[] = {"Q(A) :- P(A,A).", "Q(A) :- P(A,B), E(B,A).",
                               "Q(A) :- P(B,A).", ""};
  auto fill = [&](std::string tmpl) {
    std::string out;
    for (const char c : tmpl) {
      if (c == 'P') {
        out += p;
      } else if (c == 'Q') {
        out += "q" + p.substr(1);
      } else {
        out += c;
      }
    }
    return out;
  };
  t.rule_templates.push_back(fill(kBase[rng.Below(4)]));
  if (const std::string step = kStep[rng.Below(4)]; !step.empty()) {
    t.rule_templates.push_back(fill(step));
  }
  if (const std::string top = kTop[rng.Below(4)]; !top.empty()) {
    t.rule_templates.push_back(fill(top));
    t.output = "q" + p.substr(1);
  } else {
    t.output = p;
  }
  t.vars = 3;
  return t;
}

void BuildColdStream(std::uint64_t seed, std::size_t stream_length,
                     Workload* w) {
  Rng rng(seed);
  Publish(w, "c5", BuildGraph(5, CycleEdges(5), rng), false);
  Publish(w, "g8", BuildGraph(8, RandomEdges(8, 0.35, rng), rng), true);
  Publish(w, "p6", BuildGraph(6, PathEdges(6), rng), false);
  Publish(w, "g7", BuildGraph(7, RandomEdges(7, 0.3, rng), rng), true);
  static const char* kNames[] = {"c5", "g8", "p6", "g7"};

  std::vector<ColdText> texts;
  std::unordered_set<std::string> seen;
  while (w->requests.size() < stream_length) {
    const bool rename = texts.size() >= 16 && w->requests.size() % 8 == 7;
    const ColdText* source = nullptr;
    ColdText fresh;
    if (rename) {
      source = &texts[texts.size() - 1 - rng.Below(16)];
    } else if (rng.Chance(0.3)) {
      fresh = RandomDatalog(rng, kNames[rng.Below(4)]);
      source = &fresh;
    } else {
      fresh.structure = kNames[rng.Below(4)];
      std::vector<int> scope;
      int next_var = 0;
      fresh.fo = RandomFo(rng, scope, 6, 4, next_var);
      fresh.vars = next_var;
      source = &fresh;
    }
    const std::vector<std::string> names = RandomNames(rng, source->vars);
    std::string text;
    if (source->datalog) {
      text = RenderDatalog(*source, names);
    } else {
      PrintFo(*source->fo, names, text);
    }
    if (!seen.insert(text).second) continue;
    w->requests.push_back(
        source->datalog ? Program(source->structure, text, {source->output})
                        : Sentence(source->structure, text));
    if (!rename) texts.push_back(std::move(fresh));
  }
  w->stream.resize(w->requests.size());
  std::iota(w->stream.begin(), w->stream.end(), 0u);
}

// ingest_query: one ~10^5-edge bounded-degree structure re-published by a
// writer while readers query it.
void BuildIngestQuery(std::uint64_t seed, std::size_t stream_length,
                      Workload* w) {
  Rng rng(seed);
  Structure live = BuildGraph(50000, ChordedCycles(2500, 20, rng), rng);
  std::string target;
  for (const bool binary : {false, true}) {
    const std::string body = PutForm(live, binary, &target, "live");
    w->writer_puts.push_back(HttpPut(target, body));
  }
  Publish(w, "live", std::move(live), false);
  Element c[4];
  for (Element& e : c) e = static_cast<Element>(rng.Below(50000));
  auto id = [&](int i) { return std::to_string(c[i]); };
  using G = GraphAnswer::Kind;
  // Reads that are cheap once bound, so their cost after each publish is
  // the rebinding; the scan sentence re-derives the structure's stats.
  w->requests = {
      Program("live", "reach(y) :- E(" + id(0) + ",y). reach(y) :- reach(x), E(x,y).",
              {"reach"}, {G::kForward, c[0]}),
      Program("live",
              "tc(x,y) :- E(x,y). tc(x,z) :- tc(x,y), E(y,z). goal(y) :- tc(" +
                  id(1) + ",y).",
              {"goal"}, {G::kForward, c[1]}),
      Program("live", "two(x,z) :- E(x,y), E(y,z). goal(z) :- two(" + id(2) + ",z).",
              {"goal"}, {G::kTwoSteps, c[2]}),
      Program("live",
              "back(x) :- E(" + id(3) + ",x). back(x) :- back(y), E(x,y).",
              {"back"}, {G::kBackward, c[3]}),
      Sentence("live", "exists x. E(x,x)"),
  };
  // One read in five is the scan sentence, so the median stays among the
  // bound programs.
  w->stream = BalancedStream({0, 1, 2, 3, 4}, {1, 1, 1, 1, 1}, 20,
                             stream_length, rng);
  w->warmup.resize(w->requests.size());
  std::iota(w->warmup.begin(), w->warmup.end(), 0u);
}

// --- Oracles ------------------------------------------------------------------

/// The oracle engine for an FO request: the first engine of a fixed
/// preference list that the planner marks eligible and that is not the one
/// it routes to (the compiled engine's serial and parallel forms count as
/// one path). The list puts the engines first whose cost does not blow up
/// on the workloads' shapes; the planner's own cost table is not used,
/// since misestimates are what the benchmark is meant to expose.
std::optional<fmtk::EngineKind> OracleEngine(const fmtk::PlanExplanation& plan) {
  auto family = [](fmtk::EngineKind k) {
    return k == fmtk::EngineKind::kParallel ? fmtk::EngineKind::kCompiled : k;
  };
  for (const fmtk::EngineKind k :
       {fmtk::EngineKind::kRelational, fmtk::EngineKind::kDatalog,
        fmtk::EngineKind::kNaive, fmtk::EngineKind::kCompiled}) {
    if (k == family(plan.chosen)) continue;
    for (const fmtk::EngineCost& cost : plan.costs) {
      if (cost.engine == k && cost.eligible) return k;
    }
  }
  return std::nullopt;
}

fmtk::Result<Answer> ModelCheckerOracle(const Structure& s, const Request& r) {
  FMTK_ASSIGN_OR_RETURN(fmtk::Formula f,
                        fmtk::ParseFormula(r.text, &s.signature()));
  fmtk::ModelChecker checker(s);
  Answer a;
  FMTK_ASSIGN_OR_RETURN(a.verdict, checker.Check(f));
  return a;
}

fmtk::Result<Answer> FoOracle(const Structure& s, const Request& r,
                              const fmtk::PlanExplanation& plan,
                              std::string* path) {
  FMTK_ASSIGN_OR_RETURN(fmtk::Formula f,
                        fmtk::ParseFormula(r.text, &s.signature()));
  const bool query_mode = r.kind == Request::Kind::kQuery;
  Answer a;
  const std::optional<fmtk::EngineKind> engine = OracleEngine(plan);
  if (!engine.has_value()) {
    // Only one engine applies: fall back to the reference interpreters.
    *path = "reference";
    if (!query_mode) return ModelCheckerOracle(s, r);
    FMTK_ASSIGN_OR_RETURN(fmtk::Relation rows,
                          fmtk::EvaluateQuery(s, f, r.outputs));
    a.relations.emplace_back("", DigestRelation(rows));
    return a;
  }
  fmtk::PlannerOptions forced;
  forced.use_cache = false;
  forced.force_engine = engine;
  *path = std::string("forced-") + fmtk::EngineKindName(*engine);
  if (query_mode) {
    FMTK_ASSIGN_OR_RETURN(fmtk::Relation rows,
                          fmtk::EvaluateQueryAuto(s, f, r.outputs, forced));
    a.relations.emplace_back("", DigestRelation(rows));
  } else {
    FMTK_ASSIGN_OR_RETURN(a.verdict, fmtk::EvaluateAuto(s, f, forced));
  }
  return a;
}

/// GraphAnswer by breadth-first search over the structure's edge relation.
fmtk::Relation SolveGraphAnswer(const Structure& s, const GraphAnswer& g) {
  const fmtk::Relation& edges = s.relation(0);
  const bool backward = g.kind == GraphAnswer::Kind::kBackward;
  std::vector<std::vector<Element>> next(s.domain_size());
  std::vector<Element> start;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Element* row = edges.TupleData(i);
    next[backward ? row[1] : row[0]].push_back(backward ? row[0] : row[1]);
    if (row[0] == g.from) start.push_back(row[1]);
  }
  std::vector<bool> seen(s.domain_size(), false);
  std::vector<Element> found;
  auto visit = [&](Element e) {
    if (!seen[e]) {
      seen[e] = true;
      found.push_back(e);
    }
  };
  if (g.kind == GraphAnswer::Kind::kTwoSteps) {
    for (const Element y : start) {
      for (const Element z : next[y]) visit(z);
    }
  } else {
    for (const Element y : start) visit(y);
    for (std::size_t i = 0; i < found.size(); ++i) {
      for (const Element z : next[found[i]]) visit(z);
    }
  }
  fmtk::Relation out(1);
  for (const Element e : found) out.Add({e});
  return out;
}

const char* GraphAnswerName(GraphAnswer::Kind kind) {
  switch (kind) {
    case GraphAnswer::Kind::kForward:
      return "bfs-forward";
    case GraphAnswer::Kind::kBackward:
      return "bfs-backward";
    case GraphAnswer::Kind::kTwoSteps:
      return "two-steps";
    case GraphAnswer::Kind::kNone:
      break;
  }
  return "none";
}

/// Datalog: a path that shares no engine with the served one. Programs
/// with a GraphAnswer are answered by graph search in the benchmark; the
/// rest, all on structures of at most kSeedInterpreterDomain elements, by
/// the seed semi-naive interpreter on the unoptimized program outside the
/// planner (no optimizer rewrites, magic sets, FO routing, plan cache or
/// compiled engine).
fmtk::Result<Answer> DatalogOracle(const Structure& s, const Request& r,
                                   std::string* path) {
  Answer a;
  if (r.graph_answer.kind != GraphAnswer::Kind::kNone) {
    *path = GraphAnswerName(r.graph_answer.kind);
    const RowDigest digest = DigestRelation(SolveGraphAnswer(s, r.graph_answer));
    for (const std::string& out : r.outputs) a.relations.emplace_back(out, digest);
    return a;
  }
  if (s.domain_size() > kSeedInterpreterDomain) {
    return fmtk::Status::Unsupported("no independent oracle for a program on " +
                                     std::to_string(s.domain_size()) +
                                     " elements");
  }
  FMTK_ASSIGN_OR_RETURN(fmtk::DatalogProgram program,
                        fmtk::ParseDatalogProgram(r.text));
  FMTK_ASSIGN_OR_RETURN(
      auto idb, fmtk::EvaluateDatalog(program, s,
                                      fmtk::DatalogStrategy::kSeedSemiNaive));
  *path = "seed-semi-naive";
  for (const std::string& out : r.outputs) {
    auto it = idb.find(out);
    a.relations.emplace_back(out, it == idb.end() ? RowDigest{}
                                                  : DigestRelation(it->second));
  }
  return a;
}

}  // namespace

const fmtk::Structure* FindStructure(const Workload& w,
                                    const std::string& name) {
  for (const Published& p : w.structures) {
    if (p.name == name) return &p.structure;
  }
  return nullptr;
}

RowDigest DigestRelation(const fmtk::Relation& relation) {
  RowDigest d;
  d.rows = relation.size();
  for (std::size_t i = 0; i < relation.size(); ++i) {
    const Element* row = relation.TupleData(i);
    std::uint64_t h = 0x51ed270b27302fd1ull;
    for (std::size_t c = 0; c < relation.arity(); ++c) {
      h = fmtk::Mix64(h ^ (static_cast<std::uint64_t>(row[c]) + 0x9e37u * c));
    }
    d.hash += fmtk::Mix64(h);
  }
  return d;
}

bool GenerateServerWorkload(const std::string& name, std::uint64_t seed,
                            std::size_t stream_length, Workload* out) {
  out->name = name;
  if (name == "warm_mix") {
    BuildWarmMix(seed, stream_length, out);
  } else if (name == "cold_stream") {
    BuildColdStream(seed, stream_length, out);
  } else if (name == "ingest_query") {
    BuildIngestQuery(seed, stream_length, out);
  } else {
    return false;
  }
  return true;
}

bool ComputeAnswers(Workload* w) {
  fmtk::PlanCache cache;
  fmtk::PlannerOptions options;
  options.cache = &cache;
  w->answers.clear();
  w->predicted_route.clear();
  w->oracle_path.clear();
  for (const Request& r : w->requests) {
    const Structure* found = FindStructure(*w, r.structure);
    if (found == nullptr) return false;
    const Structure& s = *found;
    std::string path;
    std::string route = "datalog-program";
    fmtk::Result<Answer> answer = fmtk::Status::Internal("unset");
    const Clock::time_point start = Clock::now();
    if (r.kind == Request::Kind::kDatalog) {
      answer = DatalogOracle(s, r, &path);
    } else if (s.domain_size() <= kTinyDomain && r.kind == Request::Kind::kSentence) {
      // No router picks the reference interpreter, so on tiny structures
      // it is a different path whatever the route.
      route = "unpredicted";
      path = "model-checker";
      answer = ModelCheckerOracle(s, r);
    } else {
      const bool query_mode = r.kind == Request::Kind::kQuery;
      fmtk::Result<fmtk::PlanExplanation> plan =
          fmtk::PlanAuto(s, r.text, query_mode, r.outputs.size(), options);
      if (!plan.ok()) {
        std::fprintf(stderr, "perfbench: cannot plan %s: %s\n", r.text.c_str(),
                     plan.status().ToString().c_str());
        return false;
      }
      route = fmtk::EngineKindName(plan->chosen);
      answer = FoOracle(s, r, *plan, &path);
    }
    if (!answer.ok()) {
      std::fprintf(stderr, "perfbench: oracle failed on %s: %s\n",
                   r.text.c_str(), answer.status().ToString().c_str());
      return false;
    }
    const double seconds = SecondsBetween(start, Clock::now());
    if (seconds > 0.5) {
      std::fprintf(stderr, "perfbench: slow oracle (%.2f s, route %s, %s): %s\n",
                   seconds, route.c_str(), path.c_str(), r.text.c_str());
    }
    w->answers.push_back(*std::move(answer));
    w->predicted_route.push_back(route);
    w->oracle_path.push_back(path);
  }
  return true;
}

namespace {

RowDigest DigestJsonRows(const fmtk::JsonValue& holder) {
  RowDigest d;
  const auto count = holder.FindNumber("row_count");
  d.rows = count ? static_cast<std::size_t>(*count) : 0;
  const fmtk::JsonValue* rows = holder.Find("rows");
  if (rows == nullptr) return d;
  for (const fmtk::JsonValue& row : rows->array_items()) {
    std::uint64_t h = 0x51ed270b27302fd1ull;
    std::size_t c = 0;
    for (const fmtk::JsonValue& cell : row.array_items()) {
      h = fmtk::Mix64(h ^ (static_cast<std::uint64_t>(cell.number_value()) +
                           0x9e37u * c));
      ++c;
    }
    d.hash += fmtk::Mix64(h);
  }
  return d;
}

}  // namespace

bool CheckResponse(const Request& request, const Answer& expected,
                   std::string_view body) {
  fmtk::Result<fmtk::JsonValue> json = fmtk::JsonValue::Parse(body);
  if (!json.ok() || !json->is_object()) return false;
  switch (request.kind) {
    case Request::Kind::kSentence:
      return json->FindBool("result") == expected.verdict;
    case Request::Kind::kQuery:
      return DigestJsonRows(*json) == expected.relations.at(0).second;
    case Request::Kind::kDatalog: {
      const fmtk::JsonValue* relations = json->Find("relations");
      if (relations == nullptr) return false;
      for (const auto& [name, digest] : expected.relations) {
        const fmtk::JsonValue* rel = relations->Find(name);
        const RowDigest got = rel == nullptr ? RowDigest{} : DigestJsonRows(*rel);
        if (!(got == digest)) return false;
      }
      return true;
    }
  }
  return false;
}

std::string_view AnswerPrefix(const Request& request, std::string_view body) {
  const std::string_view marker = request.kind == Request::Kind::kDatalog
                                      ? std::string_view(",\"cache_hit\"")
                                      : std::string_view(",\"engine\"");
  const std::size_t pos = body.find(marker);
  return pos == std::string_view::npos ? body : body.substr(0, pos);
}

}  // namespace fmtkbench
