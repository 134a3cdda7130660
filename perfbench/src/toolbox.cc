#include "toolbox.h"

#include <numeric>
#include <utility>

#include "core/games/ef_game.h"
#include "core/games/linear_order.h"
#include "core/games/pebble_game.h"
#include "core/locality/gaifman_local.h"
#include "core/locality/hanf.h"
#include "core/locality/locality_engine.h"
#include "structures/bulk_load.h"

namespace fmtkbench {

namespace {

using fmtk::Element;

std::string EdgeText(const std::vector<std::pair<Element, Element>>& edges) {
  std::string out;
  for (const auto& [a, b] : edges) {
    out += std::to_string(a) + " " + std::to_string(b) + "\n";
  }
  return out;
}

std::string LinearOrderText(std::size_t m) {
  std::vector<std::pair<Element, Element>> edges;
  for (Element i = 0; i < m; ++i) {
    for (Element j = i + 1; j < m; ++j) edges.emplace_back(i, j);
  }
  return EdgeText(edges);
}

/// `copies` directed cycles of length m on shuffled labels; `first` gets the
/// labels of the first cycle.
std::string CyclesText(std::size_t copies, std::size_t m, Rng& rng,
                       std::vector<Element>* first) {
  const std::size_t n = copies * m;
  std::vector<Element> label(n);
  std::iota(label.begin(), label.end(), Element{0});
  for (std::size_t i = n; i > 1; --i) std::swap(label[i - 1], label[rng.Below(i)]);
  std::vector<std::pair<Element, Element>> edges;
  for (std::size_t c = 0; c < copies; ++c) {
    for (std::size_t i = 0; i < m; ++i) {
      edges.emplace_back(label[c * m + i], label[c * m + (i + 1) % m]);
    }
  }
  if (first != nullptr) first->assign(label.begin(), label.begin() + m);
  return EdgeText(edges);
}

}  // namespace

ToolboxBatch GenerateToolbox(std::uint64_t seed, std::size_t stream_length) {
  Rng rng(seed);
  ToolboxBatch batch;
  // Linear orders L_4 .. L_10 at indices 0 .. 6: L_m is index m - 4.
  for (std::size_t m = 4; m <= 10; ++m) batch.texts.push_back(LinearOrderText(m));
  auto order = [](std::size_t m) { return m - 4; };

  std::vector<ToolboxOp> ops;
  auto ef = [&](std::size_t n, std::size_t m, std::size_t k) {
    ToolboxOp op;
    op.kind = ToolboxOp::Kind::kEf;
    op.a = order(m);
    op.b = order(k);
    op.rounds = n;
    op.expected = fmtk::LinearOrdersEquivalent(m, k, n);
    ops.push_back(op);
  };
  // Thm 3.1: L_m =_n L_k iff m = k or both >= 2^n - 1 (7 for n = 3).
  ef(3, 7, 8);
  ef(3, 6, 7);
  ef(3, 7, 10);
  ef(3, 5, 9);
  ef(3, 8, 9);
  ef(3, 6, 9);
  ef(3, 4, 7);
  // With at least as many pebbles as rounds the pebble game is the EF game,
  // so Thm 3.1 gives its value too.
  auto pebble = [&](std::size_t p, std::size_t n, std::size_t m, std::size_t k) {
    ToolboxOp op;
    op.kind = ToolboxOp::Kind::kPebble;
    op.a = order(m);
    op.b = order(k);
    op.rounds = n;
    op.pebbles = p;
    op.expected = fmtk::LinearOrdersEquivalent(m, k, n);
    ops.push_back(op);
  };
  pebble(3, 3, 7, 8);
  pebble(3, 3, 6, 7);
  pebble(3, 3, 5, 8);
  pebble(3, 3, 7, 9);

  // Thm 3.8: two m-cycles vs one 2m-cycle are Hanf-equivalent at radius r
  // iff m > 2r + 1.
  for (const std::size_t m : {std::size_t{12}, std::size_t{300}}) {
    const std::size_t pair = batch.texts.size();
    std::vector<Element> first;
    batch.texts.push_back(CyclesText(2, m, rng, &first));
    batch.texts.push_back(CyclesText(1, 2 * m, rng, nullptr));
    for (const std::size_t r : {std::size_t{2}, std::size_t{3}, std::size_t{6}}) {
      ToolboxOp op;
      op.kind = ToolboxOp::Kind::kHanf;
      op.a = pair;
      op.b = pair + 1;
      op.rounds = r;
      op.expected = m > 2 * r + 1;
      ops.push_back(op);
    }
    // The first cycle of the pair is not a Gaifman-local query: an element
    // of either cycle has the same r-neighbourhood, at every radius.
    ToolboxOp op;
    op.kind = ToolboxOp::Kind::kGaifman;
    op.a = pair;
    op.rounds = 2;
    op.output = batch.outputs.size();
    op.expected = true;
    fmtk::Relation output(1);
    for (const Element e : first) output.Add({e});
    batch.outputs.push_back(std::move(output));
    ops.push_back(op);
  }
  batch.ops = std::move(ops);
  // Every run of ops.size() calls is one call of each op, in seeded order.
  std::vector<std::uint32_t> ids(batch.ops.size());
  std::iota(ids.begin(), ids.end(), 0u);
  batch.stream = BalancedStream(ids, std::vector<double>(ids.size(), 1.0),
                                ids.size(), stream_length, rng);
  return batch;
}

std::vector<double> LoadToolboxStructures(ToolboxBatch* batch) {
  std::vector<double> ms;
  batch->structures.clear();
  fmtk::EdgeListOptions options;
  options.id_mode = fmtk::EdgeListOptions::IdMode::kNumeric;
  for (const std::string& text : batch->texts) {
    const Clock::time_point start = Clock::now();
    fmtk::Result<fmtk::LoadedGraph> loaded = fmtk::LoadEdgeListText(text, options);
    if (!loaded.ok()) return {};
    batch->structures.push_back(std::move(loaded->structure));
    ms.push_back(MicrosBetween(start, Clock::now()) / 1000.0);
  }
  return ms;
}

fmtk::Result<bool> RunToolboxOp(const ToolboxBatch& batch, const ToolboxOp& op,
                                Tracer* tracer, std::uint64_t request_id,
                                ToolboxCounters* counters) {
  const fmtk::Structure& a = batch.structures[op.a];
  const fmtk::Structure& b = batch.structures[op.b];
  switch (op.kind) {
    case ToolboxOp::Kind::kEf: {
      ScopedSpan span(tracer, "games.ef", request_id);
      fmtk::EfGameSolver solver(a, b);
      fmtk::Result<bool> wins = solver.DuplicatorWins(op.rounds);
      if (counters != nullptr) {
        counters->nodes_explored += solver.stats().nodes_explored;
        counters->table_hits += solver.stats().table_hits;
        counters->moves_pruned += solver.stats().moves_pruned;
      }
      return wins;
    }
    case ToolboxOp::Kind::kPebble: {
      ScopedSpan span(tracer, "games.pebble", request_id);
      fmtk::PebbleGameSolver solver(a, b, op.pebbles);
      fmtk::Result<bool> wins = solver.DuplicatorWins(op.rounds);
      if (counters != nullptr) {
        counters->nodes_explored += solver.stats().nodes_explored;
        counters->table_hits += solver.stats().table_hits;
        counters->moves_pruned += solver.stats().moves_pruned;
      }
      return wins;
    }
    case ToolboxOp::Kind::kHanf: {
      bool same = false;
      {
        ScopedSpan span(tracer, "locality.hanf", request_id);
        same = fmtk::HanfEquivalent(a, b, op.rounds);
      }
      if (counters != nullptr) {
        // HanfEquivalent keeps its engines to itself: the counts come from
        // the same two histograms built again, outside the timed span.
        fmtk::NeighborhoodTypeIndex index;
        for (const fmtk::Structure* s : {&a, &b}) {
          fmtk::LocalityEngine engine(*s);
          (void)engine.TypeHistogram(op.rounds, index);
          counters->bfs_node_visits += engine.stats().bfs_node_visits;
          counters->canon_codes += engine.stats().canon_codes;
          counters->canon_hits += engine.stats().canon_hits;
          counters->iso_tests += engine.stats().iso_tests;
        }
      }
      return same;
    }
    case ToolboxOp::Kind::kGaifman: {
      ScopedSpan span(tracer, "locality.gaifman", request_id);
      fmtk::LocalityEngine engine(a);
      auto violation =
          fmtk::FindGaifmanViolation(engine, batch.outputs[op.output], op.rounds);
      if (!violation.ok()) return violation.status();
      if (counters != nullptr) {
        counters->bfs_node_visits += engine.stats().bfs_node_visits;
        counters->canon_codes += engine.stats().canon_codes;
        counters->canon_hits += engine.stats().canon_hits;
        counters->iso_tests += engine.stats().iso_tests;
      }
      return violation->has_value();
    }
  }
  return fmtk::Status::Internal("unknown toolbox op");
}

}  // namespace fmtkbench
