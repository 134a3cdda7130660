// toolbox_batch: the survey's proof tools called in-process — EF games on
// linear orders around the 2^n threshold of Thm 3.1, k-pebble games, and
// Hanf / Gaifman tests on the m-cycle-pair vs 2m-cycle structures of
// Thm 3.8.
#ifndef FMTK_PERFBENCH_TOOLBOX_H_
#define FMTK_PERFBENCH_TOOLBOX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/result.h"
#include "structures/relation.h"
#include "structures/structure.h"
#include "util.h"

namespace fmtkbench {

struct ToolboxOp {
  enum class Kind { kEf, kPebble, kHanf, kGaifman };
  Kind kind = Kind::kEf;
  std::size_t a = 0, b = 0;  // Indices into ToolboxBatch::structures.
  std::size_t rounds = 0;    // EF / pebble rounds, or the Hanf/Gaifman radius.
  std::size_t pebbles = 0;
  std::size_t output = 0;    // Gaifman: index into ToolboxBatch::outputs.
  bool expected = false;     // From the closed-form statement of the theorem.
};

struct ToolboxBatch {
  /// Edge-list texts of the batch's structures; set-up loads them.
  std::vector<std::string> texts;
  std::vector<fmtk::Structure> structures;
  /// Gaifman test outputs (unary relations over a structure's domain).
  std::vector<fmtk::Relation> outputs;
  std::vector<ToolboxOp> ops;
  std::vector<std::uint32_t> stream;  // Op indices in call order (cycled).
};

/// The op set is fixed; the seed shuffles element labels and call order.
ToolboxBatch GenerateToolbox(std::uint64_t seed, std::size_t stream_length);

/// Loads every text into `structures` (the toolbox's set-up); returns the
/// per-structure load times in milliseconds.
std::vector<double> LoadToolboxStructures(ToolboxBatch* batch);

/// Counters from the engines' public stats, summed over traced calls.
struct ToolboxCounters {
  std::uint64_t nodes_explored = 0;
  std::uint64_t table_hits = 0;
  std::uint64_t moves_pruned = 0;
  std::uint64_t bfs_node_visits = 0;
  std::uint64_t canon_codes = 0;
  std::uint64_t canon_hits = 0;
  std::uint64_t iso_tests = 0;
};

/// Runs one op and returns its verdict. With a tracer, records
/// games.ef / games.pebble / locality.hanf / locality.gaifman spans and
/// adds the engines' counters to `counters`.
fmtk::Result<bool> RunToolboxOp(const ToolboxBatch& batch, const ToolboxOp& op,
                                Tracer* tracer = nullptr,
                                std::uint64_t request_id = 0,
                                ToolboxCounters* counters = nullptr);

}  // namespace fmtkbench

#endif  // FMTK_PERFBENCH_TOOLBOX_H_
