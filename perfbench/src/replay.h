// The traced run: replays generated requests through each layer's public
// functions, with spans recorded around every call.
#ifndef FMTK_PERFBENCH_REPLAY_H_
#define FMTK_PERFBENCH_REPLAY_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "util.h"
#include "workloads.h"

namespace fmtkbench {

/// Per-layer metrics gathered by one replay pass.
struct LayerNumbers {
  std::map<std::string, double> values;  // metric name -> value
  double wall_s = 0;                      // Replay wall time.
};

/// Replays `count` requests of the workload's stream, in stream order,
/// through the layer functions on a fresh plan cache. With a null tracer
/// the same calls run unrecorded (the overhead baseline).
LayerNumbers ReplayRequests(const Workload& w, std::size_t count,
                            Tracer* tracer);

/// Loads every published structure body through the structures layer.
LayerNumbers ReplayLoads(const Workload& w, Tracer* tracer);

}  // namespace fmtkbench

#endif  // FMTK_PERFBENCH_REPLAY_H_
