// Seeded workload generation and answer checking. The generator is the only
// part that sees the seed; the server sees only the generated requests.
#ifndef FMTK_PERFBENCH_WORKLOADS_H_
#define FMTK_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "structures/structure.h"

namespace fmtkbench {

/// Order-independent digest of a relation: row count plus the wrapping sum
/// of a mixed hash per row.
struct RowDigest {
  std::size_t rows = 0;
  std::uint64_t hash = 0;
  friend bool operator==(const RowDigest&, const RowDigest&) = default;
};

/// What a response must say: a verdict for a sentence, one digest for a
/// query, one digest per output predicate for a Datalog program.
struct Answer {
  bool verdict = false;
  std::vector<std::pair<std::string, RowDigest>> relations;
};

/// The answer of a reachability-shaped program the generator wrote, which
/// the benchmark computes by graph search instead of any Datalog engine:
/// the successors of `from`, closed under forward steps (kForward:
/// `reach(y) :- E(c,y). reach(y) :- reach(x), E(x,y).` or `tc(c,y)`),
/// closed under backward steps (kBackward: `back(x) :- E(c,x).
/// back(x) :- back(y), E(x,y).`), or taken one step further (kTwoSteps:
/// `two(c,z)`).
struct GraphAnswer {
  enum class Kind { kNone, kForward, kBackward, kTwoSteps };
  Kind kind = Kind::kNone;
  fmtk::Element from = 0;
};

struct Request {
  enum class Kind { kSentence, kQuery, kDatalog };
  Kind kind = Kind::kSentence;
  std::string structure;
  std::string text;
  std::vector<std::string> outputs;
  GraphAnswer graph_answer;  // Datalog programs on large structures.
  std::string body;  // JSON request body.
  std::string raw;   // Full HTTP request bytes.
};

/// A structure the workload publishes, with the PUT body that carries it.
struct Published {
  std::string name;
  fmtk::Structure structure;
  std::string body;
  std::string target;  // "/structure/<name>?format=..."
  std::string raw;     // Full HTTP PUT request bytes.
};

struct Workload {
  std::string name;
  std::vector<Published> structures;
  /// The distinct requests; answers[i] is requests[i]'s expected answer.
  std::vector<Request> requests;
  std::vector<Answer> answers;
  /// Per request: the engine the server is predicted to route to and the
  /// path the oracle took instead (for the record).
  std::vector<std::string> predicted_route;
  std::vector<std::string> oracle_path;
  /// Request indices in send order for the timed loops (cycled).
  std::vector<std::uint32_t> stream;
  /// Request indices sent once during set-up to warm the plan cache.
  std::vector<std::uint32_t> warmup;
  /// ingest_query only: the structure the writer re-publishes, as
  /// alternating edge-list and FMTKBIN1 PUT requests.
  std::vector<std::string> writer_puts;
};

/// Builds a server workload (warm_mix, cold_stream, ingest_query) from the
/// seed; false for an unknown name.
bool GenerateServerWorkload(const std::string& name, std::uint64_t seed,
                            std::size_t stream_length, Workload* out);

/// Fills `answers` by computing every request in-process on a different
/// path than the one the server is predicted to take. False (with a
/// message on stderr) when an oracle itself fails.
bool ComputeAnswers(Workload* w);

/// Checks one response body against the expected answer.
bool CheckResponse(const Request& request, const Answer& expected,
                   std::string_view body);

/// The part of a response body that carries the answer (everything before
/// the routing and timing fields), for memoizing verified responses.
std::string_view AnswerPrefix(const Request& request, std::string_view body);

RowDigest DigestRelation(const fmtk::Relation& relation);

/// The published structure of that name; nullptr when there is none.
const fmtk::Structure* FindStructure(const Workload& w, const std::string& name);

}  // namespace fmtkbench

#endif  // FMTK_PERFBENCH_WORKLOADS_H_
