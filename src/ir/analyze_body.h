// Analyses over the statement-level loop body (src/ir/stmt.h):
//
//  1. ExtractAccesses — derives the LoopSpec access declarations from the
//     body: every array load/store/buffered-update becomes an ArrayAccess
//     with classified subscripts (loop_index ± const precise, anything
//     data-dependent conservative), replacing hand-written AddAccess calls.
//
//  2. SynthesizePrefetch — the paper's Sec. 4.4 access-pattern function:
//     computes the backward slice of the body that the array-read
//     subscripts depend on (assignments feeding subscript variables,
//     enclosing loop/conditional structure), drops reads whose subscripts
//     themselves depend on DistArray values (those are not prefetchable),
//     and packages the slice as an interpretable PrefetchProgram that emits
//     per-array key sets for one iteration. The construction mirrors dead
//     code elimination run in reverse, exactly as the paper describes.
//
// Programs are assumed structured with definitions textually preceding
// uses (which the builder API naturally produces).
#ifndef ORION_SRC_IR_ANALYZE_BODY_H_
#define ORION_SRC_IR_ANALYZE_BODY_H_

#include <map>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/dsm/key_set.h"
#include "src/dsm/key_space.h"
#include "src/ir/loop_context.h"
#include "src/ir/loop_spec.h"
#include "src/ir/stmt.h"

namespace orion {

// Derives the access declarations (reads, writes, buffered writes) from the
// body. Duplicate accesses with identical classified subscripts collapse.
std::vector<ArrayAccess> ExtractAccesses(const LoopBody& body);

// Classifies one scalar-expression subscript (exposed for tests).
Subscript ClassifySubscriptExpr(const SExprPtr& e);

// The synthesized prefetch function: a sliced, interpretable program.
class PrefetchProgram {
 public:
  struct Node {
    enum class Kind : u8 { kAssign, kFor, kIf, kRecord };
    Kind kind = Kind::kAssign;
    // kAssign / kFor: variable or counter.
    int var = -1;
    // kAssign: value; kFor: count; kIf: condition.
    SExprPtr expr;
    // kRecord: the target read.
    DistArrayId array = kInvalidDistArrayId;
    std::vector<SExprPtr> subscripts;
    // kFor / kIf children.
    std::vector<Node> body;
  };

  // True if at least one array read survived slicing.
  bool HasTargets() const { return has_targets_; }

  // Array ids with at least one prefetchable read.
  const std::vector<DistArrayId>& target_arrays() const { return target_arrays_; }

  // Array reads that could NOT be included because their subscripts depend
  // on other DistArray values (paper: such reads are not prefetched).
  const std::vector<DistArrayId>& unprefetchable() const { return unprefetchable_; }

  const std::vector<Node>& nodes() const { return nodes_; }

  // Runs the sliced program for one iteration, inserting each target read's
  // flat key (computed against the arrays' key spaces) into that array's
  // key set in `out` (a bitmap sets a bit; an array without an entry gets a
  // key list).
  void Run(IdxSpan idx, const f32* value, i32 value_dim,
           const std::map<DistArrayId, KeySpace>& key_spaces,
           std::map<DistArrayId, KeySet>* out) const;

 private:
  friend PrefetchProgram SynthesizePrefetch(const LoopBody& body);

  int num_vars_ = 0;
  bool has_targets_ = false;
  std::vector<Node> nodes_;
  std::vector<DistArrayId> target_arrays_;
  std::vector<DistArrayId> unprefetchable_;
};

PrefetchProgram SynthesizePrefetch(const LoopBody& body);

}  // namespace orion

#endif  // ORION_SRC_IR_ANALYZE_BODY_H_
