// Use-rewrite: instrument a query so the partitioned table's scan skips all
// data outside a sketch (Sec. 1: "WHERE (price BETWEEN 1001 AND 1500) OR
// (price BETWEEN 1501 AND 10000)", with adjacent ranges merged).

#ifndef IMP_SKETCH_USE_REWRITE_H_
#define IMP_SKETCH_USE_REWRITE_H_

#include <set>

#include "algebra/plan.h"
#include "sketch/sketch.h"

namespace imp {

/// Build the range predicate for `table`'s fragments that are set in
/// `sketch` (adjacent fragments merged, per footnote 2 of the paper).
/// Returns nullptr when the table has no partition or the sketch selects
/// every fragment (no filtering possible). An always-false literal is
/// returned for an empty sketch.
///
/// Edge fragments cover everything RangePartition::FragmentOf clamps into
/// them, not just the declared domain: a run that starts at the first
/// fragment is emitted as `NOT (a >= bounds[k])` — unbounded below, and
/// true on NULL because comparisons are two-valued (false on NULL) — and a
/// run that ends at the last fragment as `a >= bounds[k]`, unbounded above
/// (strings, which sort above numbers, and NaN, which FragmentOf places
/// last, included). Inner runs are `a >= bounds[i] AND a < bounds[k]`.
/// So a row lies in a kept fragment iff the predicate holds, and the
/// sketch-filtered answer equals the full scan for any value the table
/// holds. The kernel compiler turns the whole disjunction into one
/// range-set leaf (exec/vector_kernels.h).
ExprPtr SketchScanPredicate(const PartitionCatalog& catalog,
                            const std::string& table,
                            const ProvenanceSketch& sketch);

/// Rewrite `plan` so every scan of a partitioned table filters by the
/// sketch's ranges (conjoined with any existing scan filter). When
/// `only_tables` is non-null, only scans of those tables are instrumented
/// (the middleware restricts filtering to tables whose partition attribute
/// passed the safety test).
PlanPtr ApplyUseRewrite(const PlanPtr& plan, const PartitionCatalog& catalog,
                        const ProvenanceSketch& sketch,
                        const std::set<std::string>* only_tables = nullptr);

/// Snapshot-isolated variant: rewrite against a pinned immutable
/// SketchSnapshot (the concurrent front end's read side). The snapshot's
/// fragment set must have been captured against the SAME catalog epoch the
/// rewrite resolves ranges from — the middleware guarantees this by
/// publishing fresh snapshots for every entry before a repartitioned
/// catalog becomes visible to readers.
PlanPtr ApplyUseRewrite(const PlanPtr& plan, const PartitionCatalog& catalog,
                        const SketchSnapshot& snapshot,
                        const std::set<std::string>* only_tables = nullptr);

}  // namespace imp

#endif  // IMP_SKETCH_USE_REWRITE_H_
