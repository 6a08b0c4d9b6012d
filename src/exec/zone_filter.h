// Zone-map predicate analysis: decide from a chunk's per-column min/max
// whether a scan predicate can possibly match any row in the chunk. Used
// by the scan operators to skip chunks — the physical-design mechanism
// (zone maps, [32]) that provenance-based data skipping piggybacks on.
//
// PR 8 adds range extraction: a predicate that is exactly a union of value
// ranges over ONE column (the shape the sketch use-rewrite emits for
// fragment-range disjunctions, and the shape sketch safety checks probe)
// is reduced to a normalized ColumnRanges. Scans use it two ways: an
// exact per-chunk emptiness check against the chunk's ordered index shard
// (sharper than the conservative min/max test, never wrong), and full
// index-driven row enumeration that skips the filter entirely.

#ifndef IMP_EXEC_ZONE_FILTER_H_
#define IMP_EXEC_ZONE_FILTER_H_

#include <optional>
#include <vector>

#include "expr/expr.h"
#include "storage/table.h"

namespace imp {

/// Conservative tri-state collapse: returns false only when `predicate` is
/// provably false for every row of `chunk` (judging by the zone map);
/// returns true whenever unsure.
bool ChunkMayMatch(const Expr& predicate, const DataChunk& chunk);

/// One side of a value interval; `has == false` means unbounded.
struct RangeBound {
  bool has = false;
  Value v;
  bool inclusive = true;
};

/// One contiguous value interval over a column.
struct ValueRange {
  RangeBound lo;
  RangeBound hi;
};

/// A predicate reduced to a union of ranges over a single column. The
/// reduction is EXACT: a row with a non-NULL, non-NaN column value matches
/// the predicate iff the value lies in one of the ranges; a NULL row
/// matches iff `nulls` is set (comparisons are false on NULL, so only a NOT
/// above them can admit it), and a double NaN row iff `nans` is set (NaN
/// compares equal to every number, so it lies in no interval). Ranges are
/// normalized: sorted by lower bound, pairwise disjoint and not touching.
/// Empty `ranges` with both flags unset means the predicate is
/// unsatisfiable (matches no row).
struct ColumnRanges {
  size_t col = 0;
  std::vector<ValueRange> ranges;
  bool nulls = false;
  bool nans = false;
};

/// Try to reduce `predicate` to single-column ranges. Handles comparisons
/// against literals (both operand orders, including != as two open
/// intervals), BETWEEN over literals, and AND / OR / NOT combinations
/// thereof on the same column (NOT complements the ranges and flips
/// `nulls` and `nans`); returns nullopt for anything else (multi-column,
/// arithmetic, NaN literals, ...). Comparison semantics follow
/// Value::Compare exactly, so the ranges and the two flags agree
/// bit-for-bit with Expr::Eval on every cell. This is the engine's only
/// range reducer: zone skipping, index scans and the kernel compiler
/// (exec/vector_kernels.h) all read their verdicts from it.
std::optional<ColumnRanges> ExtractColumnRanges(const Expr& predicate);

/// Sharper chunk test for scans that extracted `ranges`: a chunk holding a
/// NULL (NaN) cell is kept when `nulls` (`nans`) is set; otherwise the zone
/// map decides, and when the chunk already carries an ordered index shard
/// on the column, an exact O(log n) emptiness probe refines it. Never
/// builds a shard — strictly more skipping than ChunkMayMatch, never less
/// correct.
bool ChunkMayMatchRanges(const ColumnRanges& ranges, const DataChunk& chunk);

/// Serve a whole scan from the snapshot's ordered index: enumerate the row
/// locations matching the (disjoint, normalized) range union into `*locs`
/// in scan emission order — chunk-major, row-ascending — so materializing
/// them reproduces the filtering scan bit-identically. Returns false
/// (leaving `*locs` untouched) when the column has no range index yet and
/// `build_if_missing` is false, or when `ranges.nulls` (`ranges.nans`) is
/// set and some chunk holds a NULL (NaN) in the column — ordered shards
/// leave both out; the caller falls back to chunk filtering.
bool TryIndexRangeScan(const TableSnapshot& snap, const ColumnRanges& ranges,
                       bool build_if_missing,
                       std::vector<TableSnapshot::RowLoc>* locs);

}  // namespace imp

#endif  // IMP_EXEC_ZONE_FILTER_H_
