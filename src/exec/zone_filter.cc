#include "exec/zone_filter.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace imp {

namespace {

/// Does the three-way outcome `c` of `cell.Compare(lit)` satisfy `op`?
bool CmpHolds(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq: return c == 0;
    case BinaryOp::kNe: return c != 0;
    case BinaryOp::kLt: return c < 0;
    case BinaryOp::kLe: return c <= 0;
    case BinaryOp::kGt: return c > 0;
    case BinaryOp::kGe: return c >= 0;
    default: return false;
  }
}

/// Value::Compare of a NaN cell against `lit`: 0 against every number (so
/// =, <=, >= and BETWEEN hold), the type-tag order against a string.
int NaNCompare(const Value& lit) {
  return Value::Double(std::numeric_limits<double>::quiet_NaN()).Compare(lit);
}

/// Does `cell BETWEEN lo AND hi` hold on a NaN cell (non-NULL bounds)?
bool NaNBetween(const Value& lo, const Value& hi) {
  return NaNCompare(lo) >= 0 && NaNCompare(hi) <= 0;
}

/// May a comparison `col op lit` hold for some row, given the column's
/// zone entry? A NaN cell lies outside [min, max], so it is judged apart.
bool ComparisonMayMatch(BinaryOp op, const DataChunk::ZoneEntry& z,
                        const Value& lit) {
  if (lit.is_null()) return false;  // NULL literal: false everywhere
  if (z.nan && CmpHolds(op, NaNCompare(lit))) return true;
  if (!z.valid) return false;  // no non-NULL, non-NaN value
  switch (op) {
    case BinaryOp::kLt:
      return z.min < lit;
    case BinaryOp::kLe:
      return z.min <= lit;
    case BinaryOp::kGt:
      return lit < z.max;
    case BinaryOp::kGe:
      return lit <= z.max;
    case BinaryOp::kEq:
      return z.min <= lit && lit <= z.max;
    case BinaryOp::kNe:
      return !(z.min == lit && z.max == lit);
    default:
      return true;
  }
}

BinaryOp MirrorComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;  // =, <> are symmetric
  }
}

}  // namespace

bool ChunkMayMatch(const Expr& predicate, const DataChunk& chunk) {
  switch (predicate.kind()) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(predicate).value().IsTrue();
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(predicate);
      if (bin.op() == BinaryOp::kAnd) {
        return ChunkMayMatch(*bin.left(), chunk) &&
               ChunkMayMatch(*bin.right(), chunk);
      }
      if (bin.op() == BinaryOp::kOr) {
        return ChunkMayMatch(*bin.left(), chunk) ||
               ChunkMayMatch(*bin.right(), chunk);
      }
      if (!IsComparison(bin.op())) return true;
      // col op lit
      if (bin.left()->kind() == ExprKind::kColumnRef &&
          bin.right()->kind() == ExprKind::kLiteral) {
        size_t col = static_cast<const ColumnRefExpr&>(*bin.left()).index();
        if (col >= chunk.num_columns()) return true;
        return ComparisonMayMatch(
            bin.op(), chunk.zone(col),
            static_cast<const LiteralExpr&>(*bin.right()).value());
      }
      // lit op col
      if (bin.right()->kind() == ExprKind::kColumnRef &&
          bin.left()->kind() == ExprKind::kLiteral) {
        size_t col = static_cast<const ColumnRefExpr&>(*bin.right()).index();
        if (col >= chunk.num_columns()) return true;
        return ComparisonMayMatch(
            MirrorComparison(bin.op()), chunk.zone(col),
            static_cast<const LiteralExpr&>(*bin.left()).value());
      }
      return true;
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(predicate);
      if (bt.input()->kind() != ExprKind::kColumnRef ||
          bt.lo()->kind() != ExprKind::kLiteral ||
          bt.hi()->kind() != ExprKind::kLiteral) {
        return true;
      }
      size_t col = static_cast<const ColumnRefExpr&>(*bt.input()).index();
      if (col >= chunk.num_columns()) return true;
      const auto& z = chunk.zone(col);
      const Value& lo = static_cast<const LiteralExpr&>(*bt.lo()).value();
      const Value& hi = static_cast<const LiteralExpr&>(*bt.hi()).value();
      if (lo.is_null() || hi.is_null()) return false;
      if (z.nan && NaNBetween(lo, hi)) return true;
      if (!z.valid) return false;
      return !(z.max < lo || hi < z.min);
    }
    default:
      return true;  // NOT / column refs / anything else: unknown
  }
}

// ---- Range extraction ------------------------------------------------------

namespace {

/// True when lower bound `a` starts strictly later than `b` (is tighter).
bool LowerTighter(const RangeBound& a, const RangeBound& b) {
  if (!a.has) return false;
  if (!b.has) return true;
  int c = a.v.Compare(b.v);
  if (c != 0) return c > 0;
  return !a.inclusive && b.inclusive;
}

/// True when upper bound `a` ends strictly earlier than `b` (is tighter).
bool UpperTighter(const RangeBound& a, const RangeBound& b) {
  if (!a.has) return false;
  if (!b.has) return true;
  int c = a.v.Compare(b.v);
  if (c != 0) return c < 0;
  return !a.inclusive && b.inclusive;
}

bool RangeEmpty(const ValueRange& r) {
  if (!r.lo.has || !r.hi.has) return false;
  int c = r.lo.v.Compare(r.hi.v);
  if (c != 0) return c > 0;
  return !(r.lo.inclusive && r.hi.inclusive);
}

bool Intersect(const ValueRange& a, const ValueRange& b, ValueRange* out) {
  out->lo = LowerTighter(a.lo, b.lo) ? a.lo : b.lo;
  out->hi = UpperTighter(a.hi, b.hi) ? a.hi : b.hi;
  return !RangeEmpty(*out);
}

/// True when an interval ending at `hi` and one starting at `lo` leave no
/// gap between them (overlap or touch), so their union is contiguous.
bool Connects(const RangeBound& hi, const RangeBound& lo) {
  if (!hi.has || !lo.has) return true;
  int c = lo.v.Compare(hi.v);
  if (c != 0) return c < 0;
  return hi.inclusive || lo.inclusive;
}

/// Drop empty intervals, sort by lower bound, merge overlapping/touching —
/// leaves a disjoint, sorted union with the same covered set.
void NormalizeRanges(std::vector<ValueRange>* ranges) {
  ranges->erase(
      std::remove_if(ranges->begin(), ranges->end(), RangeEmpty),
      ranges->end());
  std::sort(ranges->begin(), ranges->end(),
            [](const ValueRange& a, const ValueRange& b) {
              return LowerTighter(b.lo, a.lo);
            });
  std::vector<ValueRange> merged;
  for (ValueRange& r : *ranges) {
    if (merged.empty() || !Connects(merged.back().hi, r.lo)) {
      merged.push_back(std::move(r));
    } else if (UpperTighter(merged.back().hi, r.hi)) {
      merged.back().hi = std::move(r.hi);
    }
  }
  *ranges = std::move(merged);
}

/// The gaps of a normalized union: its complement over non-NULL values.
std::vector<ValueRange> Complement(const std::vector<ValueRange>& ranges) {
  std::vector<ValueRange> out;
  RangeBound from;  // unbounded below until the first range
  for (const ValueRange& r : ranges) {
    if (r.lo.has) out.push_back({from, {true, r.lo.v, !r.lo.inclusive}});
    if (!r.hi.has) return out;  // the range runs to +inf: no gap after it
    from = {true, r.hi.v, !r.hi.inclusive};
  }
  out.push_back({from, RangeBound{}});
  return out;
}

bool IsNaN(const Value& v) { return v.is_double() && std::isnan(v.AsDouble()); }

/// Ranges of `col cmp lit` under Expr::Eval semantics (NULL literal → no
/// row matches; != splits into two open-ended intervals), with the verdict
/// on a NaN cell. A NaN literal compares equal to every number, which no
/// interval describes: nullopt.
std::optional<ColumnRanges> ComparisonRanges(size_t col, BinaryOp cmp,
                                             const Value& lit) {
  if (IsNaN(lit)) return std::nullopt;
  ColumnRanges out;
  out.col = col;
  if (lit.is_null()) return out;  // NULL comparand: false everywhere
  out.nans = CmpHolds(cmp, NaNCompare(lit));
  ValueRange r;
  switch (cmp) {
    case BinaryOp::kEq:
      r.lo = {true, lit, true};
      r.hi = {true, lit, true};
      break;
    case BinaryOp::kNe: {
      ValueRange below, above;
      below.hi = {true, lit, false};
      above.lo = {true, lit, false};
      out.ranges = {below, above};
      return out;
    }
    case BinaryOp::kLt:
      r.hi = {true, lit, false};
      break;
    case BinaryOp::kLe:
      r.hi = {true, lit, true};
      break;
    case BinaryOp::kGt:
      r.lo = {true, lit, false};
      break;
    case BinaryOp::kGe:
      r.lo = {true, lit, true};
      break;
    default:
      return std::nullopt;
  }
  out.ranges.push_back(std::move(r));
  return out;
}

}  // namespace

std::optional<ColumnRanges> ExtractColumnRanges(const Expr& predicate) {
  switch (predicate.kind()) {
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(predicate);
      if (bin.op() == BinaryOp::kAnd || bin.op() == BinaryOp::kOr) {
        // Flatten the whole same-op chain first so a k-way disjunction
        // normalizes once, not once per nesting level.
        std::vector<ExprPtr> terms;
        FlattenSameOp(bin.left(), bin.op(), &terms);
        FlattenSameOp(bin.right(), bin.op(), &terms);
        std::optional<ColumnRanges> acc;
        for (const ExprPtr& t : terms) {
          std::optional<ColumnRanges> r = ExtractColumnRanges(*t);
          if (!r || (acc && r->col != acc->col)) return std::nullopt;
          if (!acc) {
            acc = std::move(r);
          } else if (bin.op() == BinaryOp::kOr) {
            acc->ranges.insert(acc->ranges.end(),
                               std::make_move_iterator(r->ranges.begin()),
                               std::make_move_iterator(r->ranges.end()));
            acc->nulls = acc->nulls || r->nulls;
            acc->nans = acc->nans || r->nans;
          } else {
            // Pairwise intersections of two disjoint unions stay disjoint.
            std::vector<ValueRange> intersected;
            for (const ValueRange& a : acc->ranges) {
              for (const ValueRange& b : r->ranges) {
                ValueRange x;
                if (Intersect(a, b, &x)) intersected.push_back(std::move(x));
              }
            }
            acc->ranges = std::move(intersected);
            acc->nulls = acc->nulls && r->nulls;
            acc->nans = acc->nans && r->nans;
          }
        }
        NormalizeRanges(&acc->ranges);
        return acc;
      }
      if (!IsComparison(bin.op())) return std::nullopt;
      if (bin.left()->kind() == ExprKind::kColumnRef &&
          bin.right()->kind() == ExprKind::kLiteral) {
        return ComparisonRanges(
            static_cast<const ColumnRefExpr&>(*bin.left()).index(), bin.op(),
            static_cast<const LiteralExpr&>(*bin.right()).value());
      }
      if (bin.right()->kind() == ExprKind::kColumnRef &&
          bin.left()->kind() == ExprKind::kLiteral) {
        return ComparisonRanges(
            static_cast<const ColumnRefExpr&>(*bin.right()).index(),
            MirrorComparison(bin.op()),
            static_cast<const LiteralExpr&>(*bin.left()).value());
      }
      return std::nullopt;
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(predicate);
      if (u.op() != UnaryOp::kNot) return std::nullopt;
      std::optional<ColumnRanges> r = ExtractColumnRanges(*u.child());
      if (!r) return std::nullopt;
      // Comparisons are two-valued (false on NULL), so NOT is the exact
      // complement: the gaps between the ranges, and NULL and NaN flip.
      r->ranges = Complement(r->ranges);
      r->nulls = !r->nulls;
      r->nans = !r->nans;
      return r;
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(predicate);
      if (bt.input()->kind() != ExprKind::kColumnRef ||
          bt.lo()->kind() != ExprKind::kLiteral ||
          bt.hi()->kind() != ExprKind::kLiteral) {
        return std::nullopt;
      }
      const Value& lo = static_cast<const LiteralExpr&>(*bt.lo()).value();
      const Value& hi = static_cast<const LiteralExpr&>(*bt.hi()).value();
      if (IsNaN(lo) || IsNaN(hi)) return std::nullopt;
      ColumnRanges out;
      out.col = static_cast<const ColumnRefExpr&>(*bt.input()).index();
      if (lo.is_null() || hi.is_null()) return out;  // false everywhere
      out.nans = NaNBetween(lo, hi);
      ValueRange r;
      r.lo = {true, lo, true};
      r.hi = {true, hi, true};
      out.ranges.push_back(std::move(r));
      NormalizeRanges(&out.ranges);  // drops an empty lo > hi interval
      return out;
    }
    default:
      return std::nullopt;
  }
}

bool ChunkMayMatchRanges(const ColumnRanges& ranges, const DataChunk& chunk) {
  if (ranges.col >= chunk.num_columns()) return true;
  const ColumnVector& column = chunk.column(ranges.col);
  if (ranges.nulls && column.AnyNull()) return true;
  if (ranges.nans && column.AnyNaN()) return true;
  if (ranges.ranges.empty()) return false;  // unsatisfiable predicate
  const DataChunk::ZoneEntry& z = chunk.zone(ranges.col);
  if (!z.valid) return false;  // only NULL / NaN cells: no range matches
  bool zone_may = false;
  for (const ValueRange& r : ranges.ranges) {
    bool ends_below_min = false;
    if (r.hi.has) {
      int c = r.hi.v.Compare(z.min);
      ends_below_min = c < 0 || (c == 0 && !r.hi.inclusive);
    }
    bool starts_above_max = false;
    if (r.lo.has) {
      int c = r.lo.v.Compare(z.max);
      starts_above_max = c > 0 || (c == 0 && !r.lo.inclusive);
    }
    if (!ends_below_min && !starts_above_max) {
      zone_may = true;
      break;
    }
  }
  if (!zone_may) return false;
  // Exact refinement: an already-materialized ordered shard answers
  // emptiness in O(log n). Opportunistic only — never build here.
  std::shared_ptr<const SortedShard> shard =
      chunk.SortedShardIfBuilt(ranges.col);
  if (shard == nullptr) return true;
  for (const ValueRange& r : ranges.ranges) {
    if (shard->AnyInRange(r.lo.has ? &r.lo.v : nullptr, r.lo.inclusive,
                          r.hi.has ? &r.hi.v : nullptr, r.hi.inclusive)) {
      return true;
    }
  }
  return false;
}

bool TryIndexRangeScan(const TableSnapshot& snap, const ColumnRanges& ranges,
                       bool build_if_missing,
                       std::vector<TableSnapshot::RowLoc>* locs) {
  if (ranges.col >= snap.schema().size()) return false;
  if (!build_if_missing && !snap.HasRangeIndex(ranges.col)) return false;
  if (ranges.nulls || ranges.nans) {
    for (const auto& chunk : snap.chunks()) {
      const ColumnVector& column = chunk->column(ranges.col);
      if ((ranges.nulls && column.AnyNull()) ||
          (ranges.nans && column.AnyNaN())) {
        return false;
      }
    }
  }
  locs->clear();
  for (const ValueRange& r : ranges.ranges) {
    snap.ForEachIndexRangeMatch(
        ranges.col, r.lo.has ? &r.lo.v : nullptr, r.lo.inclusive,
        r.hi.has ? &r.hi.v : nullptr, r.hi.inclusive,
        [&](const TableSnapshot::RowLoc& loc) { locs->push_back(loc); });
  }
  // Each probe emits chunk-major already; a union of disjoint ranges just
  // needs one merge back into global scan order (no duplicates possible).
  std::sort(locs->begin(), locs->end(),
            [](const TableSnapshot::RowLoc& a, const TableSnapshot::RowLoc& b) {
              return a.chunk != b.chunk ? a.chunk < b.chunk : a.row < b.row;
            });
  return true;
}

}  // namespace imp
