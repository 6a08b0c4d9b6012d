// Range partitions (Def. 4.1) and the partition catalog Φ.
//
// A range partition of table R on attribute a is a sorted list of n+1
// boundary values describing n contiguous ranges that cover the whole
// domain of a (Sec. 7.4: "we generate ranges to cover the whole domain of
// an attribute instead of only its active domain"; Fig. 18: "for n ranges,
// we record n+1 values in the list").
//
// The catalog assigns each (table, partition) a contiguous block of global
// fragment ids so that one BitVector can represent a sketch across all
// partitioned tables (join annotations are then plain bitwise unions).

#ifndef IMP_SKETCH_PARTITION_H_
#define IMP_SKETCH_PARTITION_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "common/status.h"
#include "common/tuple.h"

namespace imp {

/// A range partition F_{φ,a}(R): n ranges over attribute `attribute` of
/// `table`, described by n+1 sorted boundary values. Range i covers
/// [bounds[i], bounds[i+1]) except the last, which is inclusive on both
/// ends. Values outside [bounds.front(), bounds.back()] clamp into the
/// first/last range (the partition covers the whole domain).
class RangePartition {
 public:
  RangePartition(std::string table, std::string attribute, size_t attr_index,
                 std::vector<Value> bounds);

  const std::string& table() const { return table_; }
  const std::string& attribute() const { return attribute_; }
  size_t attr_index() const { return attr_index_; }
  size_t num_fragments() const { return bounds_.size() - 1; }
  const std::vector<Value>& bounds() const { return bounds_; }

  /// Index of the fragment containing `v` (binary search over bounds;
  /// this is the paper's "binary search over the set of ranges").
  size_t FragmentOf(const Value& v) const;

  /// Equal-width integer partition of [min, max] into n ranges.
  static RangePartition EquiWidthInt(std::string table, std::string attribute,
                                     size_t attr_index, int64_t min,
                                     int64_t max, size_t n);

  /// Equi-depth partition from a sample of column values (Sec. 7.4: "we use
  /// the bounds of equi-depth histograms ... as ranges").
  static RangePartition EquiDepth(std::string table, std::string attribute,
                                  size_t attr_index, std::vector<Value> values,
                                  size_t n);

  /// Fig. 18 accounting: bytes used by the boundary list.
  size_t MemoryBytes() const;

 private:
  std::string table_;
  std::string attribute_;
  size_t attr_index_;
  std::vector<Value> bounds_;
};

/// A table's annotation context resolved ONCE per batch instead of once
/// per row: the partition, its global fragment offset and the universe
/// size. The per-row work shrinks to one binary search over just the
/// partition column — no catalog map lookup, no access to any other
/// column. Annotate()/AnnotateRow() are bit-identical to
/// PartitionCatalog::AnnotateRow. Valid only while the catalog it was
/// resolved from is alive and unchanged (repartitioning invalidates it,
/// as it invalidates every sketch).
class TableAnnotator {
 public:
  TableAnnotator() = default;  // inactive: unpartitioned table

  /// False for unpartitioned tables: annotation is a no-op.
  bool active() const { return partition_ != nullptr; }
  /// Index of the partition column (valid only when active()).
  size_t attr_index() const { return partition_->attr_index(); }

  /// Set the fragment bit for partition-column value `v` (resizing `out`
  /// to the global universe first), exactly as AnnotateRow does.
  void Annotate(const Value& v, BitVector* out) const {
    if (!partition_) return;
    out->Resize(total_fragments_);
    out->Set(offset_ + partition_->FragmentOf(v));
  }

  /// Full-row convenience (reads only the partition column).
  void AnnotateRow(const Tuple& row, BitVector* out) const {
    if (!partition_) return;
    Annotate(row[partition_->attr_index()], out);
  }

  // Raw pieces for batch fast paths that precompute unboxed bounds and set
  // `offset() + fragment` themselves (valid only when active()).
  const RangePartition* partition() const { return partition_; }
  size_t offset() const { return offset_; }
  size_t total_fragments() const { return total_fragments_; }

 private:
  friend class PartitionCatalog;
  const RangePartition* partition_ = nullptr;
  size_t offset_ = 0;
  size_t total_fragments_ = 0;
};

/// Φ: the set of (range, attribute) pairs across tables, plus the global
/// fragment-id assignment. At most one partition per table (as in the
/// paper's definition of Φ).
class PartitionCatalog {
 public:
  PartitionCatalog() = default;

  /// Register the partition for its table; fails if one already exists.
  Status Register(RangePartition partition);

  /// Remove a table's partition and compact the global fragment-id space.
  /// Global ids of other tables may shift: every sketch and operator state
  /// built against the old catalog must be recaptured (Sec. 7.4 treats
  /// re-partitioning as recapture-triggering).
  Status Unregister(const std::string& table);

  /// The partition for `table`, or nullptr if the table is unpartitioned.
  const RangePartition* Find(const std::string& table) const;
  /// First global fragment id of `table`'s block (0 if unpartitioned).
  size_t GlobalOffset(const std::string& table) const;

  /// Total number of global fragment ids.
  size_t total_fragments() const { return total_fragments_; }

  /// Set the bit of the fragment `row` belongs to (no-op when `table` has
  /// no partition — the "single range covering all domain values" case).
  void AnnotateRow(const std::string& table, const Tuple& row,
                   BitVector* out) const;

  /// Resolve `table`'s annotation context once for a whole batch (inactive
  /// when the table is unpartitioned). The batch path's replacement for
  /// calling AnnotateRow per row.
  TableAnnotator ResolveAnnotator(const std::string& table) const;

  /// Global fragment id for (table, local fragment index).
  size_t GlobalFragment(const std::string& table, size_t local) const;

  /// Restrict `global` to the fragments of `table`, returning local indices.
  std::vector<size_t> LocalFragments(const std::string& table,
                                     const BitVector& global) const;

  std::vector<std::string> PartitionedTables() const;

 private:
  struct Entry {
    RangePartition partition;
    size_t offset;
  };
  std::map<std::string, Entry> entries_;
  size_t total_fragments_ = 0;
};

}  // namespace imp

#endif  // IMP_SKETCH_PARTITION_H_
