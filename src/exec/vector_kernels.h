// Batch-at-a-time predicate kernels over columnar data (ROADMAP item 5).
//
// The scalar execution path walks chunks row-at-a-time: materialize a Tuple
// (copying every column's Value, strings included), then recurse through
// virtual Expr::Eval per row. For the annotate/filter/join hot path that
// cost is paid on every maintenance round and every query. This layer
// compiles a bound predicate tree ONCE into a small enum-dispatched kernel
// tree and evaluates it column-at-a-time over a whole batch into a
// selection BitVector — one dispatch per (expr node, batch) instead of per
// row, and only the referenced columns are ever touched.
//
// Correctness contract: for every row i of the batch, the produced bit is
// exactly `expr->Eval(row_i).IsTrue()`. Expression shapes the compiler does
// not understand (column-vs-column comparisons, arithmetic, truthy column
// tests, ...) are split off at the top-level conjunction and evaluated
// through the scalar Expr::Eval fallback on the rows that survive the
// compiled part — so results are bit-identical by construction, never
// approximated. The `vectorized_batches` / `scalar_fallback_rows` counters
// report which path did the work.

#ifndef IMP_EXEC_VECTOR_KERNELS_H_
#define IMP_EXEC_VECTOR_KERNELS_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/bitvector.h"
#include "common/tuple.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace imp {

/// A non-owning view over one batch of rows, in either layout the engine
/// uses: columnar (a DataChunk of a TableSnapshot) or row-major (Tuples
/// embedded in delta/annotated row structs at a fixed stride). Kernels
/// iterate columns directly in the columnar case and stride over the
/// embedded tuples otherwise.
class RowBlock {
 public:
  RowBlock() = default;

  static RowBlock FromChunk(const DataChunk& chunk) {
    RowBlock b;
    b.chunk_ = &chunk;
    b.num_rows_ = chunk.num_rows();
    return b;
  }

  /// Row-major view over `num_rows` tuples starting at `first`, each
  /// `stride_bytes` apart (contiguous Tuple array: stride == sizeof(Tuple)).
  static RowBlock FromTuples(const Tuple* first, size_t num_rows,
                             size_t stride_bytes = sizeof(Tuple)) {
    RowBlock b;
    b.base_ = reinterpret_cast<const unsigned char*>(first);
    b.stride_ = stride_bytes;
    b.num_rows_ = num_rows;
    return b;
  }

  /// Row-major view over the `member` tuple embedded in each element of
  /// `rows` (e.g. AnnotatedDeltaRow::row).
  template <typename T>
  static RowBlock FromMember(const std::vector<T>& rows, Tuple T::*member) {
    if (rows.empty()) return RowBlock();
    return FromTuples(&(rows[0].*member), rows.size(), sizeof(T));
  }

  size_t num_rows() const { return num_rows_; }
  bool columnar() const { return chunk_ != nullptr; }
  const DataChunk* chunk() const { return chunk_; }

  /// Row-major tuple at `i` (valid only when !columnar()).
  const Tuple& row(size_t i) const {
    return *reinterpret_cast<const Tuple*>(base_ + i * stride_);
  }

  /// Value at (row, col) regardless of layout. By value: columnar chunks
  /// rebox typed cells on access — use chunk()->column(c) for the raw
  /// typed arrays.
  Value At(size_t r, size_t c) const {
    if (chunk_) return chunk_->At(r, c);
    return row(r)[c];
  }

 private:
  const DataChunk* chunk_ = nullptr;
  const unsigned char* base_ = nullptr;
  size_t stride_ = 0;
  size_t num_rows_ = 0;
};

struct KernelNode;  // enum-dispatched compiled tree (internal to the .cc)

/// A bound predicate compiled for batch evaluation. Compile() splits the
/// top-level conjunction into a vectorizable part and a scalar remainder
/// evaluated through Expr::Eval on surviving rows only.
///
/// The vectorizable part is a tree of AND / OR / NOT over two leaf kinds:
/// a bare `column <op> literal` comparison, and a range set. Every AND /
/// OR / NOT / BETWEEN subtree over ONE column against literals — at any
/// depth, and the top-level conjuncts on one column taken together — is
/// reduced by ExtractColumnRanges (exec/zone_filter.h, the engine's only
/// range reducer) to normalized ranges with inclusive, exclusive or
/// unbounded sides, and compiles to a single range-set leaf. That covers
/// the sketch use-rewrite's fragment runs, edge runs that are unbounded
/// and admit NULL included (sketch/use_rewrite.h). The leaf takes its
/// NULL and NaN verdicts from the same reduction, so it stays exact where
/// the value order is not total.
///
/// On a typed numeric chunk column a range set costs what the chunk can
/// keep, not what the sketch spans: its spans are first clipped to the
/// column's zone [min, max] — no span left means no row compares, one span
/// covering the zone means every non-NULL row matches without a compare —
/// then up to two survivors are swept branch-free and more are probed by a
/// branchless binary search, O(rows * log spans).
class PredicateKernel {
 public:
  PredicateKernel();
  ~PredicateKernel();
  PredicateKernel(PredicateKernel&&) noexcept;
  PredicateKernel& operator=(PredicateKernel&&) noexcept;

  /// Compile `expr` (may be null: everything passes). The expression must
  /// stay bound to the schema the evaluated blocks use.
  static PredicateKernel Compile(const ExprPtr& expr);

  bool has_predicate() const { return expr_ != nullptr; }
  /// True when some part of the predicate runs through compiled kernels.
  bool vectorized() const { return root_ != nullptr; }
  /// True when no scalar remainder exists (every row avoids Expr::Eval).
  bool fully_vectorized() const { return root_ != nullptr && !scalar_; }
  /// The scalar remainder (null when fully vectorized or no predicate).
  const ExprPtr& scalar_remainder() const { return scalar_; }
  /// Leaves of the compiled part (comparisons and range sets), and how
  /// many of them are range sets — the compiled shape, for tests.
  size_t num_leaves() const;
  size_t num_range_sets() const;

  /// Evaluate the full predicate over `block`: `*sel` becomes a bitvector
  /// of exactly block.num_rows() bits with bit i == expr->Eval(row_i)
  /// .IsTrue(). Counts one vectorized batch per call when a compiled part
  /// ran, and one scalar-fallback row per row the remainder inspected
  /// (null counters are skipped). With `within` (block.num_rows() bits),
  /// only rows set there can be selected, and the scalar remainder never
  /// evaluates another row — a chain of selections evaluates each one on
  /// the rows the ones before it kept.
  void Eval(const RowBlock& block, BitVector* sel, size_t* vectorized_batches,
            size_t* scalar_fallback_rows,
            const BitVector* within = nullptr) const;

 private:
  ExprPtr expr_;                      ///< original predicate (null => pass-all)
  std::unique_ptr<KernelNode> root_;  ///< compiled part (null => all scalar)
  ExprPtr scalar_;                    ///< uncompiled remainder
  std::vector<size_t> scalar_cols_;   ///< columns the remainder references
  size_t scalar_width_ = 0;           ///< scratch-tuple width for remainder
};

}  // namespace imp

#endif  // IMP_EXEC_VECTOR_KERNELS_H_
