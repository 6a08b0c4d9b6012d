// Typed columnar storage for DataChunk (ROADMAP item 5, "the real SIMD
// unlock"): one ColumnVector per column holding an unboxed payload —
// int64/double arrays with a null bitmap, or dictionary/flat-encoded
// strings over a shared byte arena — instead of a boxed
// std::vector<Value> (a ~40-byte tagged variant per cell).
//
// Encoding is adaptive and data-driven: a typed-mode column starts with no
// payload (kUntyped) and commits to kInt64 / kDouble / kDictString on the
// first non-NULL value appended. If a later value has a conflicting type
// the column loses nothing: it reboxes every stored cell into the legacy
// kBoxed layout (counted as `boxed_fallback_cells` in ImpSystemStats) and
// keeps working. `GetValue()` reboxes exactly — a typed encoding only ever
// holds one exact value type or NULL — so the typed and boxed layouts are
// observationally bit-identical, which is what the twin-system equivalence
// gates compare.
//
// Strings are dictionary-coded first (per-row u32 codes into a distinct
// set stored back-to-back in the arena) and convert once to a flat layout
// (per-row offsets into the arena) when the distinct count outgrows the
// dictionary. Both conversions only ever happen on the writer-private tail
// chunk — published chunks are immutable — so readers never observe an
// encoding change.
//
// Zone-map min/max accumulators are maintained inline per append on the
// raw payload (no Value boxing), replicating Value::Compare's update
// semantics exactly (strict-< keeps the first of equal values). NaN cells
// stay out of them — Compare treats NaN as equal to every number, so it
// has no place in the order — and set a has-NaN flag instead.

#ifndef IMP_STORAGE_COLUMN_VECTOR_H_
#define IMP_STORAGE_COLUMN_VECTOR_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bitvector.h"
#include "common/tuple.h"
#include "common/value.h"

namespace imp {

class ColumnVector {
 public:
  enum class Encoding : uint8_t {
    kBoxed,       ///< std::vector<Value> — legacy layout / typed fallback
    kUntyped,     ///< typed mode, only NULLs appended so far (no payload)
    kInt64,       ///< raw int64 array + null bitmap
    kDouble,      ///< raw double array + null bitmap
    kDictString,  ///< per-row u32 codes into a distinct-string arena
    kFlatString,  ///< per-row offsets into the shared byte arena
  };

  /// A dictionary converts to the flat layout when its distinct count
  /// would exceed this (repeat-free columns pay codes + dict for nothing).
  static constexpr size_t kDictMaxDistinct = 256;

  ColumnVector() = default;  ///< boxed (legacy) layout
  explicit ColumnVector(bool typed)
      : encoding_(typed ? Encoding::kUntyped : Encoding::kBoxed),
        typed_mode_(typed) {}

  size_t size() const { return size_; }
  Encoding encoding() const { return encoding_; }
  bool typed_mode() const { return typed_mode_; }
  /// Typed-mode column that hit a type conflict and reboxed every cell.
  bool fell_back() const {
    return typed_mode_ && encoding_ == Encoding::kBoxed;
  }

  void Append(const Value& v);

  /// Append cell `col` of the `n` rows starting at `rows` — the run form of
  /// Append, leaving exactly the state n Append calls would (payload,
  /// capacities, null bitmap, zone accumulators, encoding transitions).
  /// A run of non-NULL cells matching an int64 or double encoding takes one
  /// hoisted typed loop; NULLs, type changes, strings, the boxed layout and
  /// the first value of an untyped column take the per-cell Append.
  void AppendRun(const Tuple* rows, size_t n, size_t col);

  /// Rebox cell `i` — the compatibility escape hatch. Exact: a typed
  /// encoding stores one value type, so the round trip is lossless.
  Value GetValue(size_t i) const;

  bool IsNull(size_t i) const {
    switch (encoding_) {
      case Encoding::kBoxed:
        return boxed_[i].is_null();
      case Encoding::kUntyped:
        return true;
      default:
        return has_nulls_ && nulls_.Test(i);
    }
  }

  /// True when some cell is NULL (O(1) except for the boxed layout).
  bool AnyNull() const;

  // ---- Raw views (valid for the matching encoding only) -------------------
  bool has_nulls() const { return has_nulls_; }
  const BitVector& nulls() const { return nulls_; }
  const int64_t* ints() const { return ints_.data(); }
  const double* doubles() const { return doubles_.data(); }
  const std::vector<Value>& boxed() const { return boxed_; }
  const uint32_t* codes() const { return codes_.data(); }
  size_t dict_size() const {
    return dict_offsets_.empty() ? 0 : dict_offsets_.size() - 1;
  }
  std::string_view DictString(uint32_t code) const {
    return std::string_view(arena_.data() + dict_offsets_[code],
                            dict_offsets_[code + 1] - dict_offsets_[code]);
  }
  /// String payload of a non-NULL row under either string encoding.
  std::string_view StringAt(size_t i) const {
    if (encoding_ == Encoding::kDictString) return DictString(codes_[i]);
    return std::string_view(arena_.data() + flat_offsets_[i],
                            flat_offsets_[i + 1] - flat_offsets_[i]);
  }

  /// Min/max over non-NULL, non-NaN cells under Value::Compare order (the
  /// zone-map accumulators, maintained per append). False when there is no
  /// such cell.
  bool MinMax(Value* min, Value* max) const;
  /// True when some cell is a double NaN, which MinMax leaves out.
  bool AnyNaN() const { return has_nan_; }

  /// Column-at-a-time gather: (*out)[k][col] = GetValue(rows[k]). `out`
  /// tuples must already be sized past `col` (NULL-initialized).
  void Gather(const std::vector<uint32_t>& rows, size_t col,
              std::vector<Tuple>* out) const;

  /// Join-key extraction kernel: fold this column's first `num_rows` cell
  /// hashes into the running per-row key hashes, `(*inout)[i] =
  /// HashCombine((*inout)[i], Hash(cell_i))` — bit-identical to folding
  /// GetValue(i).Hash() row-at-a-time, but unboxed: int64/double payloads
  /// hash through the raw-array HashColumnBatch overloads, dictionary
  /// strings hash each distinct value once, NULLs fold kNullValueHash.
  void AppendKeyHashes(size_t num_rows, std::vector<uint64_t>* inout) const;

  /// Heap bytes of the payload (boxed cells or typed arrays + null bitmap
  /// + arena/offsets + writer-side dictionary map). Excludes sizeof(*this).
  size_t MemoryBytes() const;

 private:
  /// Commit the kUntyped column to a typed encoding chosen from the first
  /// non-NULL value; backfills payload slots for the NULL prefix.
  void BeginTyped(const Value& first);
  void AppendTyped(const Value& v);
  /// Zone accumulator updates of one typed int64 / double cell.
  void FoldInt(int64_t a) {
    if (!stats_valid_) {
      imin_ = imax_ = a;
      stats_valid_ = true;
    } else {
      if (a < imin_) imin_ = a;
      if (imax_ < a) imax_ = a;
    }
  }
  void FoldDouble(double a) {
    if (std::isnan(a)) {
      has_nan_ = true;
    } else if (!stats_valid_) {
      dmin_ = dmax_ = a;
      stats_valid_ = true;
    } else {
      // Strict < keeps the first of Compare-equal values.
      if (a < dmin_) dmin_ = a;
      if (dmax_ < a) dmax_ = a;
    }
  }
  /// Rebox every cell into the legacy layout (type-conflict fallback).
  void ConvertToBoxed();
  void ConvertDictToFlat();
  void AppendNullSlot();
  void UpdateStringStats(const std::string& s);

  Encoding encoding_ = Encoding::kBoxed;
  bool typed_mode_ = false;
  size_t size_ = 0;

  // kBoxed payload.
  std::vector<Value> boxed_;

  // Typed payloads. nulls_ spans [0, size_) for every typed encoding;
  // payload slots at NULL rows hold 0 / 0.0 / an empty span.
  BitVector nulls_;
  bool has_nulls_ = false;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;

  // String encodings share the byte arena. Dict: codes_ per row,
  // dict_offsets_ (distinct+1 entries) frames each distinct string.
  // Flat: flat_offsets_ (size_+1 entries) frames each row's bytes.
  std::string arena_;
  std::vector<uint32_t> codes_;
  std::vector<uint32_t> dict_offsets_;
  std::vector<uint32_t> flat_offsets_;
  std::unordered_map<std::string, uint32_t> dict_lookup_;  ///< writer-side

  // Zone accumulators (valid iff stats_valid_). Typed encodings track the
  // raw payload; kBoxed tracks Values via Compare — identical semantics.
  // NaN cells only set has_nan_.
  bool stats_valid_ = false;
  bool has_nan_ = false;
  int64_t imin_ = 0, imax_ = 0;
  double dmin_ = 0, dmax_ = 0;
  std::string smin_, smax_;
  Value vmin_, vmax_;
};

}  // namespace imp

#endif  // IMP_STORAGE_COLUMN_VECTOR_H_
