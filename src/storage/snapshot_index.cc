#include "storage/snapshot_index.h"

#include <algorithm>
#include <cmath>

namespace imp {

std::shared_ptr<const HashShard> HashShard::Build(const ColumnVector& column,
                                                  size_t num_rows) {
  auto shard = std::make_shared<HashShard>();
  shard->buckets_.reserve(num_rows);
  if (column.encoding() == ColumnVector::Encoding::kBoxed) {
    const std::vector<Value>& vals = column.boxed();
    for (uint32_t r = 0; r < num_rows; ++r) {
      shard->buckets_[vals[r]].push_back(r);
    }
  } else {
    // Typed encodings rebox each cell exactly once into its bucket key.
    for (uint32_t r = 0; r < num_rows; ++r) {
      shard->buckets_[column.GetValue(r)].push_back(r);
    }
  }
  // Footprint, counted once: the container header (the cached count is
  // bookkeeping, not index payload), bucket-array + node overhead
  // approximated as one pointer-sized slot per bucket, and the node
  // payloads.
  size_t bytes = sizeof(shard->buckets_) +
                 shard->buckets_.bucket_count() * sizeof(void*);
  for (const auto& [v, rows] : shard->buckets_) {
    bytes += v.MemoryBytes() + sizeof(rows) + rows.capacity() * sizeof(uint32_t);
  }
  shard->bytes_ = bytes;
  return shard;
}

namespace {

/// Sort (raw value, row) pairs replicating Value::Compare's three-way form
/// exactly — `<` then `>` then row tie-break. Callers leave NaN out, so the
/// order is a strict weak ordering.
template <typename T>
void SortRawRun(std::vector<std::pair<T, uint32_t>>* run) {
  std::sort(run->begin(), run->end(),
            [](const std::pair<T, uint32_t>& a, const std::pair<T, uint32_t>& b) {
              int c = a.first < b.first ? -1 : (a.first > b.first ? 1 : 0);
              if (c != 0) return c < 0;
              return a.second < b.second;
            });
}

}  // namespace

std::shared_ptr<const SortedShard> SortedShard::Build(
    const ColumnVector& column, size_t num_rows) {
  auto shard = std::make_shared<SortedShard>();
  shard->entries_.reserve(num_rows);
  switch (column.encoding()) {
    case ColumnVector::Encoding::kUntyped:
      break;  // all NULL: nothing to index
    case ColumnVector::Encoding::kInt64: {
      std::vector<std::pair<int64_t, uint32_t>> run;
      run.reserve(num_rows);
      const int64_t* vals = column.ints();
      for (uint32_t r = 0; r < num_rows; ++r) {
        if (column.has_nulls() && column.nulls().Test(r)) continue;
        run.emplace_back(vals[r], r);
      }
      SortRawRun(&run);
      for (const auto& [v, r] : run) {
        shard->entries_.emplace_back(Value::Int(v), r);
      }
      break;
    }
    case ColumnVector::Encoding::kDouble: {
      std::vector<std::pair<double, uint32_t>> run;
      run.reserve(num_rows);
      const double* vals = column.doubles();
      for (uint32_t r = 0; r < num_rows; ++r) {
        if (column.has_nulls() && column.nulls().Test(r)) continue;
        if (std::isnan(vals[r])) continue;
        run.emplace_back(vals[r], r);
      }
      SortRawRun(&run);
      for (const auto& [v, r] : run) {
        shard->entries_.emplace_back(Value::Double(v), r);
      }
      break;
    }
    case ColumnVector::Encoding::kDictString:
    case ColumnVector::Encoding::kFlatString: {
      // string_view comparison == std::string::compare sign == the string
      // leg of Value::Compare.
      std::vector<std::pair<std::string_view, uint32_t>> run;
      run.reserve(num_rows);
      for (uint32_t r = 0; r < num_rows; ++r) {
        if (column.has_nulls() && column.nulls().Test(r)) continue;
        run.emplace_back(column.StringAt(r), r);
      }
      std::sort(run.begin(), run.end(),
                [](const std::pair<std::string_view, uint32_t>& a,
                   const std::pair<std::string_view, uint32_t>& b) {
                  int c = a.first.compare(b.first);
                  if (c != 0) return c < 0;
                  return a.second < b.second;
                });
      for (const auto& [v, r] : run) {
        shard->entries_.emplace_back(Value::String(std::string(v)), r);
      }
      break;
    }
    case ColumnVector::Encoding::kBoxed: {
      const std::vector<Value>& vals = column.boxed();
      for (uint32_t r = 0; r < num_rows; ++r) {
        if (vals[r].is_null()) continue;
        if (vals[r].is_double() && std::isnan(vals[r].AsDouble())) continue;
        shard->entries_.emplace_back(vals[r], r);
      }
      std::sort(shard->entries_.begin(), shard->entries_.end(),
                [](const Entry& a, const Entry& b) {
                  int c = a.first.Compare(b.first);
                  if (c != 0) return c < 0;
                  return a.second < b.second;
                });
      break;
    }
  }
  // Footprint, counted once (container header as in HashShard::Build).
  // The capacity term covers the inline Value; add only string heap bytes.
  size_t bytes = sizeof(shard->entries_) +
                 shard->entries_.capacity() * sizeof(Entry);
  for (const Entry& e : shard->entries_) {
    bytes += e.first.MemoryBytes() - sizeof(Value);
  }
  shard->bytes_ = bytes;
  return shard;
}

std::pair<size_t, size_t> SortedShard::Span(const Value* lo, bool lo_inclusive,
                                            const Value* hi,
                                            bool hi_inclusive) const {
  auto value_less = [](const Entry& e, const Value& v) {
    return e.first.Compare(v) < 0;
  };
  auto less_value = [](const Value& v, const Entry& e) {
    return v.Compare(e.first) < 0;
  };
  size_t first = 0;
  size_t last = entries_.size();
  if (lo != nullptr) {
    first = lo_inclusive
                ? std::lower_bound(entries_.begin(), entries_.end(), *lo,
                                   value_less) -
                      entries_.begin()
                : std::upper_bound(entries_.begin(), entries_.end(), *lo,
                                   less_value) -
                      entries_.begin();
  }
  if (hi != nullptr) {
    last = hi_inclusive
               ? std::upper_bound(entries_.begin(), entries_.end(), *hi,
                                  less_value) -
                     entries_.begin()
               : std::lower_bound(entries_.begin(), entries_.end(), *hi,
                                  value_less) -
                     entries_.begin();
  }
  if (last < first) last = first;
  return {first, last};
}

bool SortedShard::AnyInRange(const Value* lo, bool lo_inclusive,
                             const Value* hi, bool hi_inclusive) const {
  auto [first, last] = Span(lo, lo_inclusive, hi, hi_inclusive);
  return first < last;
}

void SortedShard::CollectRange(const Value* lo, bool lo_inclusive,
                               const Value* hi, bool hi_inclusive,
                               std::vector<uint32_t>* rows) const {
  auto [first, last] = Span(lo, lo_inclusive, hi, hi_inclusive);
  const size_t base = rows->size();
  rows->reserve(base + (last - first));
  for (size_t i = first; i < last; ++i) rows->push_back(entries_[i].second);
  // Entries are value-ordered; emission must be row-ordered.
  std::sort(rows->begin() + base, rows->end());
}

}  // namespace imp
