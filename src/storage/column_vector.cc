#include "storage/column_vector.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/hash.h"

namespace imp {

void ColumnVector::AppendNullSlot() {
  nulls_.Resize(size_ + 1);
  nulls_.Set(size_);
  has_nulls_ = true;
  switch (encoding_) {
    case Encoding::kInt64:
      ints_.push_back(0);
      break;
    case Encoding::kDouble:
      doubles_.push_back(0.0);
      break;
    case Encoding::kDictString:
      codes_.push_back(0);
      break;
    case Encoding::kFlatString:
      flat_offsets_.push_back(static_cast<uint32_t>(arena_.size()));
      break;
    default:
      break;  // kUntyped keeps bitmap only
  }
  ++size_;
}

void ColumnVector::BeginTyped(const Value& first) {
  // All rows so far are NULL; backfill zeroed payload slots for them.
  switch (first.type()) {
    case ValueType::kInt:
      encoding_ = Encoding::kInt64;
      ints_.assign(size_, 0);
      break;
    case ValueType::kDouble:
      encoding_ = Encoding::kDouble;
      doubles_.assign(size_, 0.0);
      break;
    case ValueType::kString:
      encoding_ = Encoding::kDictString;
      codes_.assign(size_, 0);
      dict_offsets_.assign(1, 0);
      break;
    default:
      break;
  }
}

void ColumnVector::AppendTyped(const Value& v) {
  nulls_.Resize(size_ + 1);
  switch (encoding_) {
    case Encoding::kInt64:
      ints_.push_back(v.AsInt());
      FoldInt(ints_.back());
      break;
    case Encoding::kDouble:
      doubles_.push_back(v.AsDouble());
      FoldDouble(doubles_.back());
      break;
    case Encoding::kDictString: {
      const std::string& s = v.AsString();
      auto it = dict_lookup_.find(s);
      uint32_t code;
      if (it != dict_lookup_.end()) {
        code = it->second;
      } else if (dict_size() >= kDictMaxDistinct) {
        ConvertDictToFlat();
        arena_.append(s);
        flat_offsets_.push_back(static_cast<uint32_t>(arena_.size()));
        UpdateStringStats(s);
        ++size_;
        return;
      } else {
        code = static_cast<uint32_t>(dict_size());
        arena_.append(s);
        dict_offsets_.push_back(static_cast<uint32_t>(arena_.size()));
        dict_lookup_.emplace(s, code);
      }
      codes_.push_back(code);
      UpdateStringStats(s);
      break;
    }
    case Encoding::kFlatString: {
      const std::string& s = v.AsString();
      arena_.append(s);
      flat_offsets_.push_back(static_cast<uint32_t>(arena_.size()));
      UpdateStringStats(s);
      break;
    }
    default:
      break;
  }
  ++size_;
}

void ColumnVector::UpdateStringStats(const std::string& s) {
  if (!stats_valid_) {
    smin_ = smax_ = s;
    stats_valid_ = true;
  } else {
    if (s.compare(smin_) < 0) smin_ = s;
    if (smax_.compare(s) < 0) smax_ = s;
  }
}

void ColumnVector::Append(const Value& v) {
  if (encoding_ == Encoding::kBoxed) {
    if (v.is_double() && std::isnan(v.AsDouble())) {
      has_nan_ = true;
    } else if (!v.is_null()) {
      if (!stats_valid_) {
        vmin_ = vmax_ = v;
        stats_valid_ = true;
      } else {
        if (v.Compare(vmin_) < 0) vmin_ = v;
        if (vmax_.Compare(v) < 0) vmax_ = v;
      }
    }
    boxed_.push_back(v);
    ++size_;
    return;
  }
  if (v.is_null()) {
    AppendNullSlot();
    return;
  }
  if (encoding_ == Encoding::kUntyped) BeginTyped(v);
  bool matches = (encoding_ == Encoding::kInt64 && v.is_int()) ||
                 (encoding_ == Encoding::kDouble && v.is_double()) ||
                 ((encoding_ == Encoding::kDictString ||
                   encoding_ == Encoding::kFlatString) &&
                  v.is_string());
  if (!matches) {
    ConvertToBoxed();
    Append(v);
    return;
  }
  AppendTyped(v);
}

void ColumnVector::AppendRun(const Tuple* rows, size_t n, size_t col) {
  size_t i = 0;
  while (i < n) {
    // Typed loops: the per-cell path's nulls_.Resize(size_ + 1) only grows
    // the word array when size_ crosses a word boundary, so resizing there
    // (and fixing the bit count after the loop) reproduces its capacities.
    const size_t begin = size_;
    if (encoding_ == Encoding::kInt64) {
      for (; i < n && rows[i][col].is_int(); ++i, ++size_) {
        if ((size_ & 63) == 0) nulls_.Resize(size_ + 1);
        ints_.push_back(rows[i][col].AsInt());
        FoldInt(ints_.back());
      }
    } else if (encoding_ == Encoding::kDouble) {
      for (; i < n && rows[i][col].is_double(); ++i, ++size_) {
        if ((size_ & 63) == 0) nulls_.Resize(size_ + 1);
        doubles_.push_back(rows[i][col].AsDouble());
        FoldDouble(doubles_.back());
      }
    }
    if (size_ != begin) nulls_.Resize(size_);
    if (i < n) Append(rows[i++][col]);
  }
}

Value ColumnVector::GetValue(size_t i) const {
  switch (encoding_) {
    case Encoding::kBoxed:
      return boxed_[i];
    case Encoding::kUntyped:
      return Value::Null();
    case Encoding::kInt64:
      if (has_nulls_ && nulls_.Test(i)) return Value::Null();
      return Value::Int(ints_[i]);
    case Encoding::kDouble:
      if (has_nulls_ && nulls_.Test(i)) return Value::Null();
      return Value::Double(doubles_[i]);
    case Encoding::kDictString:
    case Encoding::kFlatString:
      if (has_nulls_ && nulls_.Test(i)) return Value::Null();
      return Value::String(std::string(StringAt(i)));
  }
  return Value::Null();
}

bool ColumnVector::AnyNull() const {
  if (encoding_ != Encoding::kBoxed) return has_nulls_;
  return std::any_of(boxed_.begin(), boxed_.end(),
                     [](const Value& v) { return v.is_null(); });
}

bool ColumnVector::MinMax(Value* min, Value* max) const {
  if (!stats_valid_) return false;
  switch (encoding_) {
    case Encoding::kBoxed:
      *min = vmin_;
      *max = vmax_;
      return true;
    case Encoding::kInt64:
      *min = Value::Int(imin_);
      *max = Value::Int(imax_);
      return true;
    case Encoding::kDouble:
      *min = Value::Double(dmin_);
      *max = Value::Double(dmax_);
      return true;
    case Encoding::kDictString:
    case Encoding::kFlatString:
      *min = Value::String(smin_);
      *max = Value::String(smax_);
      return true;
    default:
      return false;  // kUntyped: all NULL
  }
}

void ColumnVector::ConvertToBoxed() {
  std::vector<Value> boxed;
  boxed.reserve(size_);
  for (size_t i = 0; i < size_; ++i) boxed.push_back(GetValue(i));
  if (stats_valid_) MinMax(&vmin_, &vmax_);  // seed the boxed accumulators
  boxed_ = std::move(boxed);
  encoding_ = Encoding::kBoxed;
  nulls_ = BitVector();
  has_nulls_ = false;
  ints_.clear();
  ints_.shrink_to_fit();
  doubles_.clear();
  doubles_.shrink_to_fit();
  arena_.clear();
  arena_.shrink_to_fit();
  codes_.clear();
  codes_.shrink_to_fit();
  dict_offsets_.clear();
  dict_offsets_.shrink_to_fit();
  flat_offsets_.clear();
  flat_offsets_.shrink_to_fit();
  dict_lookup_.clear();
}

void ColumnVector::ConvertDictToFlat() {
  std::string arena;
  arena.reserve(arena_.size() * 2);
  std::vector<uint32_t> offsets;
  offsets.reserve(size_ + 2);
  offsets.push_back(0);
  for (size_t i = 0; i < size_; ++i) {
    if (!has_nulls_ || !nulls_.Test(i)) arena.append(DictString(codes_[i]));
    offsets.push_back(static_cast<uint32_t>(arena.size()));
  }
  arena_ = std::move(arena);
  flat_offsets_ = std::move(offsets);
  encoding_ = Encoding::kFlatString;
  codes_.clear();
  codes_.shrink_to_fit();
  dict_offsets_.clear();
  dict_offsets_.shrink_to_fit();
  dict_lookup_.clear();
}

void ColumnVector::Gather(const std::vector<uint32_t>& rows, size_t col,
                          std::vector<Tuple>* out) const {
  switch (encoding_) {
    case Encoding::kBoxed:
      for (size_t k = 0; k < rows.size(); ++k) (*out)[k][col] = boxed_[rows[k]];
      break;
    case Encoding::kUntyped:
      break;  // slots are already NULL
    case Encoding::kInt64:
      for (size_t k = 0; k < rows.size(); ++k) {
        uint32_t r = rows[k];
        if (has_nulls_ && nulls_.Test(r)) continue;
        (*out)[k][col] = Value::Int(ints_[r]);
      }
      break;
    case Encoding::kDouble:
      for (size_t k = 0; k < rows.size(); ++k) {
        uint32_t r = rows[k];
        if (has_nulls_ && nulls_.Test(r)) continue;
        (*out)[k][col] = Value::Double(doubles_[r]);
      }
      break;
    case Encoding::kDictString:
    case Encoding::kFlatString:
      for (size_t k = 0; k < rows.size(); ++k) {
        uint32_t r = rows[k];
        if (has_nulls_ && nulls_.Test(r)) continue;
        (*out)[k][col] = Value::String(std::string(StringAt(r)));
      }
      break;
  }
}

void ColumnVector::AppendKeyHashes(size_t num_rows,
                                   std::vector<uint64_t>* inout) const {
  const BitVector* nulls = has_nulls_ ? &nulls_ : nullptr;
  switch (encoding_) {
    case Encoding::kBoxed:
      HashColumnBatch(
          num_rows, [this](size_t i) { return boxed_[i].Hash(); }, inout);
      return;
    case Encoding::kUntyped:
      for (size_t i = 0; i < num_rows; ++i) {
        (*inout)[i] = HashCombine((*inout)[i], kNullValueHash);
      }
      return;
    case Encoding::kInt64:
      HashColumnBatch(num_rows, ints_.data(), nulls, inout);
      return;
    case Encoding::kDouble:
      HashColumnBatch(num_rows, doubles_.data(), nulls, inout);
      return;
    case Encoding::kDictString: {
      // Hash each distinct string once, then fold per-row by code.
      std::vector<uint64_t> code_hash(dict_size());
      for (uint32_t c = 0; c < code_hash.size(); ++c) {
        std::string_view s = DictString(c);
        code_hash[c] = HashBytes(s.data(), s.size());
      }
      for (size_t i = 0; i < num_rows; ++i) {
        uint64_t h = (nulls != nullptr && nulls->Test(i))
                         ? kNullValueHash
                         : code_hash[codes_[i]];
        (*inout)[i] = HashCombine((*inout)[i], h);
      }
      return;
    }
    case Encoding::kFlatString:
      for (size_t i = 0; i < num_rows; ++i) {
        uint64_t h;
        if (nulls != nullptr && nulls->Test(i)) {
          h = kNullValueHash;
        } else {
          std::string_view s = StringAt(i);
          h = HashBytes(s.data(), s.size());
        }
        (*inout)[i] = HashCombine((*inout)[i], h);
      }
      return;
  }
}

size_t ColumnVector::MemoryBytes() const {
  size_t bytes = 0;
  if (encoding_ == Encoding::kBoxed) {
    bytes += boxed_.capacity() * sizeof(Value);
    for (const Value& v : boxed_) {
      if (v.is_string() && v.AsString().capacity() > sizeof(std::string)) {
        bytes += v.AsString().capacity();
      }
    }
    return bytes;
  }
  bytes += nulls_.MemoryBytes();
  bytes += ints_.capacity() * sizeof(int64_t);
  bytes += doubles_.capacity() * sizeof(double);
  bytes += arena_.capacity() > sizeof(std::string) ? arena_.capacity() : 0;
  bytes += codes_.capacity() * sizeof(uint32_t);
  bytes += dict_offsets_.capacity() * sizeof(uint32_t);
  bytes += flat_offsets_.capacity() * sizeof(uint32_t);
  for (const auto& [key, code] : dict_lookup_) {
    (void)code;
    bytes += sizeof(std::pair<const std::string, uint32_t>);
    if (key.capacity() > sizeof(std::string)) bytes += key.capacity();
  }
  return bytes;
}

}  // namespace imp
