#include "sketch/partition.h"

#include <algorithm>

namespace imp {

RangePartition::RangePartition(std::string table, std::string attribute,
                               size_t attr_index, std::vector<Value> bounds)
    : table_(std::move(table)),
      attribute_(std::move(attribute)),
      attr_index_(attr_index),
      bounds_(std::move(bounds)) {
  IMP_CHECK_MSG(bounds_.size() >= 2, "partition needs at least one range");
  for (size_t i = 1; i < bounds_.size(); ++i) {
    IMP_CHECK_MSG(bounds_[i - 1] < bounds_[i], "bounds must be increasing");
  }
}

size_t RangePartition::FragmentOf(const Value& v) const {
  // First bound strictly greater than v; fragment = index - 1, clamped.
  auto it = std::upper_bound(bounds_.begin(), bounds_.end(), v);
  if (it == bounds_.begin()) return 0;  // below domain: clamp to first
  size_t idx = static_cast<size_t>(it - bounds_.begin()) - 1;
  if (idx >= num_fragments()) idx = num_fragments() - 1;  // above: clamp
  return idx;
}

RangePartition RangePartition::EquiWidthInt(std::string table,
                                            std::string attribute,
                                            size_t attr_index, int64_t min,
                                            int64_t max, size_t n) {
  IMP_CHECK(n >= 1);
  if (max < min) max = min;
  // Clamp n to the number of distinct integers available.
  uint64_t domain = static_cast<uint64_t>(max - min) + 1;
  if (n > domain) n = static_cast<size_t>(domain);
  std::vector<Value> bounds;
  bounds.reserve(n + 1);
  for (size_t i = 0; i <= n; ++i) {
    int64_t b = min + static_cast<int64_t>(
                          (static_cast<__int128>(max - min) * i) / n);
    if (i == n) b = max;
    bounds.push_back(Value::Int(b));
  }
  // De-duplicate (possible when the domain is tiny).
  bounds.erase(std::unique(bounds.begin(), bounds.end(),
                           [](const Value& a, const Value& b) { return a == b; }),
               bounds.end());
  if (bounds.size() < 2) bounds.push_back(Value::Int(max + 1));
  return RangePartition(std::move(table), std::move(attribute), attr_index,
                        std::move(bounds));
}

RangePartition RangePartition::EquiDepth(std::string table,
                                         std::string attribute,
                                         size_t attr_index,
                                         std::vector<Value> values, size_t n) {
  IMP_CHECK(n >= 1);
  IMP_CHECK_MSG(!values.empty(), "equi-depth needs sample values");
  std::sort(values.begin(), values.end());
  std::vector<Value> bounds;
  bounds.push_back(values.front());
  for (size_t i = 1; i < n; ++i) {
    const Value& candidate = values[values.size() * i / n];
    if (bounds.back() < candidate) bounds.push_back(candidate);
  }
  if (bounds.back() < values.back()) {
    bounds.push_back(values.back());
  } else if (bounds.size() < 2) {
    // Degenerate single-value column: one range [v, v+1).
    if (values.back().is_int()) {
      bounds.push_back(Value::Int(values.back().AsInt() + 1));
    } else {
      bounds.push_back(Value::Double(values.back().ToDouble() + 1.0));
    }
  }
  return RangePartition(std::move(table), std::move(attribute), attr_index,
                        std::move(bounds));
}

size_t RangePartition::MemoryBytes() const {
  size_t bytes = 0;
  for (const Value& v : bounds_) bytes += v.MemoryBytes();
  return bytes;
}

Status PartitionCatalog::Register(RangePartition partition) {
  // Copy the key before `partition` is moved into the map entry.
  std::string table = partition.table();
  if (entries_.count(table) > 0) {
    return Status::InvalidArgument("table already partitioned: " + table);
  }
  size_t frags = partition.num_fragments();
  entries_.emplace(std::move(table), Entry{std::move(partition), total_fragments_});
  total_fragments_ += frags;
  return Status::OK();
}

Status PartitionCatalog::Unregister(const std::string& table) {
  if (entries_.erase(table) == 0) {
    return Status::NotFound("table not partitioned: " + table);
  }
  size_t offset = 0;
  for (auto& [name, entry] : entries_) {
    (void)name;
    entry.offset = offset;
    offset += entry.partition.num_fragments();
  }
  total_fragments_ = offset;
  return Status::OK();
}

const RangePartition* PartitionCatalog::Find(const std::string& table) const {
  auto it = entries_.find(table);
  return it == entries_.end() ? nullptr : &it->second.partition;
}

size_t PartitionCatalog::GlobalOffset(const std::string& table) const {
  auto it = entries_.find(table);
  return it == entries_.end() ? 0 : it->second.offset;
}

void PartitionCatalog::AnnotateRow(const std::string& table, const Tuple& row,
                                   BitVector* out) const {
  auto it = entries_.find(table);
  if (it == entries_.end()) return;
  const Entry& e = it->second;
  const Value& v = row[e.partition.attr_index()];
  size_t frag = e.partition.FragmentOf(v);
  out->Resize(total_fragments_);
  out->Set(e.offset + frag);
}

TableAnnotator PartitionCatalog::ResolveAnnotator(
    const std::string& table) const {
  TableAnnotator a;
  auto it = entries_.find(table);
  if (it == entries_.end()) return a;
  a.partition_ = &it->second.partition;
  a.offset_ = it->second.offset;
  a.total_fragments_ = total_fragments_;
  return a;
}

size_t PartitionCatalog::GlobalFragment(const std::string& table,
                                        size_t local) const {
  auto it = entries_.find(table);
  IMP_CHECK_MSG(it != entries_.end(), table.c_str());
  IMP_CHECK(local < it->second.partition.num_fragments());
  return it->second.offset + local;
}

std::vector<size_t> PartitionCatalog::LocalFragments(
    const std::string& table, const BitVector& global) const {
  std::vector<size_t> out;
  auto it = entries_.find(table);
  if (it == entries_.end()) return out;
  size_t lo = it->second.offset;
  size_t hi = lo + it->second.partition.num_fragments();
  for (size_t bit : global.SetBits()) {
    if (bit >= lo && bit < hi) out.push_back(bit - lo);
  }
  return out;
}

std::vector<std::string> PartitionCatalog::PartitionedTables() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, _] : entries_) out.push_back(name);
  return out;
}

}  // namespace imp
