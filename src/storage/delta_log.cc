#include "storage/delta_log.h"

#include <algorithm>
#include <mutex>

namespace imp {

void DeltaLog::Append(DeltaRecord rec) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  size_t next = first_offset_ + visible_ + staged_;  // next free global slot
  if (next / kSegmentCapacity == segments_.size()) {
    segments_.push_back(std::make_shared<Segment>());
  }
  last_staged_version_ = rec.version;
  segments_[next / kSegmentCapacity]->slots[next % kSegmentCapacity] =
      std::move(rec);
  ++staged_;
}

void DeltaLog::PublishViewLocked() {
  auto next = std::make_shared<LogView>();
  next->segments = segments_;
  next->first_offset = first_offset_;
  next->count = visible_;
  std::atomic_store_explicit(&view_,
                             std::shared_ptr<const LogView>(std::move(next)),
                             std::memory_order_release);
  published_.store(visible_, std::memory_order_release);
}

void DeltaLog::Publish() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (staged_ == 0) return;
  visible_ += staged_;
  staged_ = 0;
  last_published_version_.store(last_staged_version_,
                                std::memory_order_release);
  PublishViewLocked();
}

void DeltaLog::Truncate(uint64_t version) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  // Find the cut within the visible zone only, on the live segment list;
  // the staged tail (and any record above the truncation watermark)
  // survives untouched.
  size_t cut = FirstAfter(segments_, first_offset_, visible_, version);
  if (cut == 0) return;
  first_offset_ += cut;
  visible_ -= cut;
  // Drop whole segments from the front. A reader that pinned the previous
  // view still reaches them through its own shared_ptrs — they are freed
  // with the last pin (epoch-based reclamation), never under a scan.
  size_t drop = first_offset_ / kSegmentCapacity;
  if (drop > 0) {
    segments_.erase(segments_.begin(),
                    segments_.begin() + static_cast<long>(drop));
    first_offset_ %= kSegmentCapacity;
  }
  PublishViewLocked();
}

DeltaRecord DeltaLog::At(size_t i) const {
  std::shared_ptr<const LogView> view = PinView();
  IMP_CHECK(i < view->count);
  return view->record(i);
}

size_t DeltaLog::FirstAfter(
    const std::vector<std::shared_ptr<Segment>>& segments,
    size_t first_offset, size_t count, uint64_t from_version) {
  // Binary search over the non-decreasing version column.
  size_t lo = 0, hi = count;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    size_t g = first_offset + mid;
    if (segments[g / kSegmentCapacity]->slots[g % kSegmentCapacity].version >
        from_version) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

size_t DeltaLog::CountAfter(uint64_t from_version) const {
  std::shared_ptr<const LogView> view = PinView();
  return view->count - WindowBegin(*view, from_version);
}

void DeltaLog::CollectWindow(uint64_t from_version, uint64_t to_version,
                             const std::function<bool(const Tuple&)>& pred,
                             std::vector<DeltaRecord>* out) const {
  std::shared_ptr<const LogView> view = PinView();
  for (size_t i = WindowBegin(*view, from_version); i < view->count; ++i) {
    const DeltaRecord& rec = view->record(i);
    if (rec.version > to_version) break;
    if (pred && !pred(rec.row)) continue;
    out->push_back(rec);
  }
}

size_t DeltaLog::unpublished() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return staged_;
}

size_t DeltaLog::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  size_t bytes = 0;
  size_t total = visible_ + staged_;
  for (size_t i = 0; i < total; ++i) {
    size_t g = first_offset_ + i;
    const DeltaRecord& rec =
        segments_[g / kSegmentCapacity]->slots[g % kSegmentCapacity];
    bytes += sizeof(DeltaRecord) + TupleMemoryBytes(rec.row);
  }
  return bytes;
}

}  // namespace imp
