// Unit tests for the storage backend: chunked tables, versioned updates,
// delta scans with push-down predicates, and the lock-free read path —
// immutable epoch-stamped TableSnapshots (copy-on-write chunk sharing),
// ReadViews pinning a consistent watermark across tables, and the
// segmented wait-free delta log under truncation.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <random>
#include <set>
#include <thread>
#include <unordered_map>

#include "common/hash.h"
#include "exec/zone_filter.h"
#include "storage/database.h"

namespace imp {
namespace {

Schema TwoColSchema() {
  Schema s;
  s.AddColumn("id", ValueType::kInt);
  s.AddColumn("v", ValueType::kInt);
  return s;
}

Tuple Row(int64_t id, int64_t v) { return Tuple{Value::Int(id), Value::Int(v)}; }

TEST(DataChunkTest, AppendAndRead) {
  DataChunk chunk(2);
  chunk.AppendRow(Row(1, 10));
  chunk.AppendRow(Row(2, 20));
  EXPECT_EQ(chunk.num_rows(), 2u);
  EXPECT_EQ(chunk.At(1, 1), Value::Int(20));
  EXPECT_EQ(chunk.GetRow(0), Row(1, 10));
}

TEST(TableTest, AppendAcrossChunks) {
  Table t("t", TwoColSchema());
  const size_t n = DataChunk::kDefaultCapacity * 2 + 17;
  for (size_t i = 0; i < n; ++i) t.AppendRow(Row(static_cast<int64_t>(i), 0));
  EXPECT_EQ(t.NumRows(), n);
  EXPECT_GE(t.chunks().size(), 3u);
  size_t seen = 0;
  t.ForEachRow([&](const Tuple& row) {
    EXPECT_EQ(row[0], Value::Int(static_cast<int64_t>(seen)));
    ++seen;
  });
  EXPECT_EQ(seen, n);
}

TEST(TableTest, DeleteWhereRebuilds) {
  Table t("t", TwoColSchema());
  for (int64_t i = 0; i < 100; ++i) t.AppendRow(Row(i, i % 10));
  auto removed = t.DeleteWhere(
      [](const Tuple& row) { return row[1] == Value::Int(3); });
  EXPECT_EQ(removed.size(), 10u);
  EXPECT_EQ(t.NumRows(), 90u);
  t.ForEachRow([](const Tuple& row) { EXPECT_NE(row[1], Value::Int(3)); });
}

TEST(TableTest, DeleteWhereLimit) {
  Table t("t", TwoColSchema());
  for (int64_t i = 0; i < 100; ++i) t.AppendRow(Row(i, 1));
  auto removed = t.DeleteWhereLimit([](const Tuple&) { return true; }, 7);
  EXPECT_EQ(removed.size(), 7u);
  EXPECT_EQ(t.NumRows(), 93u);
}

TEST(TableTest, ColumnMinMax) {
  Table t("t", TwoColSchema());
  for (int64_t i = 0; i < 50; ++i) t.AppendRow(Row(i, 100 - i));
  auto [min, max] = t.ColumnMinMax(1);
  EXPECT_EQ(min, Value::Int(51));
  EXPECT_EQ(max, Value::Int(100));
}

TEST(DatabaseTest, CreateAndDuplicateTable) {
  Database db;
  EXPECT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  EXPECT_TRUE(db.HasTable("t"));
  EXPECT_FALSE(db.CreateTable("t", TwoColSchema()).ok());
  EXPECT_EQ(db.GetTable("nope"), nullptr);
}

TEST(DatabaseTest, BulkLoadDoesNotBumpVersionOrLogDeltas) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.BulkLoad("t", {Row(1, 1), Row(2, 2)}).ok());
  EXPECT_EQ(db.CurrentVersion(), 0u);
  EXPECT_EQ(db.GetTable("t")->delta_log().size(), 0u);
  EXPECT_EQ(db.GetTable("t")->NumRows(), 2u);
}

TEST(DatabaseTest, InsertBumpsVersionAndLogsDelta) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  auto v1 = db.Insert("t", {Row(1, 1)});
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1.value(), 1u);
  auto v2 = db.Insert("t", {Row(2, 2), Row(3, 3)});
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2.value(), 2u);
  EXPECT_EQ(db.GetTable("t")->delta_log().size(), 3u);
  EXPECT_EQ(db.GetTable("t")->NumRows(), 3u);
}

TEST(DatabaseTest, DeleteLogsNegativeDelta) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.BulkLoad("t", {Row(1, 1), Row(2, 2), Row(3, 3)}).ok());
  auto v = db.Delete(
      "t", [](const Tuple& row) { return row[0].AsInt() >= 2; });
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(db.GetTable("t")->NumRows(), 1u);
  const DeltaLog& log = db.GetTable("t")->delta_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.At(0).mult, -1);
  EXPECT_EQ(log.At(1).mult, -1);
}

TEST(DatabaseTest, ScanDeltaVersionWindow) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.Insert("t", {Row(1, 1)}).ok());   // v1
  ASSERT_TRUE(db.Insert("t", {Row(2, 2)}).ok());   // v2
  ASSERT_TRUE(db.Insert("t", {Row(3, 3)}).ok());   // v3
  TableDelta d = db.ScanDelta("t", 1, 2);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d.records[0].row, Row(2, 2));
  // Full window.
  EXPECT_EQ(db.ScanDelta("t", 0, 3).size(), 3u);
  // Empty window.
  EXPECT_EQ(db.ScanDelta("t", 3, 3).size(), 0u);
}

TEST(DatabaseTest, ScanDeltaWithPushdownPredicate) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.Insert("t", {Row(1, 5), Row(2, 50), Row(3, 500)}).ok());
  TableDelta d = db.ScanDelta("t", 0, 1, [](const Tuple& row) {
    return row[1].AsInt() < 100;  // the Sec. 7.2 delta pre-filter
  });
  EXPECT_EQ(d.size(), 2u);
}

TEST(DatabaseTest, PendingDeltaCount) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  EXPECT_EQ(db.PendingDeltaCount("t", 0), 0u);
  ASSERT_TRUE(db.Insert("t", {Row(1, 1), Row(2, 2)}).ok());
  EXPECT_EQ(db.PendingDeltaCount("t", 0), 2u);
  EXPECT_EQ(db.PendingDeltaCount("t", db.CurrentVersion()), 0u);
}

TEST(DatabaseTest, HasPendingDeltaMatchesCount) {
  // The O(1) staleness check must agree with the full count everywhere.
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  EXPECT_FALSE(db.HasPendingDelta("t", 0));
  EXPECT_FALSE(db.HasPendingDelta("ghost", 0));
  ASSERT_TRUE(db.Insert("t", {Row(1, 1)}).ok());  // v1
  ASSERT_TRUE(db.Insert("t", {Row(2, 2)}).ok());  // v2
  for (uint64_t v = 0; v <= db.CurrentVersion(); ++v) {
    EXPECT_EQ(db.HasPendingDelta("t", v), db.PendingDeltaCount("t", v) > 0)
        << "from_version " << v;
  }
}

TEST(DatabaseTest, DeltaLogTruncation) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.Insert("t", {Row(1, 1)}).ok());  // v1
  ASSERT_TRUE(db.Insert("t", {Row(2, 2)}).ok());  // v2
  db.GetMutableTable("t")->TruncateDeltaLog(1);
  EXPECT_EQ(db.GetTable("t")->delta_log().size(), 1u);
  EXPECT_EQ(db.GetTable("t")->delta_log().At(0).version, 2u);
}

TEST(DatabaseTest, InsertIntoMissingTableFails) {
  Database db;
  EXPECT_FALSE(db.Insert("nope", {Row(1, 1)}).ok());
  EXPECT_FALSE(db.Delete("nope", [](const Tuple&) { return true; }).ok());
}

// ---- TableSnapshot: immutability, COW sharing, epoch monotonicity ----------

TEST(TableSnapshotTest, PinnedSnapshotImmutableAcrossAppends) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.BulkLoad("t", {Row(1, 10), Row(2, 20)}).ok());
  auto pinned = db.GetTable("t")->Snapshot();
  ASSERT_EQ(pinned->num_rows(), 2u);

  // The insert lands in the same (shared) tail chunk: the writer must
  // clone it (copy-on-write), leaving the pinned snapshot bit-identical.
  ASSERT_TRUE(db.Insert("t", {Row(3, 30)}).ok());
  EXPECT_EQ(pinned->num_rows(), 2u);
  ASSERT_EQ(pinned->chunks().size(), 1u);
  EXPECT_EQ(pinned->chunks()[0]->num_rows(), 2u);
  EXPECT_EQ(pinned->chunks()[0]->At(1, 1), Value::Int(20));
  // The pinned zone map is frozen too (the clone got the update).
  EXPECT_EQ(pinned->chunks()[0]->zone(0).max, Value::Int(2));

  auto fresh = db.GetTable("t")->Snapshot();
  EXPECT_EQ(fresh->num_rows(), 3u);
  EXPECT_EQ(fresh->chunks()[0]->At(2, 0), Value::Int(3));
  EXPECT_EQ(fresh->chunks()[0]->zone(0).max, Value::Int(3));
  // Distinct physical tail chunks: the clone, not the original, grew.
  EXPECT_NE(fresh->chunks()[0].get(), pinned->chunks()[0].get());
}

TEST(TableSnapshotTest, DeleteRebuildsWhilePinnedSnapshotKeepsOldRows) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.BulkLoad("t", {Row(1, 1), Row(2, 2), Row(3, 3)}).ok());
  auto pinned = db.GetTable("t")->Snapshot();
  ASSERT_TRUE(db.Delete("t", [](const Tuple& r) {
                  return r[0].AsInt() >= 2;
                }).ok());
  EXPECT_EQ(pinned->num_rows(), 3u);  // epoch-based reclamation: still alive
  EXPECT_EQ(db.GetTable("t")->Snapshot()->num_rows(), 1u);
}

TEST(TableSnapshotTest, EpochStrictlyIncreasesPerPublication) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  uint64_t e0 = db.GetTable("t")->SnapshotEpoch();
  ASSERT_TRUE(db.BulkLoad("t", {Row(1, 1)}).ok());
  uint64_t e1 = db.GetTable("t")->SnapshotEpoch();
  ASSERT_TRUE(db.Insert("t", {Row(2, 2)}).ok());
  uint64_t e2 = db.GetTable("t")->SnapshotEpoch();
  ASSERT_TRUE(db.Delete("t", [](const Tuple&) { return true; }, 1).ok());
  uint64_t e3 = db.GetTable("t")->SnapshotEpoch();
  EXPECT_LT(e0, e1);
  EXPECT_LT(e1, e2);
  EXPECT_LT(e2, e3);
}

TEST(TableSnapshotTest, VersionStampIsLastModifyingStatement) {
  Database db;
  ASSERT_TRUE(db.CreateTable("a", TwoColSchema()).ok());
  ASSERT_TRUE(db.CreateTable("b", TwoColSchema()).ok());
  EXPECT_EQ(db.GetTable("a")->Snapshot()->version(), 0u);
  ASSERT_TRUE(db.Insert("a", {Row(1, 1)}).ok());  // v1
  ASSERT_TRUE(db.Insert("b", {Row(2, 2)}).ok());  // v2
  ASSERT_TRUE(db.Insert("a", {Row(3, 3)}).ok());  // v3
  EXPECT_EQ(db.GetTable("a")->Snapshot()->version(), 3u);
  EXPECT_EQ(db.GetTable("b")->Snapshot()->version(), 2u);
}

// ---- ReadView: consistent watermark pinning --------------------------------

TEST(ReadViewTest, PinsConsistentWatermarkAcrossTables) {
  Database db;
  ASSERT_TRUE(db.CreateTable("a", TwoColSchema()).ok());
  ASSERT_TRUE(db.CreateTable("b", TwoColSchema()).ok());
  ASSERT_TRUE(db.Insert("a", {Row(1, 1)}).ok());  // v1
  ASSERT_TRUE(db.Insert("b", {Row(2, 2)}).ok());  // v2
  ReadView view = db.OpenReadView();
  EXPECT_EQ(view.watermark(), 2u);
  EXPECT_EQ(view.NumTables(), 2u);
  EXPECT_EQ(view.TableVersion("a"), 1u);
  EXPECT_EQ(view.TableVersion("b"), 2u);
  ASSERT_NE(view.Find("a"), nullptr);
  EXPECT_EQ(view.Find("a")->num_rows(), 1u);
  EXPECT_EQ(view.Find("ghost"), nullptr);
  EXPECT_EQ(view.TableVersion("ghost"), 0u);
}

TEST(ReadViewTest, PinnedViewUnaffectedByLaterPublishes) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.Insert("t", {Row(1, 1)}).ok());
  ReadView view = db.OpenReadView();
  ASSERT_TRUE(db.Insert("t", {Row(2, 2)}).ok());
  ASSERT_TRUE(db.Insert("t", {Row(3, 3)}).ok());
  // The pinned view stays at its watermark; a fresh view advances.
  EXPECT_EQ(view.watermark(), 1u);
  EXPECT_EQ(view.Find("t")->num_rows(), 1u);
  EXPECT_EQ(view.TableVersion("t"), 1u);
  ReadView fresh = db.OpenReadView();
  EXPECT_EQ(fresh.watermark(), 3u);
  EXPECT_EQ(fresh.Find("t")->num_rows(), 3u);
}

TEST(ReadViewTest, StalenessStampSurvivesDeltaLogTruncation) {
  // The old delta-log staleness probe could be fooled by a truncation
  // sweep dropping exactly the records that proved a sketch stale; the
  // snapshot version stamp a ReadView serves cannot.
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.Insert("t", {Row(1, 1)}).ok());  // v1
  ASSERT_TRUE(db.Insert("t", {Row(2, 2)}).ok());  // v2
  db.TruncateDeltaLogs(2);
  EXPECT_FALSE(db.HasPendingDelta("t", 1));  // vacuous: records are gone
  ReadView view = db.OpenReadView();
  EXPECT_GT(view.TableVersion("t"), 1u);  // ...but the stamp still says stale
  EXPECT_EQ(view.TableVersion("t"), 2u);
}

TEST(ReadViewTest, BoundaryVersionsAroundStagedUnpublishedTail) {
  // A staged-but-unpublished statement is invisible: the view opens at the
  // watermark below it and its rows/stamps are absent until publication.
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.Insert("t", {Row(1, 1)}).ok());  // v1
  uint64_t v2 = db.AllocateVersion();
  {
    auto session = db.WriteSession("t");
    ASSERT_TRUE(db.StageInsert("t", {Row(2, 2)}, v2).ok());
  }
  ReadView before = db.OpenReadView();
  EXPECT_EQ(before.watermark(), 1u);
  EXPECT_EQ(before.Find("t")->num_rows(), 1u);
  EXPECT_EQ(before.TableVersion("t"), 1u);
  {
    auto session = db.WriteSession("t");
    db.PublishTable("t");
  }
  db.RetireVersion(v2);
  ReadView after = db.OpenReadView();
  EXPECT_EQ(after.watermark(), 2u);
  EXPECT_EQ(after.Find("t")->num_rows(), 2u);
  EXPECT_EQ(after.TableVersion("t"), 2u);
}

// ---- Segmented wait-free delta log -----------------------------------------

TEST(DeltaLogTest, WindowScansAcrossSegmentBoundaries) {
  // Three statements of 600 records each span multiple fixed-capacity
  // segments; window scans and counts must be exact at every boundary.
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 600; ++i) rows.push_back(Row(i, i));
  ASSERT_TRUE(db.Insert("t", rows).ok());  // v1
  ASSERT_TRUE(db.Insert("t", rows).ok());  // v2
  ASSERT_TRUE(db.Insert("t", rows).ok());  // v3
  const DeltaLog& log = db.GetTable("t")->delta_log();
  ASSERT_EQ(log.size(), 1800u);
  EXPECT_EQ(log.At(0).version, 1u);
  EXPECT_EQ(log.At(1799).version, 3u);
  EXPECT_EQ(db.ScanDelta("t", 0, 3).size(), 1800u);
  EXPECT_EQ(db.ScanDelta("t", 1, 2).size(), 600u);
  EXPECT_EQ(db.PendingDeltaCount("t", 2), 600u);
  EXPECT_EQ(db.PendingDeltaCount("t", 3), 0u);
}

TEST(DeltaLogTest, TruncationAtSegmentAndVersionBoundaries) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 700; ++i) rows.push_back(Row(i, i));
  ASSERT_TRUE(db.Insert("t", rows).ok());  // v1: records 0..699
  ASSERT_TRUE(db.Insert("t", rows).ok());  // v2: records 700..1399
  ASSERT_TRUE(db.Insert("t", {Row(9, 9)}).ok());  // v3
  const DeltaLog& log = db.GetTable("t")->delta_log();
  // Truncating below the oldest version is a no-op.
  db.TruncateDeltaLogs(0);
  EXPECT_EQ(log.size(), 1401u);
  // Drop v1: the cut lands mid-segment (700 is not a segment multiple).
  db.TruncateDeltaLogs(1);
  EXPECT_EQ(log.size(), 701u);
  EXPECT_EQ(log.At(0).version, 2u);
  EXPECT_EQ(db.ScanDelta("t", 0, 3).size(), 701u);
  EXPECT_EQ(db.ScanDelta("t", 2, 3).size(), 1u);
  EXPECT_TRUE(log.HasRecordAfter(2));
  // Drop everything; the wait-free probe goes quiet.
  db.TruncateDeltaLogs(3);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_FALSE(log.HasRecordAfter(0));
  EXPECT_EQ(db.ScanDelta("t", 0, 3).size(), 0u);
  // The log keeps working after a full truncation.
  ASSERT_TRUE(db.Insert("t", {Row(4, 4)}).ok());  // v4
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.At(0).version, 4u);
}

// ---- Concurrent publication vs. ReadView opening ---------------------------

TEST(ReadViewTest, ConcurrentPublishesYieldConsistentViews) {
  // One writer inserts single rows alternating between two tables while
  // readers keep opening views: every view must satisfy the serialized
  // invariant rows(a) + rows(b) == watermark (each statement adds exactly
  // one row), per-table stamps never exceed the watermark, and snapshot
  // epochs/watermarks observed by one reader never go backwards. A
  // truncator races the delta logs underneath the scans.
  Database db;
  ASSERT_TRUE(db.CreateTable("a", TwoColSchema()).ok());
  ASSERT_TRUE(db.CreateTable("b", TwoColSchema()).ok());
  constexpr size_t kStatements = 400;
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (size_t k = 0; k < kStatements; ++k) {
      const char* table = (k % 2 == 0) ? "a" : "b";
      ASSERT_TRUE(db.Insert(table, {Row(static_cast<int64_t>(k), 1)}).ok());
    }
    done.store(true, std::memory_order_release);
  });
  std::thread truncator([&] {
    while (!done.load(std::memory_order_acquire)) {
      db.TruncateDeltaLogs(db.StableVersion() / 2);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t last_watermark = 0;
      uint64_t last_epoch_a = 0;
      bool running = true;
      while (running) {
        running = !done.load(std::memory_order_acquire);
        ReadView view = db.OpenReadView();
        uint64_t w = view.watermark();
        ASSERT_GE(w, last_watermark);  // watermarks only move forward
        last_watermark = w;
        const TableSnapshot* a = view.Find("a");
        const TableSnapshot* b = view.Find("b");
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        // The pinned set IS the serialized database at watermark w.
        ASSERT_EQ(a->num_rows() + b->num_rows(), w);
        ASSERT_LE(a->version(), w);
        ASSERT_LE(b->version(), w);
        ASSERT_GE(a->epoch(), last_epoch_a);  // monotone publication epochs
        last_epoch_a = a->epoch();
        // Wait-free window scans race the writer and the truncator; the
        // returned records must stay within the window with non-decreasing
        // versions regardless of what was truncated.
        TableDelta delta = db.ScanDelta("a", w / 2, w);
        uint64_t prev = 0;
        for (const DeltaRecord& rec : delta.records) {
          ASSERT_GT(rec.version, w / 2);
          ASSERT_LE(rec.version, w);
          ASSERT_GE(rec.version, prev);
          prev = rec.version;
        }
      }
    });
  }
  writer.join();
  truncator.join();
  for (std::thread& t : readers) t.join();

  ReadView final_view = db.OpenReadView();
  EXPECT_EQ(final_view.watermark(), kStatements);
  EXPECT_EQ(final_view.Find("a")->num_rows() + final_view.Find("b")->num_rows(),
            kStatements);
}

// ---- Snapshot index shards: equivalence and concurrency --------------------

namespace {

using RowLoc = TableSnapshot::RowLoc;

/// Reference point lookup: full scan of the snapshot in emission order.
std::vector<RowLoc> ScanPoint(const TableSnapshot& snap, size_t col,
                              const Value& key) {
  std::vector<RowLoc> out;
  for (uint32_t c = 0; c < snap.chunks().size(); ++c) {
    const DataChunk& chunk = *snap.chunks()[c];
    for (uint32_t r = 0; r < chunk.num_rows(); ++r) {
      if (chunk.At(r, col) == key) out.push_back({c, r});
    }
  }
  return out;
}

/// Reference range lookup: lo <= v <= hi under Value::Compare, NULLs out.
std::vector<RowLoc> ScanRange(const TableSnapshot& snap, size_t col,
                              const Value& lo, const Value& hi) {
  std::vector<RowLoc> out;
  for (uint32_t c = 0; c < snap.chunks().size(); ++c) {
    const DataChunk& chunk = *snap.chunks()[c];
    for (uint32_t r = 0; r < chunk.num_rows(); ++r) {
      const Value& v = chunk.At(r, col);
      if (v.is_null()) continue;
      if (lo.Compare(v) <= 0 && v.Compare(hi) <= 0) out.push_back({c, r});
    }
  }
  return out;
}

bool SameLocs(const std::vector<RowLoc>& a, const std::vector<RowLoc>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].chunk != b[i].chunk || a[i].row != b[i].row) return false;
  }
  return true;
}

}  // namespace

TEST(SnapshotIndexTest, RandomizedIndexedVsScanEquivalence) {
  // Drive a publication chain with a random mix of appends, deletes and
  // seal-crossing batches while probing every generation's index (point
  // and range) against a brute-force scan of the same snapshot. Old
  // generations stay pinned so carried-forward shards are exercised on
  // both the snapshot that built them and its successors.
  std::mt19937 rng(20260808);
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  std::vector<std::shared_ptr<const TableSnapshot>> pinned;
  int64_t next = 0;
  auto key_of = [](int64_t i) { return i % 64; };

  for (int step = 0; step < 60; ++step) {
    int action = static_cast<int>(rng() % 10);
    if (action < 6) {
      // Append a batch; occasionally large enough to seal / cross chunks.
      size_t n = 1 + rng() % (action == 0 ? DataChunk::kSealThreshold * 2 : 8);
      std::vector<Tuple> rows;
      for (size_t i = 0; i < n; ++i, ++next) {
        rows.push_back(rng() % 16 == 0
                           ? Tuple{Value::Null(), Value::Int(next)}
                           : Row(key_of(next), next));
      }
      ASSERT_TRUE(db.Insert("t", rows).ok());
    } else if (action < 8) {
      int64_t victim = static_cast<int64_t>(rng() % 64);
      ASSERT_TRUE(db.Delete("t", [&](const Tuple& row) {
                      return row[0] == Value::Int(victim);
                    }).ok());
    }
    auto snap = db.GetTable("t")->Snapshot();
    if (rng() % 3 == 0) pinned.push_back(snap);

    int64_t key = static_cast<int64_t>(rng() % 64);
    EXPECT_TRUE(SameLocs(snap->IndexProbe(0, Value::Int(key)),
                         ScanPoint(*snap, 0, Value::Int(key))))
        << "step " << step;
    int64_t lo = static_cast<int64_t>(rng() % 64);
    int64_t hi = lo + static_cast<int64_t>(rng() % 16);
    EXPECT_TRUE(SameLocs(snap->IndexRangeProbe(0, Value::Int(lo),
                                               Value::Int(hi)),
                         ScanRange(*snap, 0, Value::Int(lo), Value::Int(hi))))
        << "step " << step;
  }
  // Every pinned generation still answers exactly for its own rows.
  for (const auto& snap : pinned) {
    EXPECT_TRUE(SameLocs(snap->IndexProbe(0, Value::Int(7)),
                         ScanPoint(*snap, 0, Value::Int(7))));
    EXPECT_TRUE(SameLocs(snap->IndexRangeProbe(0, Value::Int(10),
                                               Value::Int(30)),
                         ScanRange(*snap, 0, Value::Int(10), Value::Int(30))));
  }
  // Carry-forward really happened: strictly fewer shards built than probed
  // (chunk, generation) pairs would rebuild without sharing.
  EXPECT_GT(db.GetTable("t")->index_stats().shards_reused.load(), 0u);
}

TEST(SnapshotIndexTest, ConcurrentLazyBuildsRacingPublications) {
  // Readers race each other on the lazy shard assembly (first probe wins,
  // losers must reuse) while a writer keeps publishing new generations.
  // Every probe must agree with a scan of the SAME pinned snapshot; TSan
  // runs this under --repeat to hunt assembly/publication races.
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  std::vector<Tuple> seed;
  for (int64_t i = 0; i < static_cast<int64_t>(DataChunk::kDefaultCapacity); ++i)
    seed.push_back(Row(i % 32, i));
  ASSERT_TRUE(db.BulkLoad("t", seed).ok());
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (int64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(db.Insert("t", {Row(k % 32, -k)}).ok());
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937 rng(1000 + r);
      // Keep probing for a minimum number of iterations even if the
      // writer drains first, so probes overlap many publications.
      for (int it = 0; it < 40 || !done.load(std::memory_order_acquire);
           ++it) {
        auto snap = db.GetTable("t")->Snapshot();
        int64_t key = static_cast<int64_t>(rng() % 32);
        ASSERT_TRUE(SameLocs(snap->IndexProbe(0, Value::Int(key)),
                             ScanPoint(*snap, 0, Value::Int(key))));
        int64_t lo = static_cast<int64_t>(rng() % 32);
        ASSERT_TRUE(SameLocs(
            snap->IndexRangeProbe(0, Value::Int(lo), Value::Int(lo + 4)),
            ScanRange(*snap, 0, Value::Int(lo), Value::Int(lo + 4))));
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  const TableIndexStats& istats = db.GetTable("t")->index_stats();
  EXPECT_GT(istats.point_probes.load(), 0u);
  EXPECT_GT(istats.range_probes.load(), 0u);

  // Deterministic carry-forward coda: the race above can degenerate to a
  // single generation on a slow machine, so force one probe → publish →
  // probe sequence and demand the sealed chunk's shards were reused.
  auto s1 = db.GetTable("t")->Snapshot();
  ASSERT_FALSE(s1->IndexProbe(0, Value::Int(3)).empty());
  ASSERT_FALSE(s1->IndexRangeProbe(0, Value::Int(3), Value::Int(5)).empty());
  uint64_t reused_before = istats.shards_reused.load();
  ASSERT_TRUE(db.Insert("t", {Row(3, -999)}).ok());
  auto s2 = db.GetTable("t")->Snapshot();
  ASSERT_FALSE(s2->IndexProbe(0, Value::Int(3)).empty());
  ASSERT_FALSE(s2->IndexRangeProbe(0, Value::Int(3), Value::Int(5)).empty());
  EXPECT_GT(istats.shards_reused.load(), reused_before);
}

// ---- Cached shard footprint ------------------------------------------------

/// HashShard's footprint walked in the test: the same map operations as
/// HashShard::Build give the same bucket array and row-vector capacities.
size_t WalkHashShardBytes(const ColumnVector& col, size_t n) {
  std::unordered_map<Value, std::vector<uint32_t>, ValueHash> buckets;
  buckets.reserve(n);
  for (uint32_t r = 0; r < n; ++r) buckets[col.GetValue(r)].push_back(r);
  size_t bytes = sizeof(buckets) + buckets.bucket_count() * sizeof(void*);
  for (const auto& [v, rows] : buckets) {
    bytes += v.MemoryBytes() + sizeof(rows) +
             rows.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

/// SortedShard's footprint walked in the test: Build reserves one entry
/// per row and keeps the non-NULL, non-NaN values, each adding its string
/// heap bytes.
size_t WalkSortedShardBytes(const ColumnVector& col, size_t n) {
  using Entry = std::pair<Value, uint32_t>;
  size_t bytes = sizeof(std::vector<Entry>) + n * sizeof(Entry);
  for (uint32_t r = 0; r < n; ++r) {
    Value v = col.GetValue(r);
    if (v.is_null() || (v.is_double() && std::isnan(v.AsDouble()))) continue;
    bytes += v.MemoryBytes() - sizeof(Value);
  }
  return bytes;
}

TEST(SnapshotIndexTest, CachedShardFootprintEqualsWalk) {
  const std::string long_prefix(48, 'x');  // beyond the small-string buffer
  struct Case {
    const char* name;
    ColumnVector::Encoding encoding;
    std::function<Value(int)> cell;
  };
  const std::vector<Case> cases = {
      {"typed int", ColumnVector::Encoding::kInt64,
       [](int i) { return i % 11 == 0 ? Value::Null() : Value::Int(i % 37); }},
      {"double with NaN", ColumnVector::Encoding::kDouble,
       [](int i) {
         if (i % 13 == 0) return Value::Null();
         if (i % 7 == 0) return Value::Double(std::nan(""));
         return Value::Double((i % 41) / 4.0);
       }},
      {"long dict strings", ColumnVector::Encoding::kDictString,
       [&](int i) {
         return Value::String(long_prefix + std::to_string(i % 16));
       }},
      {"long flat strings", ColumnVector::Encoding::kFlatString,
       [&](int i) {
         return i % 9 == 0 ? Value::Null()
                           : Value::String(long_prefix + std::to_string(i));
       }},
      {"all NULL", ColumnVector::Encoding::kUntyped,
       [](int) { return Value::Null(); }},
      {"boxed mixed int/double", ColumnVector::Encoding::kBoxed,
       [](int i) {
         if (i % 17 == 0) return Value::Null();
         return i % 2 == 0 ? Value::Int(i % 23) : Value::Double(i % 19 + 0.5);
       }},
  };
  const size_t n = 700;
  for (const Case& c : cases) {
    ColumnVector col(/*typed=*/true);
    for (size_t i = 0; i < n; ++i) col.Append(c.cell(static_cast<int>(i)));
    ASSERT_EQ(col.encoding(), c.encoding) << c.name;
    EXPECT_EQ(HashShard::Build(col, n)->MemoryBytes(),
              WalkHashShardBytes(col, n))
        << c.name;
    EXPECT_EQ(SortedShard::Build(col, n)->MemoryBytes(),
              WalkSortedShardBytes(col, n))
        << c.name;
  }
}

TEST(SnapshotIndexTest, IndexBytesCarryForwardChangesOnlyTheTail) {
  // A 1-row append publishes a snapshot that shares every sealed chunk
  // (and its shards) and COW-clones the tail: Database::IndexBytes moves
  // by the tail's shards and nothing else.
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  std::vector<Tuple> rows;
  const int64_t n = static_cast<int64_t>(DataChunk::kDefaultCapacity) * 2 + 100;
  for (int64_t i = 0; i < n; ++i) rows.push_back(Row(i % 97, i));
  ASSERT_TRUE(db.BulkLoad("t", rows).ok());
  auto probe = [](const TableSnapshot& snap) {
    ASSERT_FALSE(snap.IndexProbe(0, Value::Int(5)).empty());
    ASSERT_FALSE(
        snap.IndexRangeProbe(1, Value::Int(0), Value::Int(50)).empty());
  };
  auto s1 = db.GetTable("t")->Snapshot();
  probe(*s1);
  const size_t before = db.IndexBytes();

  ASSERT_TRUE(db.Insert("t", {Row(5, -1)}).ok());
  auto s2 = db.GetTable("t")->Snapshot();
  probe(*s2);
  const size_t after = db.IndexBytes();

  ASSERT_EQ(s1->chunks().size(), s2->chunks().size());
  for (size_t c = 0; c + 1 < s1->chunks().size(); ++c) {
    EXPECT_EQ(s1->chunks()[c], s2->chunks()[c]) << "chunk " << c;
  }
  ASSERT_NE(s1->chunks().back(), s2->chunks().back());
  EXPECT_EQ(after - s2->chunks().back()->IndexBytes(),
            before - s1->chunks().back()->IndexBytes());
}

// ---- Typed columnar layout (storage/column_vector) --------------------------

// Column profiles for the typed-vs-boxed twin suite: every encoding plus
// the fallback shapes.
enum ColProfile {
  kProfInt = 0,      // kInt64
  kProfDouble,       // kDouble (integral and fractional values)
  kProfDictStr,      // kDictString (16 distinct)
  kProfFlatStr,      // overflows the dictionary -> kFlatString
  kProfNullHeavyInt, // 60% NULL
  kProfMixed,        // conflicting types -> boxed fallback
  kNumProfiles,
};

Value RandomProfileCell(std::mt19937* rng, int profile) {
  auto pick = [&](int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>((*rng)() % static_cast<uint64_t>(hi - lo + 1));
  };
  if (profile != kProfMixed && pick(0, 9) == 0) return Value::Null();
  switch (profile) {
    case kProfInt:
      return Value::Int(pick(-1000, 1000));
    case kProfDouble:
      return pick(0, 1) == 0 ? Value::Double(static_cast<double>(pick(-50, 50)))
                             : Value::Double(static_cast<double>(pick(-500, 500)) / 7.0);
    case kProfDictStr:
      return Value::String("tag" + std::to_string(pick(0, 15)));
    case kProfFlatStr:
      return Value::String("payload-" + std::to_string(pick(0, 5000)));
    case kProfNullHeavyInt:
      return pick(0, 9) < 6 ? Value::Null() : Value::Int(pick(0, 99));
    default:
      switch (pick(0, 2)) {
        case 0:
          return Value::Int(pick(0, 9));
        case 1:
          return Value::Double(static_cast<double>(pick(0, 9)) + 0.5);
        default:
          return Value::String("m" + std::to_string(pick(0, 9)));
      }
  }
}

TEST(ColumnVectorTest, AdaptiveEncodingCommitsAndRoundTrips) {
  std::mt19937 rng(7);
  DataChunk typed(kNumProfiles, /*typed=*/true);
  DataChunk boxed(kNumProfiles, /*typed=*/false);
  std::vector<Tuple> rows;
  for (int i = 0; i < 2000; ++i) {
    Tuple row;
    for (int p = 0; p < kNumProfiles; ++p) {
      row.push_back(RandomProfileCell(&rng, p));
    }
    typed.AppendRow(row);
    boxed.AppendRow(row);
    rows.push_back(std::move(row));
  }
  EXPECT_EQ(typed.column(kProfInt).encoding(), ColumnVector::Encoding::kInt64);
  EXPECT_EQ(typed.column(kProfDouble).encoding(),
            ColumnVector::Encoding::kDouble);
  EXPECT_EQ(typed.column(kProfDictStr).encoding(),
            ColumnVector::Encoding::kDictString);
  EXPECT_EQ(typed.column(kProfFlatStr).encoding(),
            ColumnVector::Encoding::kFlatString);
  EXPECT_TRUE(typed.column(kProfMixed).fell_back());
  EXPECT_EQ(typed.BoxedFallbackCells(), rows.size());  // only the mixed column

  // Every cell reboxes exactly; zone maps agree with the boxed layout.
  for (size_t r = 0; r < rows.size(); ++r) {
    for (int c = 0; c < kNumProfiles; ++c) {
      EXPECT_EQ(typed.At(r, c).Compare(rows[r][c]), 0)
          << "row " << r << " col " << c;
      EXPECT_EQ(typed.At(r, c).type(), rows[r][c].type());
    }
  }
  for (int c = 0; c < kNumProfiles; ++c) {
    DataChunk::ZoneEntry zt = typed.zone(c);
    DataChunk::ZoneEntry zb = boxed.zone(c);
    ASSERT_EQ(zt.valid, zb.valid) << "col " << c;
    if (zt.valid) {
      EXPECT_EQ(zt.min.Compare(zb.min), 0) << "col " << c;
      EXPECT_EQ(zt.max.Compare(zb.max), 0) << "col " << c;
    }
  }
}

TEST(ColumnVectorTest, AllNullColumnStaysUntyped) {
  ColumnVector cv(/*typed=*/true);
  for (int i = 0; i < 10; ++i) cv.Append(Value::Null());
  EXPECT_EQ(cv.encoding(), ColumnVector::Encoding::kUntyped);
  EXPECT_TRUE(cv.IsNull(3));
  EXPECT_TRUE(cv.GetValue(7).is_null());
  Value mn, mx;
  EXPECT_FALSE(cv.MinMax(&mn, &mx));
  // Committing after a NULL prefix backfills the payload.
  cv.Append(Value::Int(5));
  EXPECT_EQ(cv.encoding(), ColumnVector::Encoding::kInt64);
  EXPECT_TRUE(cv.GetValue(0).is_null());
  EXPECT_EQ(cv.GetValue(10), Value::Int(5));
}

TEST(ColumnVectorTest, GatherMatchesGetRowLoop) {
  std::mt19937 rng(11);
  DataChunk typed(kNumProfiles, /*typed=*/true);
  for (int i = 0; i < 1500; ++i) {
    Tuple row;
    for (int p = 0; p < kNumProfiles; ++p) {
      row.push_back(RandomProfileCell(&rng, p));
    }
    typed.AppendRow(row);
  }
  BitVector sel(typed.num_rows());
  for (size_t r = 0; r < typed.num_rows(); ++r) {
    if (rng() % 3 == 0) sel.Set(r);
  }
  std::vector<Tuple> gathered = typed.GatherRows(sel);
  std::vector<Tuple> reference;
  sel.ForEachSetBit([&](size_t r) { reference.push_back(typed.GetRow(r)); });
  ASSERT_EQ(gathered.size(), reference.size());
  for (size_t i = 0; i < gathered.size(); ++i) {
    ASSERT_EQ(gathered[i].size(), reference[i].size());
    for (size_t c = 0; c < gathered[i].size(); ++c) {
      EXPECT_EQ(gathered[i][c].Compare(reference[i][c]), 0);
      EXPECT_EQ(gathered[i][c].type(), reference[i][c].type());
    }
  }
}

TEST(ColumnVectorTest, AppendKeyHashesMatchesBoxedHashLoop) {
  std::mt19937 rng(13);
  for (int profile = 0; profile < kNumProfiles; ++profile) {
    ColumnVector cv(/*typed=*/true);
    const size_t n = 800;
    for (size_t i = 0; i < n; ++i) {
      cv.Append(RandomProfileCell(&rng, profile));
    }
    constexpr uint64_t kSeed = 0x2545f4914f6cdd1dULL;
    std::vector<uint64_t> batched(n, kSeed);
    cv.AppendKeyHashes(n, &batched);
    for (size_t i = 0; i < n; ++i) {
      uint64_t expect = HashCombine(kSeed, cv.GetValue(i).Hash());
      ASSERT_EQ(batched[i], expect) << "profile " << profile << " row " << i;
    }
  }
}

TEST(TableTest, TypedVsBoxedTwinTablesBitIdentical) {
  DatabaseOptions boxed_opts;
  boxed_opts.typed_columns = false;
  Database typed_db;
  Database boxed_db(boxed_opts);
  Schema schema;
  schema.AddColumn("i", ValueType::kInt);
  schema.AddColumn("d", ValueType::kDouble);
  schema.AddColumn("s", ValueType::kString);
  ASSERT_TRUE(typed_db.CreateTable("t", schema).ok());
  ASSERT_TRUE(boxed_db.CreateTable("t", schema).ok());

  std::mt19937 rng(17);
  for (int round = 0; round < 12; ++round) {
    std::vector<Tuple> batch;
    for (int i = 0; i < 700; ++i) {
      batch.push_back(Tuple{RandomProfileCell(&rng, kProfInt),
                            RandomProfileCell(&rng, kProfDouble),
                            RandomProfileCell(&rng, kProfDictStr)});
    }
    int64_t doomed = static_cast<int64_t>(rng() % 2000) - 1000;
    for (Database* db : {&typed_db, &boxed_db}) {
      ASSERT_TRUE(db->Insert("t", batch).ok());
      if (round % 4 == 3) {
        ASSERT_TRUE(db->Delete("t", [&](const Tuple& row) {
                        return row[0].is_int() && row[0].AsInt() < doomed;
                      }).ok());
      }
    }
    std::vector<Tuple> typed_rows, boxed_rows;
    typed_db.GetTable("t")->ForEachRow(
        [&](const Tuple& r) { typed_rows.push_back(r); });
    boxed_db.GetTable("t")->ForEachRow(
        [&](const Tuple& r) { boxed_rows.push_back(r); });
    ASSERT_EQ(typed_rows.size(), boxed_rows.size()) << "round " << round;
    for (size_t i = 0; i < typed_rows.size(); ++i) {
      ASSERT_TRUE(TupleEq{}(typed_rows[i], boxed_rows[i]))
          << "round " << round << " row " << i;
    }
    for (size_t c = 0; c < schema.size(); ++c) {
      std::pair<Value, Value> t = typed_db.GetTable("t")->ColumnMinMax(c);
      std::pair<Value, Value> b = boxed_db.GetTable("t")->ColumnMinMax(c);
      EXPECT_EQ(t.first.Compare(b.first), 0) << "col " << c;
      EXPECT_EQ(t.second.Compare(b.second), 0) << "col " << c;
    }
  }
  // The typed layout actually engaged, and it is the smaller one for this
  // numeric/dictionary-friendly data.
  Database::TypedColumnStats tstats = typed_db.AggregateTypedColumnStats();
  EXPECT_GT(tstats.typed_chunks, 0u);
  EXPECT_EQ(tstats.boxed_fallback_cells, 0u);
  EXPECT_EQ(boxed_db.AggregateTypedColumnStats().typed_chunks, 0u);
  EXPECT_LT(typed_db.GetTable("t")->MemoryBytes(),
            boxed_db.GetTable("t")->MemoryBytes());
}

TEST(TableSnapshotTest, TypedCowTailAppendDuringConcurrentReads) {
  // Writer keeps appending (COW-tail republications, dict growth, a
  // dict->flat conversion on the way) while readers pin snapshots and walk
  // typed chunks. Pinned chunks are immutable, so every read must be
  // consistent; TSan hunts layout/publication races under --repeat.
  Database db;
  Schema schema;
  schema.AddColumn("id", ValueType::kInt);
  schema.AddColumn("s", ValueType::kString);
  ASSERT_TRUE(db.CreateTable("t", schema).ok());
  ASSERT_TRUE(db.BulkLoad("t", {Tuple{Value::Int(0), Value::String("w0")}})
                  .ok());
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (int64_t k = 1; k <= 600; ++k) {
      // ~350 distinct strings: the tail chunk's dictionary overflows into
      // the flat layout mid-stream.
      Tuple row{Value::Int(k), Value::String("w" + std::to_string(k % 350))};
      ASSERT_TRUE(db.Insert("t", {row}).ok());
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      for (int it = 0; it < 50 || !done.load(std::memory_order_acquire);
           ++it) {
        auto snap = db.GetTable("t")->Snapshot();
        size_t seen = 0;
        for (const auto& chunk : snap->chunks()) {
          DataChunk::ZoneEntry z = chunk->zone(0);
          ASSERT_TRUE(z.valid);
          for (size_t i = 0; i < chunk->num_rows(); ++i) {
            Tuple row = chunk->GetRow(i);
            ASSERT_EQ(row.size(), 2u);
            ASSERT_TRUE(row[0].is_int());
            ASSERT_GE(row[0].Compare(z.min), 0);
            ASSERT_LE(row[0].Compare(z.max), 0);
            ASSERT_TRUE(row[1].is_string());
            ASSERT_EQ(row[1].AsString(),
                      "w" + std::to_string(row[0].AsInt() % 350));
            ++seen;
          }
        }
        ASSERT_EQ(seen, snap->num_rows());
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(db.GetTable("t")->NumRows(), 601u);
}

// ---- Run appends and chunk-granular deletes ---------------------------------

// Cell identity that also holds for NaN (Value::operator== is false there).
bool SameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.is_double()) {
    double x = a.AsDouble(), y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  return a.Compare(b) == 0;
}

void ExpectSameColumn(const ColumnVector& a, const ColumnVector& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(a.encoding(), b.encoding()) << what;
  EXPECT_EQ(a.fell_back(), b.fell_back()) << what;
  EXPECT_EQ(a.has_nulls(), b.has_nulls()) << what;
  EXPECT_EQ(a.nulls().num_bits(), b.nulls().num_bits()) << what;
  EXPECT_TRUE(a.nulls() == b.nulls()) << what;
  EXPECT_EQ(a.dict_size(), b.dict_size()) << what;
  EXPECT_EQ(a.MemoryBytes(), b.MemoryBytes()) << what;
  Value amin, amax, bmin, bmax;
  const bool avalid = a.MinMax(&amin, &amax);
  ASSERT_EQ(avalid, b.MinMax(&bmin, &bmax)) << what;
  if (avalid) {
    EXPECT_TRUE(SameCell(amin, bmin)) << what;
    EXPECT_TRUE(SameCell(amax, bmax)) << what;
  }
  EXPECT_EQ(a.AnyNaN(), b.AnyNaN()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.IsNull(i), b.IsNull(i)) << what << " row " << i;
    ASSERT_TRUE(SameCell(a.GetValue(i), b.GetValue(i))) << what << " row " << i;
  }
}

TEST(TableTest, AppendRowsLayoutEqualsRowAtATimeAppends) {
  // Six columns: int with NULLs, double with NaN and NULLs, dictionary
  // strings, strings that overflow the dictionary mid-chunk (flat), an int
  // column that turns boxed at a double mid-chunk, and an all-NULL column.
  Schema schema;
  for (const char* name : {"i", "d", "ds", "fs", "mx", "nul"}) {
    schema.AddColumn(name, ValueType::kInt);
  }
  std::mt19937 rng(2024);
  auto pick = [&](int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(rng() % static_cast<uint64_t>(hi - lo + 1));
  };
  const size_t n = 3 * DataChunk::kDefaultCapacity + 333;
  std::vector<Tuple> rows;
  for (size_t r = 0; r < n; ++r) {
    Tuple t(6);
    t[0] = pick(0, 9) == 0 ? Value::Null() : Value::Int(pick(-500, 500));
    const int64_t dr = pick(0, 19);
    t[1] = dr == 0   ? Value::Null()
           : dr == 1 ? Value::Double(std::nan(""))
                     : Value::Double(static_cast<double>(pick(-80, 80)) / 3);
    t[2] = pick(0, 14) == 0 ? Value::Null()
                            : Value::String("tag" + std::to_string(pick(0, 9)));
    // Distinct per row past row 3000 of each chunk: the dictionary
    // overflows into the flat layout mid-chunk.
    t[3] = (r % DataChunk::kDefaultCapacity) < 3000
               ? Value::String("k" + std::to_string(pick(0, 20)))
               : Value::String("u" + std::to_string(r));
    t[4] = (r == 2 * DataChunk::kDefaultCapacity + 77 || pick(0, 2999) == 0)
               ? Value::Double(0.5)
               : (pick(0, 29) == 0 ? Value::Null() : Value::Int(pick(0, 99)));
    t[5] = Value::Null();
    rows.push_back(std::move(t));
  }
  for (bool typed : {true, false}) {
    Table row_wise("t", schema, typed);
    Table run_wise("t", schema, typed);
    // Random runs, with a publication after each (both tables at the same
    // row positions) so the copy-on-write and seal paths run too.
    for (size_t done = 0; done < n;) {
      const size_t len = std::min<size_t>(n - done, 1 + rng() % 5000);
      for (size_t i = done; i < done + len; ++i) row_wise.AppendRow(rows[i]);
      run_wise.AppendRows(rows.data() + done, len);
      done += len;
      row_wise.PublishSnapshot();
      run_wise.PublishSnapshot();
    }
    ASSERT_EQ(run_wise.NumRows(), n);
    ASSERT_EQ(row_wise.chunks().size(), run_wise.chunks().size());
    for (size_t c = 0; c < run_wise.chunks().size(); ++c) {
      const DataChunk& a = *row_wise.chunks()[c];
      const DataChunk& b = *run_wise.chunks()[c];
      ASSERT_EQ(a.num_rows(), b.num_rows()) << "chunk " << c;
      EXPECT_EQ(a.MemoryBytes(), b.MemoryBytes()) << "chunk " << c;
      for (size_t col = 0; col < schema.size(); ++col) {
        ExpectSameColumn(a.column(col), b.column(col),
                         std::string(typed ? "typed" : "boxed") + " chunk " +
                             std::to_string(c) + " col " +
                             std::to_string(col));
      }
    }
    if (typed) {
      // The profiles really produced every shape.
      std::set<std::pair<size_t, ColumnVector::Encoding>> seen;
      bool nan = false;
      for (const auto& chunk : run_wise.chunks()) {
        for (size_t col = 0; col < schema.size(); ++col) {
          seen.emplace(col, chunk->column(col).encoding());
        }
        nan = nan || chunk->column(1).AnyNaN();
      }
      using E = ColumnVector::Encoding;
      for (auto shape : {std::make_pair(size_t{0}, E::kInt64),
                         std::make_pair(size_t{1}, E::kDouble),
                         std::make_pair(size_t{2}, E::kDictString),
                         std::make_pair(size_t{3}, E::kFlatString),
                         std::make_pair(size_t{4}, E::kBoxed),
                         std::make_pair(size_t{4}, E::kInt64),
                         std::make_pair(size_t{5}, E::kUntyped)}) {
        EXPECT_EQ(seen.count(shape), 1u) << "column " << shape.first;
      }
      EXPECT_TRUE(nan);
    }
  }
}

TEST(TableTest, DeleteInTheTailChunkLeavesOtherChunksShared) {
  // Deleting rows that all sit in the tail chunk rebuilds that chunk only:
  // every other chunk stays the same pointer, and a re-probe of the
  // successor snapshot reuses their cached shards. With the zone-map
  // pre-filter the predicate sees only the tail chunk's rows.
  for (bool hinted : {false, true}) {
    Database db;
    ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
    const int64_t n = 3 * static_cast<int64_t>(DataChunk::kDefaultCapacity) + 500;
    std::vector<Tuple> rows;
    for (int64_t i = 0; i < n; ++i) rows.push_back(Row(i, i % 97));
    ASSERT_TRUE(db.BulkLoad("t", rows).ok());
    const Table& table = *db.GetTable("t");
    auto probe = [](const TableSnapshot& snap) {
      ASSERT_FALSE(snap.IndexProbe(1, Value::Int(5)).empty());
      ASSERT_FALSE(
          snap.IndexRangeProbe(0, Value::Int(0), Value::Int(50)).empty());
    };
    auto s1 = table.Snapshot();
    ASSERT_EQ(s1->chunks().size(), 4u);
    probe(*s1);

    const int64_t cut = n - 200;
    ExprPtr where = MakeBinary(BinaryOp::kGe,
                               MakeColumnRef(0, "id", ValueType::kInt),
                               MakeLiteral(Value::Int(cut)));
    size_t pred_calls = 0;
    auto pred = [&](const Tuple& row) {
      ++pred_calls;
      return row[0].AsInt() >= cut;
    };
    ChunkFilter may_match;
    if (hinted) {
      may_match = [&](const DataChunk& chunk) {
        return ChunkMayMatch(*where, chunk);
      };
    }
    ASSERT_TRUE(db.Delete("t", pred, SIZE_MAX, may_match).ok());
    EXPECT_EQ(pred_calls, hinted ? 500u : static_cast<size_t>(n));

    auto s2 = table.Snapshot();
    ASSERT_EQ(s2->num_rows(), static_cast<size_t>(cut));
    ASSERT_EQ(s2->chunks().size(), 4u);
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(s1->chunks()[c], s2->chunks()[c]) << "chunk " << c;
    }
    EXPECT_NE(s1->chunks()[3], s2->chunks()[3]);
    EXPECT_EQ(s2->chunks()[3]->num_rows(), 300u);

    const uint64_t built = table.index_stats().shards_built.load();
    const uint64_t reused = table.index_stats().shards_reused.load();
    probe(*s2);
    EXPECT_EQ(table.index_stats().shards_built.load() - built, 2u);
    EXPECT_EQ(table.index_stats().shards_reused.load() - reused, 6u);
    int64_t expect = 0;
    s2->ForEachRow([&](const Tuple& row) {
      EXPECT_EQ(row[0], Value::Int(expect));
      ++expect;
    });
    EXPECT_EQ(expect, cut);
  }
}

TEST(TableTest, RandomDeletesRebuildOnlyTouchedChunks) {
  // Random deletes with random limits against a reference row list: the
  // survivors and their order match, every chunk that lost no row is
  // carried forward as the same pointer, and rebuilt chunks are packed.
  std::mt19937 rng(99);
  for (bool typed : {true, false}) {
    Table t("t", TwoColSchema(), typed);
    std::vector<Tuple> model;
    int64_t next_id = 0;
    for (int round = 0; round < 40; ++round) {
      std::vector<Tuple> batch;
      const size_t len = rng() % 3000;
      for (size_t i = 0; i < len; ++i) {
        batch.push_back(Row(next_id++, static_cast<int64_t>(rng() % 50)));
      }
      t.AppendRows(batch);
      model.insert(model.end(), batch.begin(), batch.end());
      t.PublishSnapshot();

      const int64_t lo = static_cast<int64_t>(rng() % 50);
      const int64_t hi = lo + static_cast<int64_t>(rng() % 4);
      const size_t limit = rng() % 3 == 0 ? rng() % 40 : SIZE_MAX;
      auto pred = [&](const Tuple& row) {
        return row[1].AsInt() >= lo && row[1].AsInt() <= hi &&
               row[0].AsInt() % 7 != 0;
      };
      std::vector<std::shared_ptr<DataChunk>> before = t.chunks();
      std::vector<Tuple> removed = t.DeleteWhereLimit(pred, limit);

      std::vector<Tuple> expect_removed, expect_kept;
      for (Tuple& row : model) {
        (expect_removed.size() < limit && pred(row) ? expect_removed
                                                    : expect_kept)
            .push_back(row);
      }
      model = std::move(expect_kept);
      ASSERT_EQ(removed, expect_removed) << "round " << round;
      std::vector<Tuple> rows;
      t.ForEachRow([&](const Tuple& row) { rows.push_back(row); });
      ASSERT_EQ(rows, model) << "round " << round;
      ASSERT_EQ(t.NumRows(), model.size());

      std::set<int64_t> gone;
      for (const Tuple& row : removed) gone.insert(row[0].AsInt());
      std::set<const DataChunk*> after;
      for (const auto& chunk : t.chunks()) {
        EXPECT_GT(chunk->num_rows(), 0u);
        after.insert(chunk.get());
      }
      for (const auto& chunk : before) {
        bool touched = false;
        for (size_t r = 0; r < chunk->num_rows(); ++r) {
          touched = touched || gone.count(chunk->At(r, 0).AsInt()) > 0;
        }
        EXPECT_EQ(after.count(chunk.get()), touched ? 0u : 1u)
            << "round " << round;
      }
    }
  }
}

}  // namespace
}  // namespace imp
