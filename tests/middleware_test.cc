// Tests for the IMP middleware: capture-or-use-or-maintain dispatch,
// template-based sketch reuse, NS/FM/IMP answer equivalence, eager vs lazy
// strategies, and the update path.

#include <gtest/gtest.h>

#include <cmath>

#include "middleware/imp_system.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace imp {
namespace {

class MiddlewareTest : public ::testing::Test {
 protected:
  void SetUp() override { LoadSalesExample(&db_); }

  std::unique_ptr<ImpSystem> NewSystem(ExecutionMode mode,
                                       MaintenanceStrategy strategy =
                                           MaintenanceStrategy::kLazy) {
    ImpConfig config;
    config.mode = mode;
    config.strategy = strategy;
    auto system = std::make_unique<ImpSystem>(&db_, config);
    if (mode != ExecutionMode::kNoSketch) {
      IMP_CHECK(system->RegisterPartition(SalesPricePartition()).ok());
    }
    return system;
  }

  Database db_;
};

TEST_F(MiddlewareTest, FirstQueryCapturesSketch) {
  auto system = NewSystem(ExecutionMode::kIncremental);
  auto result = system->Query(kSalesQTop);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_EQ(result.value().rows[0][0], Value::String("Apple"));
  EXPECT_EQ(system->stats().sketch_captures, 1u);
  EXPECT_EQ(system->stats().sketch_uses, 1u);
  EXPECT_EQ(system->sketches().size(), 1u);
}

TEST_F(MiddlewareTest, SecondQueryReusesSketchViaTemplate) {
  auto system = NewSystem(ExecutionMode::kIncremental);
  ASSERT_TRUE(system->Query(kSalesQTop).ok());
  // Same template, different constant: must reuse the sketch, not recapture.
  auto result = system->Query(
      "SELECT brand, sum(price * numSold) AS rev FROM sales "
      "GROUP BY brand HAVING sum(price * numSold) > 6000");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(system->stats().sketch_captures, 1u);
  EXPECT_EQ(system->stats().sketch_uses, 2u);
}

TEST_F(MiddlewareTest, StaleSketchMaintainedLazilyOnUse) {
  auto system = NewSystem(ExecutionMode::kIncremental);
  ASSERT_TRUE(system->Query(kSalesQTop).ok());
  // Ex. 1.2 insert; lazy strategy: no maintenance until the next query.
  ASSERT_TRUE(system
                  ->Update("INSERT INTO sales VALUES "
                           "(8, 'HP', 'HP ProBook 650 G10', 1299, 1)")
                  .ok());
  EXPECT_EQ(system->stats().maintenances, 0u);
  auto result = system->Query(kSalesQTop);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(system->stats().maintenances, 1u);
  // The refreshed sketch answers correctly: HP now passes.
  ASSERT_EQ(result.value().size(), 2u);
}

TEST_F(MiddlewareTest, EagerStrategyMaintainsOnUpdate) {
  auto system =
      NewSystem(ExecutionMode::kIncremental, MaintenanceStrategy::kEager);
  ASSERT_TRUE(system->Query(kSalesQTop).ok());
  ASSERT_TRUE(system
                  ->Update("INSERT INTO sales VALUES "
                           "(8, 'HP', 'HP ProBook 650 G10', 1299, 1)")
                  .ok());
  // Eager with batch size 1: maintenance already happened.
  EXPECT_EQ(system->stats().maintenances, 1u);
}

TEST_F(MiddlewareTest, EagerBatchingDelaysMaintenance) {
  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  config.strategy = MaintenanceStrategy::kEager;
  config.eager_batch_size = 3;
  ImpSystem system(&db_, config);
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
  ASSERT_TRUE(system.Query(kSalesQTop).ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(system
                    .Update("INSERT INTO sales VALUES (" +
                            std::to_string(10 + i) +
                            ", 'Dell', 'XPS', 700, 1)")
                    .ok());
    EXPECT_EQ(system.stats().maintenances, 0u);
  }
  ASSERT_TRUE(
      system.Update("INSERT INTO sales VALUES (12, 'Dell', 'XPS', 700, 1)")
          .ok());
  EXPECT_EQ(system.stats().maintenances, 1u);  // batch of 3 flushed
}

TEST_F(MiddlewareTest, AllThreeModesAgreeOnAnswers) {
  // Run the same mixed sequence under NS / FM / IMP; answers must agree.
  std::vector<std::string> queries = {
      kSalesQTop,
      "SELECT brand, sum(price * numSold) AS rev FROM sales "
      "GROUP BY brand HAVING sum(price * numSold) > 1000",
  };
  std::vector<std::string> updates = {
      "INSERT INTO sales VALUES (8, 'HP', 'HP ProBook 650 G10', 1299, 1)",
      "DELETE FROM sales WHERE sid = 3",
      "INSERT INTO sales VALUES (9, 'Apple', 'MacBook Air 15', 1399, 2)",
  };

  auto run = [&](ExecutionMode mode) {
    Database db;
    LoadSalesExample(&db);
    ImpConfig config;
    config.mode = mode;
    ImpSystem system(&db, config);
    if (mode != ExecutionMode::kNoSketch) {
      IMP_CHECK(system.RegisterPartition(SalesPricePartition()).ok());
    }
    std::vector<Relation> answers;
    for (size_t step = 0; step < updates.size(); ++step) {
      for (const std::string& q : queries) {
        auto result = system.Query(q);
        IMP_CHECK_MSG(result.ok(), result.status().ToString().c_str());
        answers.push_back(std::move(result).value());
      }
      IMP_CHECK(system.Update(updates[step]).ok());
    }
    for (const std::string& q : queries) {
      auto result = system.Query(q);
      IMP_CHECK(result.ok());
      answers.push_back(std::move(result).value());
    }
    return answers;
  };

  auto ns = run(ExecutionMode::kNoSketch);
  auto fm = run(ExecutionMode::kFullMaintenance);
  auto imp = run(ExecutionMode::kIncremental);
  ASSERT_EQ(ns.size(), fm.size());
  ASSERT_EQ(ns.size(), imp.size());
  for (size_t i = 0; i < ns.size(); ++i) {
    EXPECT_TRUE(ns[i].SameBag(fm[i])) << "FM diverged at answer " << i;
    EXPECT_TRUE(ns[i].SameBag(imp[i])) << "IMP diverged at answer " << i;
  }
}

TEST_F(MiddlewareTest, UnsafeQueryFallsBackToPlainExecution) {
  auto system = NewSystem(ExecutionMode::kIncremental);
  // avg() HAVING with non-group-aligned price partition: unsafe => no
  // sketch is created, but the query still answers correctly.
  auto result = system->Query(
      "SELECT brand, avg(price) AS p FROM sales GROUP BY brand "
      "HAVING avg(price) < 2000");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(system->stats().sketch_captures, 0u);
  EXPECT_EQ(system->sketches().size(), 0u);
  EXPECT_EQ(result.value().size(), 3u);  // Lenovo, Dell, HP
}

TEST_F(MiddlewareTest, UpdateStatementRewritesRows) {
  auto system = NewSystem(ExecutionMode::kNoSketch);
  ASSERT_TRUE(
      system->Update("UPDATE sales SET numSold = numSold + 10 "
                     "WHERE brand = 'HP'")
          .ok());
  auto result = system->Query(
      "SELECT sum(numSold) AS n FROM sales WHERE brand = 'HP'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows[0][0], Value::Int(25));  // (4+10) + (1+10)
}

TEST_F(MiddlewareTest, QueryOnUpdatedDataAfterDeleteIsCorrect) {
  auto system = NewSystem(ExecutionMode::kIncremental);
  ASSERT_TRUE(system->Query(kSalesQTop).ok());
  // Deleting s4 drops Apple below the threshold: result becomes empty.
  ASSERT_TRUE(system->Update("DELETE FROM sales WHERE sid = 4").ok());
  auto result = system->Query(kSalesQTop);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 0u);
}

TEST_F(MiddlewareTest, RetainedSketchHistory) {
  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  config.retain_sketch_history = true;
  ImpSystem system(&db_, config);
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
  ASSERT_TRUE(system.Query(kSalesQTop).ok());
  ASSERT_TRUE(
      system.Update("INSERT INTO sales VALUES (8, 'HP', 'X', 1299, 1)").ok());
  ASSERT_TRUE(system.Query(kSalesQTop).ok());
  auto entries = system.sketches().AllEntries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0]->history.size(), 1u);
  // The retained version is the pre-update sketch {ρ3, ρ4}.
  EXPECT_EQ(entries[0]->history[0].fragments.SetBits(),
            (std::vector<size_t>{2, 3}));
}

TEST_F(MiddlewareTest, PartitionTableHelperBuildsEquiDepth) {
  ImpConfig config;
  ImpSystem system(&db_, config);
  ASSERT_TRUE(system.PartitionTable("sales", "price", 4).ok());
  const RangePartition* part = system.catalog().Find("sales");
  ASSERT_NE(part, nullptr);
  EXPECT_GE(part->num_fragments(), 2u);
  EXPECT_FALSE(system.PartitionTable("sales", "price", 4).ok());  // dup
  EXPECT_FALSE(system.PartitionTable("ghost", "x", 4).ok());
}

// RangePartition::FragmentOf clamps values below the declared domain (and
// NULL) into the first fragment and values above it into the last, so the
// use-rewrite's edge runs must be unbounded on that side (and admit NULL)
// or the sketch answer silently loses those rows.
TEST(SketchEdgeFragmentTest, OutOfDomainAndNullRowsMatchThePlainScan) {
  Database db;
  Schema schema;
  schema.AddColumn("a", ValueType::kInt);
  schema.AddColumn("b", ValueType::kInt);
  ASSERT_TRUE(db.CreateTable("r", schema).ok());
  std::vector<Tuple> rows;
  for (int64_t a = 0; a < 100; ++a) rows.push_back({Value::Int(a), Value::Int(1)});
  rows.push_back({Value::Int(50), Value::Int(600)});  // an inner run too
  rows.push_back({Value::Int(-7), Value::Int(1000)});
  rows.push_back({Value::Int(150), Value::Int(1000)});
  rows.push_back({Value::Null(), Value::Int(1000)});
  ASSERT_TRUE(db.BulkLoad("r", rows).ok());

  ImpConfig ns_config;
  ns_config.mode = ExecutionMode::kNoSketch;
  ImpSystem plain(&db, ns_config);
  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system
                  .RegisterPartition(
                      RangePartition::EquiWidthInt("r", "a", 0, 0, 99, 10))
                  .ok());
  const char* sql = "SELECT a, sum(b) AS s FROM r GROUP BY a HAVING sum(b) > 500";

  auto expected = plain.Query(sql);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected.value().size(), 4u);
  auto captured = system.Query(sql);  // capture, then answer via the sketch
  ASSERT_TRUE(captured.ok());
  EXPECT_EQ(system.stats().sketch_captures, 1u);
  EXPECT_TRUE(captured.value().SameBag(expected.value()));

  // Out-of-domain rows arriving later, maintained into the sketch.
  ASSERT_TRUE(system.Update("INSERT INTO r VALUES (-20, 900)").ok());
  ASSERT_TRUE(system.Update("INSERT INTO r VALUES (NULL, 5)").ok());
  ASSERT_TRUE(system.Update("INSERT INTO r VALUES (400, 501)").ok());
  expected = plain.Query(sql);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected.value().size(), 6u);
  auto maintained = system.Query(sql);
  ASSERT_TRUE(maintained.ok());
  EXPECT_EQ(system.stats().sketch_captures, 1u);
  EXPECT_GE(system.stats().maintenances, 1u);
  EXPECT_TRUE(maintained.value().SameBag(expected.value()));
}

TEST(SketchEdgeFragmentTest, NaNRowInTheLastFragmentMatchesThePlainScan) {
  // FragmentOf places NaN in the last fragment, and the last run `a >= 90`
  // holds on it (NaN compares equal to every number). The NaN row sits
  // mid-chunk in a chunk whose other values all lie below 90, so only a
  // NaN-aware zone test keeps that chunk for the sketch-filtered scan.
  Database db;
  Schema schema;
  schema.AddColumn("a", ValueType::kDouble);
  schema.AddColumn("g", ValueType::kInt);
  schema.AddColumn("b", ValueType::kInt);
  ASSERT_TRUE(db.CreateTable("r", schema).ok());
  const int64_t cap = static_cast<int64_t>(DataChunk::kDefaultCapacity);
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 2 * cap; ++i) {
    // Chunk 0 holds a in [0, 50), chunk 1 a in [50, 100).
    const double a = (i < cap ? 0 : 50) + static_cast<double>(i % 500) / 10;
    rows.push_back({Value::Double(a), Value::Int(1 + i % 50), Value::Int(1)});
  }
  rows[100] = {Value::Double(std::nan("")), Value::Int(0), Value::Int(1000)};
  rows.push_back({Value::Double(95), Value::Int(0), Value::Int(1)});
  ASSERT_TRUE(db.BulkLoad("r", rows).ok());

  ImpConfig ns_config;
  ns_config.mode = ExecutionMode::kNoSketch;
  ImpSystem plain(&db, ns_config);
  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  ImpSystem system(&db, config);
  std::vector<Value> bounds;
  for (int b = 0; b <= 100; b += 10) bounds.push_back(Value::Double(b));
  ASSERT_TRUE(system.RegisterPartition(RangePartition("r", "a", 0, bounds)).ok());
  const char* sql = "SELECT g, sum(b) AS s FROM r GROUP BY g HAVING sum(b) > 500";

  auto expected = plain.Query(sql);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected.value().size(), 1u);
  for (int pass = 0; pass < 2; ++pass) {  // capture, then reuse the sketch
    auto answered = system.Query(sql);
    ASSERT_TRUE(answered.ok());
    EXPECT_TRUE(answered.value().SameBag(expected.value())) << "pass " << pass;
  }
  EXPECT_EQ(system.stats().sketch_captures, 1u);
}

}  // namespace
}  // namespace imp
