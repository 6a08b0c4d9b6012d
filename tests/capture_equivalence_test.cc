// Capture equivalence: the columnar IncAggregate build (a scan under zero
// or more selections, folded straight off the chunk columns) must leave
// exactly the operator state the row-at-a-time build leaves, byte for byte
// through SerializeState(), and its sketch must equal a fresh capture.
// Randomized over the typed and the boxed table layout, NULLs, NaN
// doubles, dictionary and flat strings, a mixed-type column that falls
// back to the boxed layout mid-chunk, empty tables and chunks the zone
// maps skip whole.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "imp/maintainer.h"
#include "sketch/capture.h"
#include "storage/database.h"

namespace imp {
namespace {

// r(id, g, p, x, s, m): id ascends (zone maps on it skip chunks whole), g
// is the group key, p the integer partition attribute (with out-of-domain
// values), x a double with NaN, s a string, m an int column that holds an
// occasional double (its chunk reboxes mid-chunk).
enum Col : size_t { kId = 0, kG, kP, kX, kS, kM, kNumCols };

Schema RSchema() {
  Schema s;
  s.AddColumn("id", ValueType::kInt);
  s.AddColumn("g", ValueType::kInt);
  s.AddColumn("p", ValueType::kInt);
  s.AddColumn("x", ValueType::kDouble);
  s.AddColumn("s", ValueType::kString);
  s.AddColumn("m", ValueType::kInt);
  return s;
}

ExprPtr Col(size_t c) {
  const Schema schema = RSchema();
  return MakeColumnRef(c, schema.column(c).name, schema.column(c).type);
}
ExprPtr Int(int64_t v) { return MakeLiteral(Value::Int(v)); }
ExprPtr Dbl(double v) { return MakeLiteral(Value::Double(v)); }

struct TableSpec {
  size_t rows = 0;
  bool flat_strings = false;  ///< > kDictMaxDistinct distinct strings
};

std::vector<Tuple> RandomRows(const TableSpec& spec, std::mt19937* rng) {
  auto pick = [&](int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>((*rng)() %
                                     static_cast<uint64_t>(hi - lo + 1));
  };
  std::vector<Tuple> rows;
  rows.reserve(spec.rows);
  for (size_t i = 0; i < spec.rows; ++i) {
    Tuple t(kNumCols);
    t[kId] = Value::Int(static_cast<int64_t>(i));
    t[kG] = pick(0, 19) == 0 ? Value::Null() : Value::Int(pick(0, 40));
    const int64_t pr = pick(0, 49);
    t[kP] = pr == 0   ? Value::Null()
            : pr == 1 ? Value::Int(-7)    // below the partition domain
            : pr == 2 ? Value::Int(150)   // above it
                      : Value::Int(pick(0, 99));
    const int64_t xr = pick(0, 29);
    t[kX] = xr == 0   ? Value::Null()
            : xr == 1 ? Value::Double(std::nan(""))
                      : Value::Double(static_cast<double>(pick(-100, 100)) / 8);
    t[kS] = pick(0, 19) == 0
                ? Value::Null()
                : Value::String((spec.flat_strings ? "v" : "tag") +
                                std::to_string(spec.flat_strings
                                                   ? pick(0, 999)
                                                   : pick(0, 7)));
    // One double per ~1500 rows, plus a fixed one mid-chunk 1: the typed
    // chunk that receives it reboxes every cell and carries on boxed.
    const bool dbl = pick(0, 1499) == 0 ||
                     i == DataChunk::kDefaultCapacity + 100;
    t[kM] = dbl ? Value::Double(static_cast<double>(pick(0, 9)) + 0.5)
                : Value::Int(pick(0, 9));
    rows.push_back(std::move(t));
  }
  return rows;
}

// Selection predicates over r: compiled comparisons and range sets (some
// rule out whole chunks by the id zone map), NaN-sensitive double terms,
// string terms, and two with a scalar remainder (arithmetic, column vs
// column) that runs through Expr::Eval on the surviving rows only.
ExprPtr RandomPredicate(size_t num_rows, std::mt19937* rng) {
  const int64_t n = static_cast<int64_t>(num_rows);
  switch ((*rng)() % 9) {
    case 0:
      return MakeBinary(BinaryOp::kLt, Col(kId), Int(n / 3));
    case 1:
      return MakeBinary(BinaryOp::kGe, Col(kId), Int(n - n / 4));
    case 2:
      return MakeBinary(BinaryOp::kGt, Col(kX), Dbl(0.25));
    case 3:
      return MakeUnary(UnaryOp::kNot,
                       MakeBinary(BinaryOp::kLt, Col(kX), Dbl(0.5)));
    case 4:
      return MakeBinary(BinaryOp::kNe, Col(kS),
                        MakeLiteral(Value::String("tag1")));
    case 5:
      return MakeBetween(Col(kP), Int(10), Int(60));
    case 6:
      return MakeConjunction(
          {MakeBinary(BinaryOp::kLt, Col(kG), Int(30)),
           MakeBinary(BinaryOp::kGt,
                      MakeBinary(BinaryOp::kAdd, Col(kG), Col(kP)), Int(50))});
    case 7:
      return MakeBinary(BinaryOp::kLe, Col(kG), Col(kP));
    default:
      return MakeDisjunction({MakeBinary(BinaryOp::kLt, Col(kP), Int(20)),
                              MakeBinary(BinaryOp::kGt, Col(kP), Int(80))});
  }
}

std::vector<AggSpec> RandomAggs(std::mt19937* rng) {
  const std::vector<AggSpec> pool = {
      {AggFunc::kSum, Col(kP), "sum_p"},   {AggFunc::kSum, Col(kX), "sum_x"},
      {AggFunc::kSum, Col(kM), "sum_m"},   {AggFunc::kCount, nullptr, "n"},
      {AggFunc::kCount, Col(kX), "n_x"},   {AggFunc::kCount, Col(kS), "n_s"},
      {AggFunc::kAvg, Col(kP), "avg_p"},   {AggFunc::kAvg, Col(kX), "avg_x"},
      {AggFunc::kMin, Col(kG), "min_g"},   {AggFunc::kMin, Col(kS), "min_s"},
      {AggFunc::kMax, Col(kX), "max_x"},   {AggFunc::kMax, Col(kP), "max_p"},
      {AggFunc::kMin, Col(kM), "min_m"},
  };
  std::vector<AggSpec> out;
  const size_t k = 1 + (*rng)() % 4;
  for (size_t i = 0; i < k; ++i) out.push_back(pool[(*rng)() % pool.size()]);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].name += "_" + std::to_string(i);  // distinct output names
  }
  return out;
}

PlanPtr AggregatePlan(std::vector<ExprPtr> selects, std::vector<size_t> keys,
                      std::vector<AggSpec> aggs) {
  PlanPtr plan = MakeScan("r", RSchema());
  for (ExprPtr& pred : selects) plan = MakeSelect(plan, std::move(pred));
  std::vector<ExprPtr> group_exprs;
  std::vector<std::string> names;
  for (size_t c : keys) {
    group_exprs.push_back(Col(c));
    names.push_back(RSchema().column(c).name);
  }
  return MakeAggregate(plan, std::move(group_exprs), std::move(names),
                       std::move(aggs));
}

enum class PartitionKind { kInt, kDouble, kNone };

/// Load `rows` into a fresh database of the given layout and register the
/// partition of r.
void Load(PartitionKind part, const std::vector<Tuple>& rows,
          Database* db, PartitionCatalog* catalog) {
  ASSERT_TRUE(db->CreateTable("r", RSchema()).ok());
  ASSERT_TRUE(db->BulkLoad("r", rows).ok());
  if (part == PartitionKind::kInt) {
    ASSERT_TRUE(
        catalog->Register(RangePartition::EquiWidthInt("r", "p", kP, 0, 99, 16))
            .ok());
  } else if (part == PartitionKind::kDouble) {
    std::vector<Value> bounds;
    for (int b = -12; b <= 12; b += 3) bounds.push_back(Value::Double(b));
    ASSERT_TRUE(
        catalog->Register(RangePartition("r", "x", kX, std::move(bounds)))
            .ok());
  }
}

/// Initialize the columnar and the row-path maintainer on `plan` and check
/// state bytes, sketch, and which path served each build.
void ExpectColumnarEqualsRowPath(const Database& db,
                                 const PartitionCatalog& catalog,
                                 const PlanPtr& plan, size_t minmax_buffer,
                                 bool columnar_expected,
                                 const std::string& what) {
  MaintainerOptions columnar_opts;
  columnar_opts.minmax_buffer = minmax_buffer;
  MaintainerOptions row_opts = columnar_opts;
  row_opts.typed_columns = false;
  Maintainer columnar(&db, &catalog, plan, columnar_opts);
  Maintainer row(&db, &catalog, plan, row_opts);
  Result<ProvenanceSketch> c = columnar.Initialize();
  Result<ProvenanceSketch> r = row.Initialize();
  ASSERT_TRUE(c.ok()) << what << ": " << c.status().ToString();
  ASSERT_TRUE(r.ok()) << what << ": " << r.status().ToString();
  EXPECT_EQ(columnar.stats().columnar_builds, columnar_expected ? 1u : 0u)
      << what;
  EXPECT_EQ(row.stats().columnar_builds, 0u) << what;
  EXPECT_TRUE(columnar.SerializeState() == row.SerializeState()) << what;
  CaptureEngine engine(&db, &catalog);
  Result<ProvenanceSketch> fresh = engine.Capture(plan);
  ASSERT_TRUE(fresh.ok()) << what;
  EXPECT_EQ(c.value().fragments.SetBits(), fresh.value().fragments.SetBits())
      << what;
}

class CaptureEquivalenceTest : public ::testing::TestWithParam<bool> {};

TEST_P(CaptureEquivalenceTest, RandomFilteredAggregatesMatchTheRowPath) {
  const bool typed = GetParam();
  std::mt19937 rng(typed ? 1501 : 1502);
  const std::vector<std::vector<size_t>> key_sets = {
      {kG}, {kG, kS}, {kS}, {}, {kM}, {kP}};
  const size_t sizes[] = {0, 1, 300,
                          2 * DataChunk::kDefaultCapacity + 700};
  for (int tcase = 0; tcase < 12; ++tcase) {
    TableSpec spec;
    spec.rows = sizes[tcase % 4];
    spec.flat_strings = tcase % 3 == 2;
    const PartitionKind part = static_cast<PartitionKind>(tcase % 3);
    DatabaseOptions opts;
    opts.typed_columns = typed;
    Database db(opts);
    PartitionCatalog catalog;
    Load(part, RandomRows(spec, &rng), &db, &catalog);
    for (int pcase = 0; pcase < 10; ++pcase) {
      std::vector<ExprPtr> selects;
      const size_t num_selects = static_cast<size_t>(pcase % 3);
      for (size_t k = 0; k < num_selects; ++k) {
        selects.push_back(RandomPredicate(spec.rows, &rng));
      }
      PlanPtr plan = AggregatePlan(std::move(selects),
                                   key_sets[rng() % key_sets.size()],
                                   RandomAggs(&rng));
      for (size_t buffer : {size_t{0}, size_t{3}}) {
        ExpectColumnarEqualsRowPath(
            db, catalog, plan, buffer, /*columnar_expected=*/true,
            "table case " + std::to_string(tcase) + ", plan " +
                std::to_string(pcase) + ", buffer " + std::to_string(buffer) +
                ": " + plan->ToString());
      }
    }
  }
}

TEST_P(CaptureEquivalenceTest, ZoneSkippedChunksAndOtherShapes) {
  const bool typed = GetParam();
  std::mt19937 rng(typed ? 77 : 78);
  TableSpec spec;
  spec.rows = 3 * DataChunk::kDefaultCapacity + 10;
  DatabaseOptions opts;
  opts.typed_columns = typed;
  Database db(opts);
  PartitionCatalog catalog;
  Load(PartitionKind::kInt, RandomRows(spec, &rng), &db, &catalog);
  const std::vector<AggSpec> aggs = {{AggFunc::kSum, Col(kP), "s"},
                                     {AggFunc::kMax, Col(kX), "mx"},
                                     {AggFunc::kCount, nullptr, "n"}};
  // Zone maps rule out all but the first chunk, then the second selection
  // leaves a handful of rows; and one that rules out every chunk.
  ExpectColumnarEqualsRowPath(
      db, catalog,
      AggregatePlan({MakeBinary(BinaryOp::kLt, Col(kId), Int(1000)),
                     MakeBinary(BinaryOp::kGt, Col(kX), Dbl(11.0))},
                    {kG}, aggs),
      0, true, "first chunk only");
  ExpectColumnarEqualsRowPath(
      db, catalog,
      AggregatePlan({MakeBinary(BinaryOp::kLt, Col(kId), Int(-1))}, {kG},
                    aggs),
      0, true, "every chunk skipped");
  ExpectColumnarEqualsRowPath(
      db, catalog,
      AggregatePlan({MakeBinary(BinaryOp::kLt, Col(kId), Int(-1))}, {}, aggs),
      0, true, "every chunk skipped, global aggregate");
  // A pushed-down scan filter is the innermost selection.
  PlanPtr filtered = MakeAggregate(
      MakeSelect(MakeScan("r", RSchema(),
                          MakeBinary(BinaryOp::kGe, Col(kId), Int(5000))),
                 MakeBinary(BinaryOp::kNe, Col(kS),
                            MakeLiteral(Value::String("tag2")))),
      {Col(kG)}, {"g"}, aggs);
  ExpectColumnarEqualsRowPath(db, catalog, filtered, 3, true,
                              "scan filter under a selection");
  // HAVING above the aggregate: the selection over the output stays on
  // the row path, the aggregate below it is still built column-wise.
  PlanPtr having = MakeSelect(
      AggregatePlan({MakeBinary(BinaryOp::kLt, Col(kP), Int(70))}, {kG}, aggs),
      MakeBinary(BinaryOp::kGt, MakeColumnRef(3, "n", ValueType::kInt),
                 Int(40)));
  ExpectColumnarEqualsRowPath(db, catalog, having, 0, true, "having");
  // An expression argument needs the materialized row: row path both ways.
  ExpectColumnarEqualsRowPath(
      db, catalog,
      AggregatePlan({MakeBinary(BinaryOp::kLt, Col(kP), Int(70))}, {kG},
                    {{AggFunc::kSum,
                      MakeBinary(BinaryOp::kAdd, Col(kP), Int(1)), "s1"}}),
      0, false, "expression argument");
}

INSTANTIATE_TEST_SUITE_P(Layouts, CaptureEquivalenceTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Typed" : "Boxed";
                         });

}  // namespace
}  // namespace imp
