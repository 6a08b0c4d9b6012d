// Randomized equivalence suite for the batch predicate kernels
// (exec/vector_kernels): for any predicate the compiler sees — compilable,
// partially compilable, or fully scalar — the kernel's selection bitmap
// must be bit-for-bit identical to row-at-a-time Expr::Eval, over both
// columnar chunks and row-major blocks. Also checks end-to-end: queries,
// captures and maintenance produce identical results with the kernels on
// and off.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "exec/executor.h"
#include "exec/vector_kernels.h"
#include "imp/inc_aggregate.h"
#include "imp/inc_operators.h"
#include "imp/maintainer.h"
#include "sketch/capture.h"
#include "sketch/partition.h"
#include "sketch/use_rewrite.h"
#include "test_util.h"

namespace imp {
namespace {

// ---- Random data + predicate generators ------------------------------------

// Columns: a int, b int, c double, d string (with NULLs sprinkled in every
// column so three-valued comparison semantics are exercised).
Schema MixedSchema() {
  Schema s;
  s.AddColumn("a", ValueType::kInt);
  s.AddColumn("b", ValueType::kInt);
  s.AddColumn("c", ValueType::kDouble);
  s.AddColumn("d", ValueType::kString);
  return s;
}

Value RandomCell(Rng* rng, size_t col) {
  if (rng->Chance(0.1)) return Value::Null();
  switch (col) {
    case 0:
      return Value::Int(rng->UniformInt(0, 100));
    case 1:
      return Value::Int(rng->UniformInt(-50, 50));
    case 2:
      return Value::Double(rng->UniformDouble(-10.0, 10.0));
    default:
      return Value::String(std::string("s") +
                           std::to_string(rng->UniformInt(0, 9)));
  }
}

std::vector<Tuple> RandomRows(Rng* rng, size_t n) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Tuple{RandomCell(rng, 0), RandomCell(rng, 1),
                         RandomCell(rng, 2), RandomCell(rng, 3)});
  }
  return rows;
}

ExprPtr RandomColumn(Rng* rng) {
  static const ValueType kTypes[] = {ValueType::kInt, ValueType::kInt,
                                     ValueType::kDouble, ValueType::kString};
  static const char* kNames[] = {"a", "b", "c", "d"};
  size_t col = static_cast<size_t>(rng->UniformInt(0, 3));
  return MakeColumnRef(col, kNames[col], kTypes[col]);
}

ExprPtr RandomLiteral(Rng* rng, size_t col_hint) {
  if (rng->Chance(0.05)) return MakeLiteral(Value::Null());
  return MakeLiteral(RandomCell(rng, col_hint));
}

BinaryOp RandomCmp(Rng* rng) {
  static const BinaryOp kOps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                                  BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
  return kOps[rng->UniformInt(0, 5)];
}

/// A random predicate mixing every shape the compiler handles (col-vs-lit
/// in both orders, BETWEEN, AND/OR/NOT, OR-of-ranges) with shapes it must
/// fall back on (col-vs-col, arithmetic).
ExprPtr RandomPredicate(Rng* rng, int depth) {
  if (depth > 0 && rng->Chance(0.6)) {
    switch (rng->UniformInt(0, 2)) {
      case 0:
        return MakeBinary(BinaryOp::kAnd, RandomPredicate(rng, depth - 1),
                          RandomPredicate(rng, depth - 1));
      case 1:
        return MakeBinary(BinaryOp::kOr, RandomPredicate(rng, depth - 1),
                          RandomPredicate(rng, depth - 1));
      default:
        return MakeUnary(UnaryOp::kNot, RandomPredicate(rng, depth - 1));
    }
  }
  size_t col = static_cast<size_t>(rng->UniformInt(0, 3));
  switch (rng->UniformInt(0, 5)) {
    case 0:  // col cmp lit
      return MakeBinary(RandomCmp(rng), RandomColumn(rng),
                        RandomLiteral(rng, col));
    case 1:  // lit cmp col (compiled through the mirrored op)
      return MakeBinary(RandomCmp(rng), RandomLiteral(rng, col),
                        RandomColumn(rng));
    case 2:  // BETWEEN
      return MakeBetween(RandomColumn(rng), RandomLiteral(rng, col),
                         RandomLiteral(rng, col));
    case 3:  // col cmp col — NOT compilable, exercises the scalar remainder
      return MakeBinary(RandomCmp(rng), RandomColumn(rng), RandomColumn(rng));
    case 4: {  // arithmetic (numeric columns only) — NOT compilable
      size_t num_col = static_cast<size_t>(rng->UniformInt(0, 1));
      return MakeBinary(
          RandomCmp(rng),
          MakeBinary(BinaryOp::kAdd,
                     MakeColumnRef(num_col, num_col == 0 ? "a" : "b",
                                   ValueType::kInt),
                     MakeLiteral(Value::Int(1))),
          RandomLiteral(rng, 0));
    }
    default:  // constant
      return MakeLiteral(rng->Chance(0.5) ? Value::Int(1) : Value::Int(0));
  }
}

/// Reference bit: the scalar semantics the kernel must reproduce exactly.
bool ScalarBit(const ExprPtr& expr, const Tuple& row) {
  return expr->Eval(row).IsTrue();
}

void ExpectBitIdentical(const PredicateKernel& kernel, const ExprPtr& expr,
                        const RowBlock& block,
                        const std::vector<Tuple>& rows_for_reference,
                        const std::string& context) {
  BitVector sel;
  size_t batches = 0, fallback_rows = 0;
  kernel.Eval(block, &sel, &batches, &fallback_rows);
  ASSERT_EQ(block.num_rows(), rows_for_reference.size());
  for (size_t i = 0; i < rows_for_reference.size(); ++i) {
    ASSERT_EQ(sel.Test(i), ScalarBit(expr, rows_for_reference[i]))
        << context << " row " << i << " expr " << expr->ToString();
  }
}

// ---- Randomized kernel-vs-scalar over columnar chunks -----------------------

TEST(VectorKernelTest, RandomizedEquivalenceOnChunks) {
  Rng rng(42);
  Database db;
  ASSERT_TRUE(db.CreateTable("t", MixedSchema()).ok());
  std::vector<Tuple> rows = RandomRows(&rng, 9000);  // spans several chunks
  ASSERT_TRUE(db.BulkLoad("t", rows).ok());
  auto snap = db.GetTable("t")->Snapshot();

  for (int trial = 0; trial < 60; ++trial) {
    ExprPtr expr = RandomPredicate(&rng, 3);
    PredicateKernel kernel = PredicateKernel::Compile(expr);
    size_t row_base = 0;
    for (const auto& chunk : snap->chunks()) {
      std::vector<Tuple> chunk_rows;
      chunk_rows.reserve(chunk->num_rows());
      for (size_t r = 0; r < chunk->num_rows(); ++r) {
        chunk_rows.push_back(chunk->GetRow(r));
      }
      ExpectBitIdentical(kernel, expr, RowBlock::FromChunk(*chunk), chunk_rows,
                         "chunk@" + std::to_string(row_base));
      row_base += chunk->num_rows();
    }
  }
}

// ---- Randomized kernel-vs-scalar over row-major blocks ----------------------

TEST(VectorKernelTest, RandomizedEquivalenceOnTupleArrays) {
  Rng rng(43);
  std::vector<Tuple> rows = RandomRows(&rng, 700);
  for (int trial = 0; trial < 60; ++trial) {
    ExprPtr expr = RandomPredicate(&rng, 3);
    PredicateKernel kernel = PredicateKernel::Compile(expr);
    ExpectBitIdentical(kernel, expr,
                       RowBlock::FromTuples(rows.data(), rows.size()), rows,
                       "tuple-array");
  }
}

TEST(VectorKernelTest, RandomizedEquivalenceOnStridedMembers) {
  // The layout the maintenance pipeline uses: tuples embedded in a larger
  // struct, accessed at a stride via FromMember.
  struct Wrapper {
    int64_t pad0 = 7;
    Tuple row;
    std::string pad1 = "x";
  };
  Rng rng(44);
  std::vector<Tuple> plain = RandomRows(&rng, 500);
  std::vector<Wrapper> wrapped(plain.size());
  for (size_t i = 0; i < plain.size(); ++i) wrapped[i].row = plain[i];
  for (int trial = 0; trial < 40; ++trial) {
    ExprPtr expr = RandomPredicate(&rng, 3);
    PredicateKernel kernel = PredicateKernel::Compile(expr);
    ExpectBitIdentical(kernel, expr,
                       RowBlock::FromMember(wrapped, &Wrapper::row), plain,
                       "strided");
  }
}

// ---- Targeted shapes --------------------------------------------------------

TEST(VectorKernelTest, ScalarRemainderOnlyTestsSurvivors) {
  // (a <= 10) AND (a < b): the comparison compiles, the col-vs-col
  // remainder must run only on rows that pass the compiled part.
  ExprPtr expr = MakeBinary(
      BinaryOp::kAnd,
      MakeBinary(BinaryOp::kLe, MakeColumnRef(0, "a", ValueType::kInt),
                 MakeLiteral(Value::Int(10))),
      MakeBinary(BinaryOp::kLt, MakeColumnRef(0, "a", ValueType::kInt),
                 MakeColumnRef(1, "b", ValueType::kInt)));
  PredicateKernel kernel = PredicateKernel::Compile(expr);
  EXPECT_TRUE(kernel.vectorized());
  EXPECT_FALSE(kernel.fully_vectorized());
  ASSERT_NE(kernel.scalar_remainder(), nullptr);

  std::vector<Tuple> rows;
  for (int v = 0; v < 100; ++v) {
    rows.push_back(Tuple{Value::Int(v), Value::Int(50)});
  }
  BitVector sel;
  size_t batches = 0, fallback_rows = 0;
  kernel.Eval(RowBlock::FromTuples(rows.data(), rows.size()), &sel, &batches,
              &fallback_rows);
  EXPECT_EQ(batches, 1u);
  EXPECT_EQ(fallback_rows, 11u);  // rows 0..10 survive a <= 10
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(sel.Test(i), ScalarBit(expr, rows[i])) << "row " << i;
  }
}

TEST(VectorKernelTest, NullPredicateSelectsEverything) {
  PredicateKernel kernel = PredicateKernel::Compile(nullptr);
  EXPECT_FALSE(kernel.has_predicate());
  std::vector<Tuple> rows = {{Value::Int(1)}, {Value::Null()}};
  BitVector sel;
  kernel.Eval(RowBlock::FromTuples(rows.data(), rows.size()), &sel, nullptr,
              nullptr);
  EXPECT_EQ(sel.Count(), rows.size());
}

// ---- Range-set leaves -------------------------------------------------------
//
// Every single-column AND / OR / NOT / BETWEEN tree compiles to ONE
// range-set leaf. The shape tests pin that for what the sketch use-rewrite
// actually emits; the equivalence tests check the leaf bit-for-bit against
// Expr::Eval on every column encoding and both RowBlock layouts.

/// One row set in every layout a kernel reads: a row-major block, the
/// chunks of a typed table and the chunks of a boxed table.
class Layouts {
 public:
  Layouts(const Schema& schema, std::vector<Tuple> rows)
      : rows_(std::move(rows)), boxed_(BoxedOptions()) {
    for (Database* db : {&typed_, &boxed_}) {
      IMP_CHECK(db->CreateTable("t", schema).ok());
      IMP_CHECK(db->BulkLoad("t", rows_).ok());
    }
  }

  /// Zone [min, max] of column `col` in each typed chunk.
  std::vector<DataChunk::ZoneEntry> Zones(size_t col) const {
    std::vector<DataChunk::ZoneEntry> zones;
    for (const auto& chunk : typed_.GetTable("t")->Snapshot()->chunks()) {
      zones.push_back(chunk->zone(col));
    }
    return zones;
  }

  /// Checks the compiled `expr` bit-for-bit against Expr::Eval in each.
  void ExpectMatchesEval(const ExprPtr& expr, const std::string& context) const {
    PredicateKernel kernel = PredicateKernel::Compile(expr);
    ExpectBitIdentical(kernel, expr,
                       RowBlock::FromTuples(rows_.data(), rows_.size()), rows_,
                       context + " tuples");
    for (const Database* db : {&typed_, &boxed_}) {
      const std::string layout = db == &typed_ ? " typed" : " boxed";
      size_t base = 0;
      for (const auto& chunk : db->GetTable("t")->Snapshot()->chunks()) {
        std::vector<Tuple> chunk_rows(rows_.begin() + base,
                                      rows_.begin() + base + chunk->num_rows());
        ExpectBitIdentical(kernel, expr, RowBlock::FromChunk(*chunk), chunk_rows,
                           context + layout + " chunk@" + std::to_string(base));
        base += chunk->num_rows();
      }
      ASSERT_EQ(base, rows_.size());
    }
  }

 private:
  static DatabaseOptions BoxedOptions() {
    DatabaseOptions o;
    o.typed_columns = false;
    return o;
  }

  std::vector<Tuple> rows_;
  Database typed_;
  Database boxed_;
};

ProvenanceSketch SketchOf(const PartitionCatalog& catalog,
                          const std::string& table,
                          const std::vector<size_t>& local) {
  ProvenanceSketch sketch;
  sketch.fragments = BitVector(catalog.total_fragments());
  for (size_t f : local) sketch.fragments.Set(catalog.GlobalFragment(table, f));
  return sketch;
}

TEST(RangeSetLeafTest, SketchPredicateCompilesToOneRangeSetLeaf) {
  // t(a int, d int) partitioned on a into 100 fragments of [0, 999]; u(c
  // double) into 100 fragments of [-50, 50].
  PartitionCatalog catalog;
  ASSERT_TRUE(
      catalog.Register(RangePartition::EquiWidthInt("t", "a", 0, 0, 999, 100))
          .ok());
  std::vector<Value> dbounds;
  for (int i = 0; i <= 100; ++i) dbounds.push_back(Value::Double(i - 50.0));
  ASSERT_TRUE(catalog.Register(RangePartition("u", "c", 0, dbounds)).ok());

  std::vector<size_t> runs20, runs50;
  for (size_t f = 0; f <= 90; f += 5) runs20.push_back(f);  // 19 runs
  runs20.push_back(99);
  for (size_t f = 0; f <= 96; f += 2) runs50.push_back(f);  // 49 runs
  runs50.push_back(99);
  struct Case {
    const char* name;
    std::vector<size_t> frags;
  };
  const std::vector<Case> cases = {
      {"1 inner run", {10, 11, 12}},
      {"1 run from the first fragment", {0, 1, 2}},
      {"20 runs", runs20},
      {"50 runs", runs50},
  };

  Schema ts;
  ts.AddColumn("a", ValueType::kInt);
  ts.AddColumn("d", ValueType::kInt);
  // In, below and above the declared domain; the odd-typed rows at the end
  // make the last chunk fall back to boxed cells, the first stays typed.
  std::vector<Tuple> trows;
  for (int pass = 0; pass < 4; ++pass) {
    for (int64_t a = -60; a < 1100; ++a) {
      trows.push_back({Value::Int(a), Value::Int(a % 7)});
    }
  }
  trows.push_back({Value::Null(), Value::Int(1)});
  trows.push_back({Value::Double(12.5), Value::Int(1)});
  trows.push_back({Value::String("zz"), Value::Int(1)});
  const Layouts t_layouts(ts, trows);
  for (const Case& c : cases) {
    ExprPtr pred = SketchScanPredicate(catalog, "t", SketchOf(catalog, "t", c.frags));
    ASSERT_NE(pred, nullptr) << c.name;
    PredicateKernel kernel = PredicateKernel::Compile(pred);
    EXPECT_TRUE(kernel.fully_vectorized()) << c.name;
    EXPECT_EQ(kernel.num_leaves(), 1u) << c.name << ": " << pred->ToString();
    EXPECT_EQ(kernel.num_range_sets(), 1u) << c.name;
    t_layouts.ExpectMatchesEval(pred, c.name);
    // Conjoined with a scan filter on another column: one leaf each.
    ExprPtr filtered = MakeBinary(
        BinaryOp::kAnd,
        MakeBinary(BinaryOp::kLt, MakeColumnRef(1, "d", ValueType::kInt),
                   MakeLiteral(Value::Int(5))),
        pred);
    PredicateKernel fk = PredicateKernel::Compile(filtered);
    EXPECT_EQ(fk.num_leaves(), 2u) << c.name;
    EXPECT_EQ(fk.num_range_sets(), 1u) << c.name;
    t_layouts.ExpectMatchesEval(filtered, std::string(c.name) + "+d");
  }
  // A run ending at the last fragment alone is one bare comparison, and a
  // plain comparison stays a comparison leaf.
  ExprPtr tail =
      SketchScanPredicate(catalog, "t", SketchOf(catalog, "t", {97, 98, 99}));
  PredicateKernel tk = PredicateKernel::Compile(tail);
  EXPECT_EQ(tk.num_leaves(), 1u);
  EXPECT_EQ(tk.num_range_sets(), 0u);
  t_layouts.ExpectMatchesEval(tail, "tail run");
  PredicateKernel plain = PredicateKernel::Compile(MakeBinary(
      BinaryOp::kLt, MakeColumnRef(1, "d", ValueType::kInt),
      MakeLiteral(Value::Int(500))));
  EXPECT_EQ(plain.num_leaves(), 1u);
  EXPECT_EQ(plain.num_range_sets(), 0u);

  // The double partition, NaN, infinities and NULL included.
  Schema us;
  us.AddColumn("c", ValueType::kDouble);
  std::vector<Tuple> urows;
  for (int i = -700; i < 700; ++i) urows.push_back({Value::Double(i / 10.0)});
  for (double v : {std::nan(""), HUGE_VAL, -HUGE_VAL, -0.0, 49.99, 50.0}) {
    urows.push_back({Value::Double(v)});
  }
  urows.push_back({Value::Null()});
  const Layouts u_layouts(us, urows);
  // A leading NaN poisons the chunk's zone: no clipping, same answer.
  std::swap(urows.front(), urows[urows.size() - 7]);
  const Layouts nan_zone_layouts(us, urows);
  for (const Case& c : cases) {
    ExprPtr pred = SketchScanPredicate(catalog, "u", SketchOf(catalog, "u", c.frags));
    PredicateKernel kernel = PredicateKernel::Compile(pred);
    EXPECT_EQ(kernel.num_leaves(), 1u) << c.name;
    EXPECT_EQ(kernel.num_range_sets(), 1u) << c.name;
    u_layouts.ExpectMatchesEval(pred, std::string("double ") + c.name);
    nan_zone_layouts.ExpectMatchesEval(pred, std::string("NaN-zone ") + c.name);
  }
}

// Columns: ci int clustered by row position (narrow chunk zones), cd double
// clustered with NaN, cm mixed int/double (boxed fallback), cs string, cn
// mostly-NULL int.
Schema RangeSetSchema() {
  Schema s;
  s.AddColumn("ci", ValueType::kInt);
  s.AddColumn("cd", ValueType::kDouble);
  s.AddColumn("cm", ValueType::kInt);
  s.AddColumn("cs", ValueType::kString);
  s.AddColumn("cn", ValueType::kInt);
  return s;
}

std::vector<Tuple> RangeSetRows(Rng* rng, size_t n) {
  std::vector<Tuple> rows;
  for (size_t i = 0; i < n; ++i) {
    const int64_t pos = static_cast<int64_t>(i / 4);
    Tuple row;
    row.push_back(rng->Chance(0.05) ? Value::Null()
                                    : Value::Int(pos + rng->UniformInt(0, 3)));
    if (rng->Chance(0.05)) {
      row.push_back(Value::Null());
    } else if (rng->Chance(0.02)) {
      row.push_back(Value::Double(std::nan("")));
    } else {
      row.push_back(Value::Double(pos * 0.5 + rng->UniformDouble(0.0, 1.0)));
    }
    row.push_back(rng->Chance(0.5) ? Value::Int(rng->UniformInt(0, 60))
                                   : Value::Double(rng->UniformDouble(0.0, 60.0)));
    row.push_back(rng->Chance(0.05)
                      ? Value::Null()
                      : Value::String("s" + std::to_string(rng->UniformInt(100, 400))));
    // cn is all NULL in the first chunk (an untyped column there).
    row.push_back(i < DataChunk::kDefaultCapacity || rng->Chance(0.7)
                      ? Value::Null()
                      : Value::Int(rng->UniformInt(0, 50)));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// A literal near column `col`'s values — sometimes of another type (int
/// vs double, a string against a number), rarely NULL.
Value RangeSetLiteral(Rng* rng, size_t col, int64_t scale) {
  if (rng->Chance(0.03)) return Value::Null();
  if (rng->Chance(0.05)) return Value::String("s" + std::to_string(rng->UniformInt(100, 400)));
  const int64_t v = rng->UniformInt(-5, scale + 5);
  switch (col) {
    case 1:
      return rng->Chance(0.7) ? Value::Double(v * 0.5 + 0.25) : Value::Int(v / 2);
    case 3:
      return Value::String("s" + std::to_string(rng->UniformInt(100, 400)));
    default:
      return rng->Chance(0.85) ? Value::Int(v) : Value::Double(v + 0.5);
  }
}

/// A random single-column tree: comparisons in both operand orders (all
/// six ops, so inclusive, exclusive and unbounded sides), BETWEEN, AND, OR,
/// NOT, and wide disjunctions of small ranges like a sketch's runs.
ExprPtr RangeSetPredicate(Rng* rng, size_t col, int64_t scale, int depth) {
  static const char* kNames[] = {"ci", "cd", "cm", "cs", "cn"};
  auto ref = [&] { return MakeColumnRef(col, kNames[col], ValueType::kInt); };
  auto lit = [&] { return MakeLiteral(RangeSetLiteral(rng, col, scale)); };
  if (depth > 0 && rng->Chance(0.6)) {
    switch (rng->UniformInt(0, 3)) {
      case 0:
        return MakeBinary(BinaryOp::kAnd, RangeSetPredicate(rng, col, scale, depth - 1),
                          RangeSetPredicate(rng, col, scale, depth - 1));
      case 1:
        return MakeBinary(BinaryOp::kOr, RangeSetPredicate(rng, col, scale, depth - 1),
                          RangeSetPredicate(rng, col, scale, depth - 1));
      case 2:
        return MakeUnary(UnaryOp::kNot, RangeSetPredicate(rng, col, scale, depth - 1));
      default: {
        std::vector<ExprPtr> runs;
        const int64_t k = rng->UniformInt(3, 40);
        for (int64_t i = 0; i < k; ++i) {
          runs.push_back(MakeBinary(
              BinaryOp::kAnd, MakeBinary(BinaryOp::kGe, ref(), lit()),
              MakeBinary(rng->Chance(0.5) ? BinaryOp::kLt : BinaryOp::kLe, ref(),
                         lit())));
        }
        return MakeDisjunction(std::move(runs));
      }
    }
  }
  if (rng->Chance(0.2)) return MakeBetween(ref(), lit(), lit());
  ExprPtr l = lit();
  return rng->Chance(0.5) ? MakeBinary(RandomCmp(rng), ref(), l)
                          : MakeBinary(RandomCmp(rng), l, ref());
}

TEST(RangeSetLeafTest, RandomizedSingleColumnTreesMatchEval) {
  Rng rng(77);
  const size_t n = 3 * DataChunk::kDefaultCapacity + 300;
  const Layouts layouts(RangeSetSchema(), RangeSetRows(&rng, n));
  const int64_t scales[] = {static_cast<int64_t>(n / 4), static_cast<int64_t>(n / 4),
                            60, 400, 50};
  for (int trial = 0; trial < 100; ++trial) {
    const size_t col = static_cast<size_t>(rng.UniformInt(0, 4));
    ExprPtr expr = RangeSetPredicate(&rng, col, scales[col], 3);
    PredicateKernel kernel = PredicateKernel::Compile(expr);
    // Without a NULL literal nothing needs the scalar path, and the whole
    // tree is one leaf (or folds to a constant).
    if (expr->ToString().find("NULL") == std::string::npos) {
      EXPECT_TRUE(kernel.fully_vectorized() || !kernel.vectorized())
          << expr->ToString();
      EXPECT_LE(kernel.num_leaves(), 1u) << expr->ToString();
    }
    layouts.ExpectMatchesEval(expr, "trial " + std::to_string(trial));
  }
}

TEST(RangeSetLeafTest, ZoneCoveredAndZoneMissedChunks) {
  // Three chunks whose ci / cd zones are disjoint: spans that cover the
  // first chunk's zone whole, miss the second entirely, and cut the third
  // into many small pieces (the branchless-search path), two of which end
  // exactly on the third zone's min and start exactly on its max.
  Rng rng(78);
  const Layouts layouts(RangeSetSchema(),
                        RangeSetRows(&rng, 3 * DataChunk::kDefaultCapacity));
  const int64_t chunk_span = DataChunk::kDefaultCapacity / 4;
  for (size_t col : {size_t{0}, size_t{1}}) {
    const std::vector<DataChunk::ZoneEntry> zones = layouts.Zones(col);
    ASSERT_EQ(zones.size(), 3u);
    auto bound = [&](int64_t pos) {
      return col == 0 ? Value::Int(pos) : Value::Double(pos * 0.5);
    };
    auto ref = [&] { return MakeColumnRef(col, col == 0 ? "ci" : "cd", ValueType::kInt); };
    auto span = [&](Value lo, Value hi) {
      return MakeBinary(BinaryOp::kAnd,
                        MakeBinary(BinaryOp::kGe, ref(), MakeLiteral(std::move(lo))),
                        MakeBinary(BinaryOp::kLe, ref(), MakeLiteral(std::move(hi))));
    };
    std::vector<ExprPtr> runs;
    runs.push_back(MakeBetween(ref(), MakeLiteral(bound(-10)),
                               MakeLiteral(bound(chunk_span + 10))));
    for (int64_t p = 2 * chunk_span + 20; p < 3 * chunk_span - 40; p += 37) {
      runs.push_back(MakeBinary(
          BinaryOp::kAnd, MakeBinary(BinaryOp::kGe, ref(), MakeLiteral(bound(p))),
          MakeBinary(BinaryOp::kLt, ref(), MakeLiteral(bound(p + 11)))));
    }
    runs.push_back(span(bound(-1000), zones[2].min));
    runs.push_back(span(zones[2].max, bound(100000)));
    ExprPtr expr = MakeDisjunction(std::move(runs));
    EXPECT_EQ(PredicateKernel::Compile(expr).num_range_sets(), 1u);
    layouts.ExpectMatchesEval(expr, col == 0 ? "int zones" : "double zones");
    // The complement: admits NULL, unbounded on both ends.
    ExprPtr negated = MakeUnary(UnaryOp::kNot, expr);
    EXPECT_EQ(PredicateKernel::Compile(negated).num_range_sets(), 1u);
    layouts.ExpectMatchesEval(negated,
                              col == 0 ? "int zones NOT" : "double zones NOT");
  }
  // A NULL-admitting range set over cn, all NULL (untyped) in chunk 0.
  layouts.ExpectMatchesEval(
      MakeUnary(UnaryOp::kNot,
                MakeBinary(BinaryOp::kGt, MakeColumnRef(4, "cn", ValueType::kInt),
                           MakeLiteral(Value::Int(20)))),
      "untyped NOT");
}

// ---- End-to-end: queries, capture, maintenance ------------------------------

TEST(VectorKernelTest, ExecutorVectorizedOffMatchesOn) {
  Rng rng(45);
  Database db;
  ASSERT_TRUE(db.CreateTable("t", MixedSchema()).ok());
  ASSERT_TRUE(db.BulkLoad("t", RandomRows(&rng, 6000)).ok());
  struct Case {
    const char* sql;
    bool expect_kernel_batches;  // false: fully scalar-fallback shape
  };
  const Case queries[] = {
      {"SELECT * FROM t WHERE a BETWEEN 10 AND 60", true},
      {"SELECT a, b FROM t WHERE a < 30 AND b >= 0", true},
      {"SELECT * FROM t WHERE a = 5 OR a = 9 OR a BETWEEN 90 AND 95", true},
      {"SELECT * FROM t WHERE d = 's3' AND c > 0.0", true},
      {"SELECT * FROM t WHERE a < b", false},
  };
  for (const Case& c : queries) {
    PlanPtr plan = MustBind(db, c.sql);
    Executor on(&db);
    Executor off(&db);
    off.set_vectorized(false);
    auto r_on = on.Execute(plan);
    auto r_off = off.Execute(plan);
    ASSERT_TRUE(r_on.ok() && r_off.ok()) << c.sql;
    EXPECT_TRUE(r_on.value().SameBag(r_off.value())) << c.sql;
    if (c.expect_kernel_batches) {
      EXPECT_GT(on.scan_stats().vectorized_batches, 0u) << c.sql;
    } else {
      EXPECT_GT(on.scan_stats().scalar_fallback_rows, 0u) << c.sql;
    }
    EXPECT_EQ(off.scan_stats().vectorized_batches, 0u) << c.sql;
    EXPECT_EQ(off.scan_stats().scalar_fallback_rows, 0u) << c.sql;
  }
}

TEST(VectorKernelTest, CaptureSketchIdenticalWithKernelsOnAndOff) {
  Database db;
  LoadSalesExample(&db);
  PartitionCatalog catalog;
  ASSERT_TRUE(catalog.Register(SalesPricePartition()).ok());
  PlanPtr plan =
      MustBind(db, "SELECT sid FROM sales WHERE price BETWEEN 1001 AND 1500");
  auto annotate = [&](const std::string& table, const Tuple& row,
                      BitVector* out) { catalog.AnnotateRow(table, row, out); };
  AnnotatedExecutor on(&db, annotate);
  AnnotatedExecutor off(&db, annotate);
  off.set_vectorized(false);
  auto r_on = on.Execute(plan);
  auto r_off = off.Execute(plan);
  ASSERT_TRUE(r_on.ok() && r_off.ok());
  EXPECT_EQ(r_on.value().SketchUnion(), r_off.value().SketchUnion());
  EXPECT_TRUE(r_on.value().ToRelation().SameBag(r_off.value().ToRelation()));
  EXPECT_GT(on.scan_stats().vectorized_batches, 0u);
}

TEST(VectorKernelTest, MaintenanceBitIdenticalWithKernelsOnAndOff) {
  // Two maintainers over identical databases — kernels on vs off — must
  // produce identical sketch deltas and identical sketches on every round,
  // across filters, joins (bloom pruning) and deletes.
  Database db_on, db_off;
  LoadFig5Example(&db_on);
  LoadFig5Example(&db_off);
  PartitionCatalog cat_on, cat_off;
  for (PartitionCatalog* cat : {&cat_on, &cat_off}) {
    ASSERT_TRUE(cat->Register(Fig5PartitionR()).ok());
    ASSERT_TRUE(cat->Register(Fig5PartitionS()).ok());
  }
  MaintainerOptions opt_on, opt_off;
  opt_off.vectorized_kernels = false;
  Maintainer m_on(&db_on, &cat_on, MustBind(db_on, kFig5Query), opt_on);
  Maintainer m_off(&db_off, &cat_off, MustBind(db_off, kFig5Query), opt_off);
  auto s_on = m_on.Initialize();
  auto s_off = m_off.Initialize();
  ASSERT_TRUE(s_on.ok() && s_off.ok());
  EXPECT_EQ(s_on.value().fragments, s_off.value().fragments);

  Rng rng(46);
  for (int round = 0; round < 8; ++round) {
    // Same random mutations applied to both databases.
    std::vector<Tuple> r_rows, s_rows;
    for (int i = 0; i < 5; ++i) {
      r_rows.push_back(Tuple{Value::Int(rng.UniformInt(1, 10)),
                             Value::Int(rng.UniformInt(1, 10))});
      s_rows.push_back(Tuple{Value::Int(rng.UniformInt(1, 15)),
                             Value::Int(rng.UniformInt(1, 10))});
    }
    int64_t doomed = rng.UniformInt(1, 10);
    for (Database* db : {&db_on, &db_off}) {
      ASSERT_TRUE(db->Insert("r", r_rows).ok());
      ASSERT_TRUE(db->Insert("s", s_rows).ok());
      if (round % 3 == 2) {
        ASSERT_TRUE(db->Delete("r", [&](const Tuple& row) {
                        return row[0] == Value::Int(doomed);
                      }).ok());
      }
    }
    auto d_on = m_on.MaintainFromBackend();
    auto d_off = m_off.MaintainFromBackend();
    ASSERT_TRUE(d_on.ok() && d_off.ok()) << "round " << round;
    EXPECT_EQ(d_on.value().added, d_off.value().added) << "round " << round;
    EXPECT_EQ(d_on.value().removed, d_off.value().removed)
        << "round " << round;
    EXPECT_EQ(m_on.sketch().fragments, m_off.sketch().fragments)
        << "round " << round;
  }
  // The vectorized maintainer actually used the kernels; the scalar one
  // never did.
  EXPECT_GT(m_on.stats().vectorized_batches, 0u);
  EXPECT_EQ(m_off.stats().vectorized_batches, 0u);
}

// ---- Typed-vs-boxed twin suite ----------------------------------------------
//
// The same rows stored under the typed ColumnVector layout and the legacy
// boxed layout must give bit-for-bit identical selection bitmaps for every
// predicate shape, chunk by chunk — including dictionary and flat strings,
// NULL-heavy columns, and a column that fell back to boxed storage after a
// type conflict.

// Columns: ti int, td double (integral + fractional), ds dict string
// (12 distinct), fs flat string (overflows the 256-entry dictionary),
// nh NULL-heavy int, mx mixed types (forces the boxed fallback).
Schema TypedTwinSchema() {
  Schema s;
  s.AddColumn("ti", ValueType::kInt);
  s.AddColumn("td", ValueType::kDouble);
  s.AddColumn("ds", ValueType::kString);
  s.AddColumn("fs", ValueType::kString);
  s.AddColumn("nh", ValueType::kInt);
  s.AddColumn("mx", ValueType::kInt);
  return s;
}

Value TypedTwinCell(Rng* rng, size_t col) {
  if (col != 5 && rng->Chance(col == 4 ? 0.5 : 0.1)) return Value::Null();
  switch (col) {
    case 0:
      return Value::Int(rng->UniformInt(-100, 100));
    case 1:
      return rng->Chance(0.5)
                 ? Value::Double(static_cast<double>(rng->UniformInt(-40, 40)))
                 : Value::Double(rng->UniformDouble(-40.0, 40.0));
    case 2:
      return Value::String("d" + std::to_string(rng->UniformInt(0, 11)));
    case 3:
      return Value::String("f" + std::to_string(rng->UniformInt(0, 4000)));
    case 4:
      return Value::Int(rng->UniformInt(0, 20));
    default:
      switch (rng->UniformInt(0, 2)) {
        case 0:
          return Value::Int(rng->UniformInt(0, 5));
        case 1:
          return Value::Double(rng->UniformInt(0, 5) + 0.5);
        default:
          return Value::String("m" + std::to_string(rng->UniformInt(0, 5)));
      }
  }
}

std::vector<Tuple> TypedTwinRows(Rng* rng, size_t n) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Tuple row;
    for (size_t c = 0; c < 6; ++c) row.push_back(TypedTwinCell(rng, c));
    rows.push_back(std::move(row));
  }
  return rows;
}

ExprPtr TypedTwinPredicate(Rng* rng, int depth) {
  if (depth > 0 && rng->Chance(0.55)) {
    switch (rng->UniformInt(0, 2)) {
      case 0:
        return MakeBinary(BinaryOp::kAnd, TypedTwinPredicate(rng, depth - 1),
                          TypedTwinPredicate(rng, depth - 1));
      case 1:
        return MakeBinary(BinaryOp::kOr, TypedTwinPredicate(rng, depth - 1),
                          TypedTwinPredicate(rng, depth - 1));
      default:
        return MakeUnary(UnaryOp::kNot, TypedTwinPredicate(rng, depth - 1));
    }
  }
  static const char* kNames[] = {"ti", "td", "ds", "fs", "nh", "mx"};
  static const ValueType kTypes[] = {ValueType::kInt,    ValueType::kDouble,
                                     ValueType::kString, ValueType::kString,
                                     ValueType::kInt,    ValueType::kInt};
  size_t col = static_cast<size_t>(rng->UniformInt(0, 5));
  auto ref = [&] { return MakeColumnRef(col, kNames[col], kTypes[col]); };
  // 20% of literals come from a DIFFERENT column's domain, so cross-type-
  // class comparisons (string lit on an int column, numeric lit on a string
  // column, int-vs-double promotion) are exercised on every encoding.
  auto lit = [&] {
    size_t lit_col =
        rng->Chance(0.2) ? static_cast<size_t>(rng->UniformInt(0, 5)) : col;
    if (rng->Chance(0.05)) return MakeLiteral(Value::Null());
    return MakeLiteral(TypedTwinCell(rng, lit_col));
  };
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return MakeBinary(RandomCmp(rng), ref(), lit());
    case 1:
      return MakeBinary(RandomCmp(rng), lit(), ref());
    case 2:
      return MakeBetween(ref(), lit(), lit());
    default:  // col cmp col — scalar remainder over typed gathers
      return MakeBinary(RandomCmp(rng), ref(),
                        MakeColumnRef(0, "ti", ValueType::kInt));
  }
}

TEST(TypedColumnTwinTest, SelectionBitmapsIdenticalAcrossLayouts) {
  Rng rng(47);
  DatabaseOptions boxed_opts;
  boxed_opts.typed_columns = false;
  Database db_typed;
  Database db_boxed(boxed_opts);
  for (Database* db : {&db_typed, &db_boxed}) {
    ASSERT_TRUE(db->CreateTable("t", TypedTwinSchema()).ok());
  }
  std::vector<Tuple> rows = TypedTwinRows(&rng, 9000);
  ASSERT_TRUE(db_typed.BulkLoad("t", rows).ok());
  ASSERT_TRUE(db_boxed.BulkLoad("t", rows).ok());
  // A few appends on top so the COW tail chunk is covered too.
  std::vector<Tuple> extra = TypedTwinRows(&rng, 123);
  ASSERT_TRUE(db_typed.Insert("t", extra).ok());
  ASSERT_TRUE(db_boxed.Insert("t", extra).ok());

  auto snap_typed = db_typed.GetTable("t")->Snapshot();
  auto snap_boxed = db_boxed.GetTable("t")->Snapshot();
  ASSERT_EQ(snap_typed->num_rows(), snap_boxed->num_rows());
  ASSERT_EQ(snap_typed->chunks().size(), snap_boxed->chunks().size());

  // The layouts actually diverge under the hood: typed chunks engaged, the
  // mixed column reboxed, the wide string column overflowed the dictionary.
  Database::TypedColumnStats tstats = db_typed.AggregateTypedColumnStats();
  EXPECT_GT(tstats.typed_chunks, 0u);
  EXPECT_GT(tstats.boxed_fallback_cells, 0u);
  EXPECT_EQ(db_boxed.AggregateTypedColumnStats().typed_chunks, 0u);
  const DataChunk& first = *snap_typed->chunks()[0];
  EXPECT_EQ(first.column(0).encoding(), ColumnVector::Encoding::kInt64);
  EXPECT_EQ(first.column(1).encoding(), ColumnVector::Encoding::kDouble);
  EXPECT_EQ(first.column(2).encoding(), ColumnVector::Encoding::kDictString);
  EXPECT_EQ(first.column(3).encoding(), ColumnVector::Encoding::kFlatString);
  EXPECT_TRUE(first.column(5).fell_back());

  for (int trial = 0; trial < 50; ++trial) {
    ExprPtr expr = TypedTwinPredicate(&rng, 3);
    PredicateKernel kernel = PredicateKernel::Compile(expr);
    for (size_t ci = 0; ci < snap_typed->chunks().size(); ++ci) {
      const DataChunk& ct = *snap_typed->chunks()[ci];
      const DataChunk& cb = *snap_boxed->chunks()[ci];
      ASSERT_EQ(ct.num_rows(), cb.num_rows());
      BitVector sel_typed, sel_boxed;
      kernel.Eval(RowBlock::FromChunk(ct), &sel_typed, nullptr, nullptr);
      kernel.Eval(RowBlock::FromChunk(cb), &sel_boxed, nullptr, nullptr);
      for (size_t r = 0; r < ct.num_rows(); ++r) {
        ASSERT_EQ(sel_typed.Test(r), sel_boxed.Test(r))
            << "trial " << trial << " chunk " << ci << " row " << r << " expr "
            << expr->ToString();
        ASSERT_EQ(sel_typed.Test(r), ScalarBit(expr, ct.GetRow(r)))
            << "trial " << trial << " chunk " << ci << " row " << r << " expr "
            << expr->ToString();
      }
    }
  }
}

TEST(TypedColumnTwinTest, ExecutorIdenticalAcrossLayouts) {
  Rng rng(48);
  DatabaseOptions boxed_opts;
  boxed_opts.typed_columns = false;
  Database db_typed;
  Database db_boxed(boxed_opts);
  for (Database* db : {&db_typed, &db_boxed}) {
    ASSERT_TRUE(db->CreateTable("t", TypedTwinSchema()).ok());
  }
  std::vector<Tuple> rows = TypedTwinRows(&rng, 6000);
  ASSERT_TRUE(db_typed.BulkLoad("t", rows).ok());
  ASSERT_TRUE(db_boxed.BulkLoad("t", rows).ok());
  const char* queries[] = {
      "SELECT * FROM t WHERE ti BETWEEN -20 AND 60",
      "SELECT ti, td FROM t WHERE td > 0.0 AND nh <= 10",
      "SELECT * FROM t WHERE ds = 'd3' OR ds = 'd7'",
      "SELECT * FROM t WHERE fs < 'f2000' AND ti >= 0",
      "SELECT * FROM t WHERE ti < nh",
  };
  for (const char* sql : queries) {
    Executor ex_typed(&db_typed);
    Executor ex_boxed(&db_boxed);
    auto r_typed = ex_typed.Execute(MustBind(db_typed, sql));
    auto r_boxed = ex_boxed.Execute(MustBind(db_boxed, sql));
    ASSERT_TRUE(r_typed.ok() && r_boxed.ok()) << sql;
    EXPECT_TRUE(r_typed.value().SameBag(r_boxed.value())) << sql;
  }
}

TEST(TypedColumnTwinTest, MaintenanceIdenticalAcrossLayouts) {
  // Twin maintainers over a typed and a boxed database — with the typed
  // operator kernelizations toggled to match — must produce identical
  // sketch deltas and sketches on every round. This is the end-to-end gate
  // the BENCH_PR10 smoke also enforces.
  DatabaseOptions boxed_opts;
  boxed_opts.typed_columns = false;
  Database db_typed;
  Database db_boxed(boxed_opts);
  LoadFig5Example(&db_typed);
  LoadFig5Example(&db_boxed);
  PartitionCatalog cat_typed, cat_boxed;
  for (PartitionCatalog* cat : {&cat_typed, &cat_boxed}) {
    ASSERT_TRUE(cat->Register(Fig5PartitionR()).ok());
    ASSERT_TRUE(cat->Register(Fig5PartitionS()).ok());
  }
  MaintainerOptions opt_typed, opt_boxed;
  opt_boxed.typed_columns = false;
  Maintainer m_typed(&db_typed, &cat_typed, MustBind(db_typed, kFig5Query),
                     opt_typed);
  Maintainer m_boxed(&db_boxed, &cat_boxed, MustBind(db_boxed, kFig5Query),
                     opt_boxed);
  auto s_typed = m_typed.Initialize();
  auto s_boxed = m_boxed.Initialize();
  ASSERT_TRUE(s_typed.ok() && s_boxed.ok());
  EXPECT_EQ(s_typed.value().fragments, s_boxed.value().fragments);

  Rng rng(49);
  for (int round = 0; round < 8; ++round) {
    std::vector<Tuple> r_rows, s_rows;
    for (int i = 0; i < 5; ++i) {
      r_rows.push_back(Tuple{Value::Int(rng.UniformInt(1, 10)),
                             Value::Int(rng.UniformInt(1, 10))});
      s_rows.push_back(Tuple{Value::Int(rng.UniformInt(1, 15)),
                             Value::Int(rng.UniformInt(1, 10))});
    }
    int64_t doomed = rng.UniformInt(1, 10);
    for (Database* db : {&db_typed, &db_boxed}) {
      ASSERT_TRUE(db->Insert("r", r_rows).ok());
      ASSERT_TRUE(db->Insert("s", s_rows).ok());
      if (round % 3 == 2) {
        ASSERT_TRUE(db->Delete("r", [&](const Tuple& row) {
                        return row[0] == Value::Int(doomed);
                      }).ok());
      }
    }
    auto d_typed = m_typed.MaintainFromBackend();
    auto d_boxed = m_boxed.MaintainFromBackend();
    ASSERT_TRUE(d_typed.ok() && d_boxed.ok()) << "round " << round;
    EXPECT_EQ(d_typed.value().added, d_boxed.value().added)
        << "round " << round;
    EXPECT_EQ(d_typed.value().removed, d_boxed.value().removed)
        << "round " << round;
    EXPECT_EQ(m_typed.sketch().fragments, m_boxed.sketch().fragments)
        << "round " << round;
  }
  EXPECT_GT(db_typed.AggregateTypedColumnStats().typed_chunks, 0u);
}

TEST(TypedColumnTwinTest, ColumnarAggregateBuildMatchesRowPath) {
  // The kernelized IncAggregate bypasses row materialization entirely when
  // its child is a filterless vectorized scan (TryBuildColumnar). Every
  // layout x path combination must produce identical (row, sketch) outputs
  // and group counts — across an int group key with NULLs (raw-int64 side
  // map mixed with the tuple path), a dict-string key, and no GROUP BY.
  Rng rng(71);
  DatabaseOptions boxed_opts;
  boxed_opts.typed_columns = false;
  Database db_typed;
  Database db_boxed(boxed_opts);
  for (Database* db : {&db_typed, &db_boxed}) {
    ASSERT_TRUE(db->CreateTable("t", TypedTwinSchema()).ok());
  }
  std::vector<Tuple> rows = TypedTwinRows(&rng, 6000);
  ASSERT_TRUE(db_typed.BulkLoad("t", rows).ok());
  ASSERT_TRUE(db_boxed.BulkLoad("t", rows).ok());
  std::vector<Tuple> extra = TypedTwinRows(&rng, 77);
  ASSERT_TRUE(db_typed.Insert("t", extra).ok());
  ASSERT_TRUE(db_boxed.Insert("t", extra).ok());

  // Partition on the NULL-heavy int column: NULL rows must land in fragment
  // 0 through both the raw-bounds fast path and Value-typed FragmentOf.
  PartitionCatalog catalog;
  ASSERT_TRUE(
      catalog.Register(RangePartition::EquiWidthInt("t", "nh", 4, 0, 20, 8))
          .ok());

  auto signature = [](const AnnotatedRelation& rel) {
    std::vector<std::pair<Tuple, BitVector>> out;
    out.reserve(rel.rows.size());
    for (const AnnotatedRow& ar : rel.rows) out.emplace_back(ar.row, ar.sketch);
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return TupleLess()(a.first, b.first);
    });
    return out;
  };

  static const char* kNames[] = {"ti", "td", "ds", "fs", "nh", "mx"};
  static const ValueType kTypes[] = {ValueType::kInt,    ValueType::kDouble,
                                     ValueType::kString, ValueType::kString,
                                     ValueType::kInt,    ValueType::kInt};
  MaintainStats stats;
  auto run = [&](Database* db, bool kernelized, int group_col) {
    auto scan = std::make_unique<IncScan>("t", nullptr, db, &catalog,
                                          db->GetTable("t")->schema(), &stats,
                                          /*vectorized=*/true);
    std::vector<ExprPtr> groups;
    Schema out;
    if (group_col >= 0) {
      groups.push_back(MakeColumnRef(static_cast<size_t>(group_col),
                                     kNames[group_col], kTypes[group_col]));
      out.AddColumn(kNames[group_col], kTypes[group_col]);
    }
    std::vector<AggSpec> aggs = {
        {AggFunc::kSum, MakeColumnRef(1, "td", ValueType::kDouble), "sum_td"},
        {AggFunc::kSum, MakeColumnRef(0, "ti", ValueType::kInt), "sum_ti"},
        {AggFunc::kCount, nullptr, "cnt"},
        {AggFunc::kCount, MakeColumnRef(3, "fs", ValueType::kString), "cnt_fs"},
        {AggFunc::kMin, MakeColumnRef(0, "ti", ValueType::kInt), "min_ti"},
        {AggFunc::kMax, MakeColumnRef(1, "td", ValueType::kDouble), "max_td"}};
    for (const AggSpec& a : aggs) out.AddColumn(a.name, a.OutputType());
    IncAggregate::Options aopts;
    aopts.kernelized = kernelized;
    IncAggregate agg(std::move(scan), std::move(groups), aggs, out, aopts,
                     &stats);
    Result<AnnotatedRelation> r = agg.Build(DeltaContext{});
    EXPECT_TRUE(r.ok());
    return std::make_pair(signature(r.value()), agg.NumGroups());
  };

  for (int gc : {4, 2, -1}) {
    auto base = run(&db_boxed, /*kernelized=*/false, gc);
    EXPECT_GT(base.first.size(), 0u) << "group col " << gc;
    for (bool typed : {false, true}) {
      for (bool kernelized : {false, true}) {
        if (!typed && !kernelized) continue;  // that's the baseline
        auto got = run(typed ? &db_typed : &db_boxed, kernelized, gc);
        EXPECT_EQ(base.second, got.second)
            << "group col " << gc << " typed " << typed << " kernelized "
            << kernelized;
        EXPECT_TRUE(base.first == got.first)
            << "group col " << gc << " typed " << typed << " kernelized "
            << kernelized;
      }
    }
  }
  EXPECT_GT(db_typed.AggregateTypedColumnStats().typed_chunks, 0u);
}

}  // namespace
}  // namespace imp
