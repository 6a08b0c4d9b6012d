// Seeded inputs of the IMP benchmark: base tables, query templates with
// their constants, and the update statement stream.
//
// Everything here is derived from the run's seed alone, before the system
// under test exists; the system only ever receives the generated rows, SQL
// text and bound statements.
//
// Tables (all columns INT):
//   edb1(id, a, b, c, d, e)  clustered on the group column a; b and c are
//                            drawn around a per-group mean, d is uniform in
//                            [0, 1000), e is uniform below a per-group cap.
//                            A few "hot" groups per column have kHotFactor
//                            times the mean or cap (see PickHotGroups).
//   t(id, a, k, tb)          join side, clustered on a, join key k; hot
//                            groups hold kHotFactor times the rows.
//   h(hk, w)                 one row for ~80% of the keys, so the join's
//                            bloom filter has keys to prune.
//
// Both edb1 and t carry 100 equi-width fragments on a.

#ifndef IMP_PERFBENCH_WORKLOAD_H_
#define IMP_PERFBENCH_WORKLOAD_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "sql/binder.h"
#include "storage/database.h"

namespace impbench {

using imp::BoundUpdate;
using imp::Rng;
using imp::Tuple;
using imp::Value;

/// The four sketched query templates, in a fixed order.
enum Template : size_t { kAggHaving = 0, kTopK, kFilterMax, kJoin, kNumTemplates };
constexpr const char* kTemplateNames[kNumTemplates] = {"agg_having", "topk",
                                                       "filter_max", "join"};
/// Number of distinct threshold constants per HAVING-sum template. All of
/// them are at least the captured constant, so the reuse check accepts the
/// one captured sketch for every variant.
constexpr size_t kVariants = 8;
constexpr size_t kFragments = 100;
/// Hot fragments of the HAVING templates (20% kept) and the top-k limit
/// (10% kept).
constexpr size_t kHotFragments = 20;
constexpr size_t kTopKLimit = 10;
/// A hot group's values (or, in t, its row count) relative to a cold one.
constexpr double kHotFactor = 4.0;
constexpr double kJoinKeyCover = 0.8;

struct TableSizes {
  size_t edb1_rows = 0;
  size_t groups = 0;
  size_t t_rows = 0;
  size_t keys = 0;
};

struct Dataset {
  TableSizes sizes;
  std::vector<Tuple> edb1;
  std::vector<Tuple> t;
  std::vector<Tuple> h;
  // Per-group generator parameters (also used for inserted rows).
  std::vector<double> mean_b;
  std::vector<double> mean_c;
  std::vector<int64_t> cap_e;
  /// Group of a t row = a uniform pick from this list; hot groups appear
  /// kHotFactor times.
  std::vector<int64_t> t_groups;
  // Template constants.
  std::vector<int64_t> having_thresholds;  ///< [0] is the captured one
  int64_t max_threshold = 0;
  std::vector<int64_t> join_thresholds;    ///< [0] is the captured one
};

inline imp::Schema IntSchema(std::initializer_list<const char*> names) {
  imp::Schema schema;
  for (const char* name : names) schema.AddColumn(name, imp::ValueType::kInt);
  return schema;
}

inline imp::Status CreateTables(imp::Database* db) {
  imp::Status st = db->CreateTable("edb1", IntSchema({"id", "a", "b", "c", "d", "e"}));
  if (st.ok()) st = db->CreateTable("t", IntSchema({"id", "a", "k", "tb"}));
  if (st.ok()) st = db->CreateTable("h", IntSchema({"hk", "w"}));
  return st;
}

inline Tuple Edb1Row(const Dataset& d, int64_t id, Rng* rng) {
  int64_t g = rng->UniformInt(0, static_cast<int64_t>(d.sizes.groups) - 1);
  auto around = [&](double mean) {
    return static_cast<int64_t>(std::llround(mean * rng->UniformDouble(0.5, 1.5)));
  };
  Tuple row;
  row.reserve(6);
  row.push_back(Value::Int(id));
  row.push_back(Value::Int(g));
  row.push_back(Value::Int(around(d.mean_b[g])));
  row.push_back(Value::Int(around(d.mean_c[g])));
  row.push_back(Value::Int(rng->UniformInt(0, 999)));
  row.push_back(Value::Int(rng->UniformInt(0, d.cap_e[g])));
  return row;
}

inline Tuple TRow(const Dataset& d, int64_t id, Rng* rng) {
  Tuple row;
  row.reserve(4);
  row.push_back(Value::Int(id));
  row.push_back(Value::Int(
      d.t_groups[static_cast<size_t>(rng->UniformInt(0, d.t_groups.size() - 1))]));
  row.push_back(Value::Int(rng->UniformInt(0, static_cast<int64_t>(d.sizes.keys) - 1)));
  row.push_back(Value::Int(rng->UniformInt(0, 999)));
  return row;
}

/// Hot groups: one group in each of `n` distinct fragments, chosen by the
/// seed. Each sketched template selects exactly its hot groups, so every
/// seed keeps the same share of fragments (n of kFragments) and only their
/// positions move.
inline std::vector<bool> PickHotGroups(size_t groups, size_t n, Rng* rng) {
  std::vector<size_t> fragments(kFragments);
  for (size_t f = 0; f < kFragments; ++f) fragments[f] = f;
  std::vector<bool> hot(groups, false);
  for (size_t i = 0; i < n; ++i) {
    size_t j = i + static_cast<size_t>(rng->UniformInt(0, kFragments - 1 - i));
    std::swap(fragments[i], fragments[j]);
    // The lower bound of fragment f under RangePartition::EquiWidthInt.
    hot[(groups - 1) * fragments[i] / kFragments] = true;
  }
  return hot;
}

/// HAVING thresholds: [0] lies halfway between the largest cold and the
/// smallest hot group (the captured sketch keeps every hot fragment);
/// later variants sit just below ever larger hot groups, so each query
/// keeps a subset of the captured groups and the reuse check accepts it.
inline std::vector<int64_t> HotThresholds(const std::vector<int64_t>& values,
                                          const std::vector<bool>& hot, size_t n) {
  int64_t cold_max = 0;
  std::vector<int64_t> hot_values;
  for (size_t g = 0; g < values.size(); ++g) {
    if (hot[g]) hot_values.push_back(values[g]);
    else cold_max = std::max(cold_max, values[g]);
  }
  std::sort(hot_values.begin(), hot_values.end());
  std::vector<int64_t> out = {(cold_max + hot_values.front()) / 2};
  for (size_t v = 1; v < n; ++v) {
    out.push_back(hot_values[v * hot_values.size() / (n + 1)] - 1);
  }
  return out;
}

inline Dataset MakeDataset(const TableSizes& sizes, uint64_t seed) {
  Dataset d;
  d.sizes = sizes;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const size_t groups = sizes.groups;
  const std::vector<bool> hot_b = PickHotGroups(groups, kHotFragments, &rng);
  const std::vector<bool> hot_c = PickHotGroups(groups, kTopKLimit, &rng);
  const std::vector<bool> hot_e = PickHotGroups(groups, kHotFragments, &rng);
  const std::vector<bool> hot_t = PickHotGroups(groups, kHotFragments, &rng);
  auto level = [&](bool hot) {
    return hot ? kHotFactor * rng.UniformDouble(1.0, 1.5) : rng.UniformDouble(0.9, 1.1);
  };
  for (size_t g = 0; g < groups; ++g) {
    d.mean_b.push_back(100.0 * level(hot_b[g]));
    d.mean_c.push_back(100.0 * level(hot_c[g]));
    d.cap_e.push_back(static_cast<int64_t>(1000.0 * level(hot_e[g])));
  }
  for (size_t g = 0; g < groups; ++g) {
    for (size_t w = 0; w < (hot_t[g] ? static_cast<size_t>(kHotFactor) : 1); ++w) {
      d.t_groups.push_back(static_cast<int64_t>(g));
    }
  }
  auto by_group = [](const Tuple& x, const Tuple& y) {
    return x[1].AsInt() < y[1].AsInt();
  };

  d.edb1.reserve(sizes.edb1_rows);
  for (size_t i = 0; i < sizes.edb1_rows; ++i) {
    d.edb1.push_back(Edb1Row(d, static_cast<int64_t>(i), &rng));
  }
  std::stable_sort(d.edb1.begin(), d.edb1.end(), by_group);

  std::vector<int64_t> w_of_key(sizes.keys, -1);
  for (size_t k = 0; k < sizes.keys; ++k) {
    if (!rng.Chance(kJoinKeyCover)) continue;
    w_of_key[k] = rng.UniformInt(0, 1000);
    d.h.push_back(Tuple{Value::Int(static_cast<int64_t>(k)), Value::Int(w_of_key[k])});
  }
  d.t.reserve(sizes.t_rows);
  for (size_t i = 0; i < sizes.t_rows; ++i) {
    d.t.push_back(TRow(d, static_cast<int64_t>(i), &rng));
  }
  std::stable_sort(d.t.begin(), d.t.end(), by_group);

  // Template constants from the generated data.
  std::vector<int64_t> sum_b(groups, 0), max_e(groups, 0), sum_w(groups, 0);
  for (const Tuple& row : d.edb1) {
    size_t g = static_cast<size_t>(row[1].AsInt());
    sum_b[g] += row[2].AsInt();
    if (row[4].AsInt() < 500) max_e[g] = std::max(max_e[g], row[5].AsInt());
  }
  for (const Tuple& row : d.t) {
    int64_t w = w_of_key[static_cast<size_t>(row[2].AsInt())];
    if (w >= 0) sum_w[static_cast<size_t>(row[1].AsInt())] += w;
  }
  d.having_thresholds = HotThresholds(sum_b, hot_b, kVariants);
  d.max_threshold = HotThresholds(max_e, hot_e, 1)[0];
  d.join_thresholds = HotThresholds(sum_w, hot_t, kVariants);
  return d;
}

/// SQL of template `tpl` with constant variant `variant` (0 = captured).
inline std::string TemplateSql(const Dataset& d, size_t tpl, size_t variant) {
  switch (tpl) {
    case kAggHaving:
      return "SELECT a, sum(b) AS s FROM edb1 GROUP BY a HAVING sum(b) > " +
             std::to_string(d.having_thresholds[variant]);
    case kTopK:
      return "SELECT a, sum(c) AS s FROM edb1 GROUP BY a ORDER BY s DESC LIMIT " +
             std::to_string(kTopKLimit);
    case kFilterMax:
      return "SELECT a, max(e) AS m FROM edb1 WHERE d < 500 GROUP BY a "
             "HAVING max(e) > " + std::to_string(d.max_threshold);
    default:
      return "SELECT a, sum(w) AS s FROM t JOIN h ON (k = hk) GROUP BY a "
             "HAVING sum(w) > " + std::to_string(d.join_thresholds[variant]);
  }
}

/// Query mix of a reader: templates rotate, threshold constants vary.
class QueryPicker {
 public:
  explicit QueryPicker(uint64_t seed) : rng_(seed) {}
  /// The next query's SQL; `*tpl` receives its template.
  std::string Next(const Dataset& d, size_t* tpl) {
    *tpl = next_++ % kNumTemplates;
    size_t variant = static_cast<size_t>(rng_.UniformInt(0, kVariants - 1));
    return TemplateSql(d, *tpl, variant);
  }

 private:
  Rng rng_;
  size_t next_ = 0;
};

struct Statement {
  BoundUpdate update;
  size_t rows = 0;  ///< rows inserted or deleted
};

struct StreamSpec {
  size_t count = 0;  ///< a multiple of `cycle`
  int64_t rows_min = 1;
  int64_t rows_max = 16;
  /// The stream is made of cycles of `cycle` statements. A cycle's last two
  /// statements delete, by id range, the rows the cycle inserted into edb1
  /// and into t. After every cycle both tables hold exactly their loaded,
  /// clustered rows again, so every part of a run sees the same tables and
  /// the same query answers. Deleting the oldest rows instead would replace
  /// the clustered load with unclustered appends and make query latency
  /// drift through the run.
  size_t cycle = 50;
};

/// The update stream: INSERTs alternating between edb1 and t, plus the
/// two id-range DELETEs that close each cycle. Deletes are bound against an empty copy of
/// the schema, so generation never touches the system under test.
inline std::vector<Statement> MakeStatements(const Dataset& d, const StreamSpec& spec,
                                             uint64_t seed) {
  imp::Database schema_only;
  (void)CreateTables(&schema_only);
  imp::Binder binder(&schema_only);
  Rng rng(seed * 0xD1B54A32D192ED03ULL + 7);
  const char* tables[2] = {"edb1", "t"};
  int64_t next_id[2] = {static_cast<int64_t>(d.sizes.edb1_rows),
                        static_cast<int64_t>(d.sizes.t_rows)};
  size_t inserted_since_delete[2] = {0, 0};
  size_t inserts = 0;
  std::vector<Statement> out;
  out.reserve(spec.count);
  for (size_t i = 0; i < spec.count; ++i) {
    Statement st;
    const size_t pos = i % spec.cycle;
    if (pos + 2 >= spec.cycle) {
      size_t which = pos + 2 == spec.cycle ? 0 : 1;
      int64_t hi = next_id[which];
      int64_t lo = hi - static_cast<int64_t>(inserted_since_delete[which]);
      inserted_since_delete[which] = 0;
      std::string sql = std::string("DELETE FROM ") + tables[which] +
                        " WHERE id >= " + std::to_string(lo) + " AND id < " +
                        std::to_string(hi);
      imp::Result<imp::BoundStatement> bound = binder.BindSql(sql);
      IMP_CHECK_MSG(bound.ok(), bound.status().ToString().c_str());
      st.update = std::move(bound).value().update;
      st.rows = static_cast<size_t>(hi - lo);
    } else {
      size_t which = inserts++ % 2;
      int64_t n = rng.UniformInt(spec.rows_min, spec.rows_max);
      st.update.kind = BoundUpdate::Kind::kInsert;
      st.update.table = tables[which];
      for (int64_t r = 0; r < n; ++r) {
        int64_t id = next_id[which]++;
        st.update.rows.push_back(which == 0 ? Edb1Row(d, id, &rng) : TRow(d, id, &rng));
      }
      inserted_since_delete[which] += static_cast<size_t>(n);
      st.rows = static_cast<size_t>(n);
    }
    out.push_back(std::move(st));
  }
  return out;
}

}  // namespace impbench

#endif  // IMP_PERFBENCH_WORKLOAD_H_
