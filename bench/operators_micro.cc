// Operator microbenchmarks, three parts:
//
//   1. The PR 7 vectorized-kernel smoke (always built, runs first): the
//      filter-annotate / delta-filter / bloom-probe hot paths measured
//      scalar vs batch-at-a-time, rows/sec per operator, merged into
//      BENCH_PR7.json. Correctness is HARD-GATED — the vectorized results
//      must be bit-identical to the scalar baseline and the compiled
//      kernels must actually run (vectorized_batches > 0) or the binary
//      exits non-zero. The >=2x speedup bar is recorded in the JSON and
//      enforced only with IMP_BENCH_ENFORCE_SPEEDUP=1 (shared CI runners
//      are too noisy to gate wall-clock).
//
//   2. The PR 10 typed-column smoke (always built, runs second): the same
//      hot paths measured over the typed ColumnVector chunk layout vs the
//      legacy boxed Value layout (twin databases, identical rows), plus
//      batch join-key hashing off the typed arrays, and the sketch_filter
//      rows: the kernel on SketchScanPredicate output at 1, 20 and 50
//      runs; plus the capture / load rows: a filtered aggregate's capture
//      column-wise vs on the row path, and BulkLoad vs row-at-a-time
//      appends. Bit-identicality across layouts (for sketch_filter, to
//      Expr::Eval; for the capture, SerializeState() against the row path;
//      for the load, the chunks) and typed-chunk engagement are
//      HARD-GATED; results merge into BENCH_PR10.json.
//
//   3. google-benchmark per-operator scaling checks matching the
//      complexity analysis of Sec. 5.3 — O(n) stateless operators, O(n·p)
//      aggregation, O(log l) ordered-state updates, O(1) bloom probes,
//      O(log p) fragment lookup. Compiled only when Google Benchmark is
//      available (IMP_HAVE_GOOGLE_BENCHMARK); pass --smoke_only to skip.

#ifdef IMP_HAVE_GOOGLE_BENCHMARK
#include <benchmark/benchmark.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/bloom_filter.h"
#include "common/hash.h"
#include "exec/vector_kernels.h"
#include "imp/inc_aggregate.h"
#include "imp/inc_operators.h"
#include "imp/inc_topk.h"
#include "imp/maintainer.h"
#include "sketch/partition.h"
#include "sketch/use_rewrite.h"
#include "workload/synthetic.h"

namespace imp {
namespace {

// ---- PR 7 smoke: vectorized kernels vs scalar row-at-a-time ----------------

ExprPtr ColA() { return MakeColumnRef(1, "a", ValueType::kInt); }
ExprPtr IntLit(int64_t v) { return MakeLiteral(Value::Int(v)); }

/// The IN-partition-bucket shape the sketch use-rewrite emits: an OR of
/// ranges over the partition column, selective like a real sketch's
/// fragment set (~6% of the domain here). Compile() fuses it into one
/// sorted range-set probe, so this predicate must be fully vectorized.
ExprPtr RangeSetPredicate() {
  std::vector<ExprPtr> ranges;
  ranges.push_back(MakeBetween(ColA(), IntLit(40), IntLit(60)));
  ranges.push_back(MakeBetween(ColA(), IntLit(200), IntLit(205)));
  ranges.push_back(MakeBinary(BinaryOp::kEq, ColA(), IntLit(400)));
  return MakeDisjunction(std::move(ranges));
}

bool SameAnnotatedRelation(const AnnotatedRelation& a,
                           const AnnotatedRelation& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    if (!(a.rows[i].row == b.rows[i].row)) return false;
    if (!(a.rows[i].sketch == b.rows[i].sketch)) return false;
  }
  return true;
}

bool SameAnnotatedDelta(const AnnotatedDelta& a, const AnnotatedDelta& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    if (!(a.rows[i].row == b.rows[i].row)) return false;
    if (!(a.rows[i].sketch == b.rows[i].sketch)) return false;
    if (a.rows[i].mult != b.rows[i].mult) return false;
  }
  return true;
}

int Fail(const char* what) {
  std::fprintf(stderr, "FAIL (pr7 smoke): %s\n", what);
  return 1;
}

int Fail10(const char* what) {
  std::fprintf(stderr, "FAIL (pr10 smoke): %s\n", what);
  return 1;
}

}  // namespace

/// Runs the vectorized-kernel smoke; returns non-zero on any gate failure.
int RunPr7Smoke() {
  bench::PrintFigureHeader(
      "PR7", "Vectorized columnar kernels: per-operator rows/sec vs scalar");

  // Unclustered base data on purpose: with cluster_by_a the zone maps
  // would let the vectorized path skip most chunks outright, measuring
  // pruning rather than the kernels. Unclustered, every chunk survives
  // zone filtering on both paths and the comparison isolates the
  // batch-at-a-time evaluation itself.
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = bench::ScaledRows(200000);
  spec.num_groups = 500;
  spec.cluster_by_a = false;
  Database db;
  IMP_CHECK(CreateSyntheticTable(&db, spec).ok());
  PartitionCatalog catalog;
  IMP_CHECK(catalog
                .Register(RangePartition::EquiWidthInt(
                    "t", "a", 1, 0,
                    static_cast<int64_t>(spec.num_groups) - 1, 64))
                .ok());

  ExprPtr pred = RangeSetPredicate();
  if (!PredicateKernel::Compile(pred).fully_vectorized()) {
    return Fail("range-set predicate did not compile fully vectorized");
  }

  bench::JsonReport report("pr7_vectorized_kernels", "BENCH_PR7.json");
  bench::SeriesTable table(
      "operator", {"scalar Mrows/s", "vector Mrows/s", "speedup"});

  // ---- filter-annotate (IncScan::Build capture path) -----------------------
  // The hot path of sketch capture: scan every base chunk, filter, and
  // annotate survivors with their partition fragment.
  MaintainStats stats_vec;
  MaintainStats stats_sca;
  IncScan scan_vec("t", pred, &db, &catalog, db.GetTable("t")->schema(),
                   &stats_vec, /*vectorized=*/true);
  IncScan scan_sca("t", pred, &db, &catalog, db.GetTable("t")->schema(),
                   &stats_sca, /*vectorized=*/false);

  Result<AnnotatedRelation> built_vec = scan_vec.Build(DeltaContext{});
  Result<AnnotatedRelation> built_sca = scan_sca.Build(DeltaContext{});
  IMP_CHECK(built_vec.ok() && built_sca.ok());
  if (!SameAnnotatedRelation(built_vec.value(), built_sca.value())) {
    return Fail("filter-annotate: vectorized capture not bit-identical");
  }
  if (stats_vec.vectorized_batches == 0) {
    return Fail("filter-annotate: vectorized_batches == 0 (kernels idle)");
  }
  if (stats_sca.vectorized_batches != 0) {
    return Fail("filter-annotate: scalar baseline counted kernel batches");
  }

  double t_fa_vec = bench::MedianSeconds([&] {
    Result<AnnotatedRelation> r = scan_vec.Build(DeltaContext{});
    IMP_CHECK(r.ok());
  });
  double t_fa_sca = bench::MedianSeconds([&] {
    Result<AnnotatedRelation> r = scan_sca.Build(DeltaContext{});
    IMP_CHECK(r.ok());
  });
  double rows = static_cast<double>(spec.num_rows);
  double fa_speedup = t_fa_sca / t_fa_vec;
  table.AddRow("filter_annotate",
               {rows / t_fa_sca / 1e6, rows / t_fa_vec / 1e6, fa_speedup});
  report.Add("filter_annotate", "rows_per_sec_scalar", rows / t_fa_sca);
  report.Add("filter_annotate", "rows_per_sec_vectorized", rows / t_fa_vec);
  report.Add("filter_annotate", "speedup", fa_speedup);
  report.Add("filter_annotate", "vectorized_batches",
             static_cast<double>(stats_vec.vectorized_batches));
  report.Add("filter_annotate", "scalar_fallback_rows",
             static_cast<double>(stats_vec.scalar_fallback_rows));

  // ---- delta filter (IncScan::Process push-down path) ----------------------
  // The maintenance-round hot path: refine a borrowed delta batch's
  // selection bitmap with the pushed-down predicate.
  Rng rng(11);
  uint64_t from = db.CurrentVersion();
  {
    std::vector<Tuple> fresh;
    size_t n = bench::ScaledRows(60000);
    fresh.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      fresh.push_back(SyntheticRow(
          spec, static_cast<int64_t>(1000000 + i), &rng));
    }
    IMP_CHECK(db.Insert("t", fresh).ok());
  }
  DeltaContext ctx =
      MakeDeltaContext({db.ScanDelta("t", from, db.CurrentVersion())}, catalog);
  const size_t delta_rows = ctx.FindBatch("t")->size();

  stats_vec.Reset();
  stats_sca.Reset();
  Result<DeltaBatch> out_vec = scan_vec.Process(ctx);
  Result<DeltaBatch> out_sca = scan_sca.Process(ctx);
  IMP_CHECK(out_vec.ok() && out_sca.ok());
  MaintainStats scratch;
  if (!SameAnnotatedDelta(out_vec.value().View().Materialize(&scratch),
                          out_sca.value().View().Materialize(&scratch))) {
    return Fail("delta-filter: vectorized push-down not bit-identical");
  }
  if (stats_vec.vectorized_batches == 0) {
    return Fail("delta-filter: vectorized_batches == 0 (kernels idle)");
  }

  double t_df_vec = bench::MedianSeconds([&] {
    Result<DeltaBatch> r = scan_vec.Process(ctx);
    IMP_CHECK(r.ok());
  });
  double t_df_sca = bench::MedianSeconds([&] {
    Result<DeltaBatch> r = scan_sca.Process(ctx);
    IMP_CHECK(r.ok());
  });
  double drows = static_cast<double>(delta_rows);
  double df_speedup = t_df_sca / t_df_vec;
  table.AddRow("delta_filter",
               {drows / t_df_sca / 1e6, drows / t_df_vec / 1e6, df_speedup});
  report.Add("delta_filter", "rows_per_sec_scalar", drows / t_df_sca);
  report.Add("delta_filter", "rows_per_sec_vectorized", drows / t_df_vec);
  report.Add("delta_filter", "speedup", df_speedup);

  // ---- bloom probe (IncJoin delta pruning) ---------------------------------
  {
    BloomFilter bf(100000);
    for (uint64_t i = 0; i < 100000; ++i) bf.AddHash(HashInt64(i));
    size_t n = bench::ScaledRows(1000000);
    std::vector<uint64_t> hashes(n);
    for (size_t i = 0; i < n; ++i) {
      // Half the probes hit inserted keys, half miss.
      hashes[i] = HashInt64(static_cast<int64_t>(i % 200000));
    }
    BitVector batched;
    bf.MayContainHashes(hashes.data(), n, &batched);
    for (size_t i = 0; i < n; ++i) {
      if (batched.Test(i) != bf.MayContainHash(hashes[i])) {
        return Fail("bloom: batched probe not bit-identical to single probe");
      }
    }
    double t_single = bench::MedianSeconds([&] {
      size_t hits = 0;
      for (size_t i = 0; i < n; ++i) hits += bf.MayContainHash(hashes[i]);
      // The count keeps the loop from being optimized away.
      if (hits == 0) std::fprintf(stderr, "unexpected: zero bloom hits\n");
    });
    double t_batch = bench::MedianSeconds([&] {
      BitVector out;
      bf.MayContainHashes(hashes.data(), n, &out);
      if (out.Count() == 0) std::fprintf(stderr, "unexpected: empty probe\n");
    });
    double dn = static_cast<double>(n);
    table.AddRow("bloom_probe", {dn / t_single / 1e6, dn / t_batch / 1e6,
                                 t_single / t_batch});
    report.Add("bloom_probe", "probes_per_sec_single", dn / t_single);
    report.Add("bloom_probe", "probes_per_sec_batched", dn / t_batch);
    report.Add("bloom_probe", "speedup", t_single / t_batch);
  }

  table.Print();
  report.Add("gates", "bit_identical", 1.0);
  report.Add("gates", "vectorized_batches_nonzero", 1.0);
  report.Write();
  const char* json_env = std::getenv("IMP_BENCH_JSON");
  std::printf("pr7 smoke: bit-identical, kernels engaged; report -> %s\n",
              json_env != nullptr ? json_env : "BENCH_PR7.json");

  // Wall-clock bar (acceptance: >=2x on the filter-annotate kernel),
  // enforced only on perf-controlled hardware.
  if (std::getenv("IMP_BENCH_ENFORCE_SPEEDUP") != nullptr &&
      fa_speedup < 2.0) {
    std::fprintf(stderr, "FAIL: filter_annotate speedup %.2fx < 2.0x\n",
                 fa_speedup);
    return 1;
  }
  return 0;
}

/// Kernel throughput on the use-rewrite's own output: SketchScanPredicate
/// for sketches of 1, 20 and 50 runs (the first and last fragment kept in
/// the multi-run ones) over 128 fragments of `a`, evaluated chunk by chunk
/// on the typed and the boxed table. Every selection bitmap is HARD-GATED
/// bit-identical to row-at-a-time Expr::Eval; no timing is gated.
int AddSketchFilterRows(const Database& db_typed, const Database& db_boxed,
                        int64_t max_a, bench::SeriesTable* table,
                        bench::JsonReport* report) {
  PartitionCatalog catalog;
  IMP_CHECK(catalog
                .Register(RangePartition::EquiWidthInt("t", "a", 1, 0, max_a,
                                                       128))
                .ok());
  std::vector<std::pair<size_t, std::vector<size_t>>> sketches = {
      {1, {40, 41, 42, 43, 44, 45}}, {20, {}}, {50, {}}};
  for (size_t f = 0; f < 19 * 6; f += 6) sketches[1].second.push_back(f);
  for (size_t f = 0; f < 49 * 2; f += 2) sketches[2].second.push_back(f);
  sketches[1].second.push_back(127);
  sketches[2].second.push_back(127);

  auto snap_typed = db_typed.GetTable("t")->Snapshot();
  auto snap_boxed = db_boxed.GetTable("t")->Snapshot();
  const double rows = static_cast<double>(snap_typed->num_rows());
  for (const auto& [runs, frags] : sketches) {
    ProvenanceSketch sketch;
    sketch.fragments = BitVector(catalog.total_fragments());
    for (size_t f : frags) sketch.fragments.Set(f);
    ExprPtr pred = SketchScanPredicate(catalog, "t", sketch);
    PredicateKernel kernel = PredicateKernel::Compile(pred);
    if (!kernel.fully_vectorized() || kernel.num_range_sets() != 1) {
      return Fail10("sketch_filter: predicate is not one range-set leaf");
    }
    for (const auto* snap : {snap_typed.get(), snap_boxed.get()}) {
      for (const auto& chunk : snap->chunks()) {
        BitVector sel;
        kernel.Eval(RowBlock::FromChunk(*chunk), &sel, nullptr, nullptr);
        for (size_t r = 0; r < chunk->num_rows(); ++r) {
          if (sel.Test(r) != pred->Eval(chunk->GetRow(r)).IsTrue()) {
            return Fail10("sketch_filter: kernel differs from Expr::Eval");
          }
        }
      }
    }
    auto filter_all = [&](const TableSnapshot& snap) {
      size_t kept = 0;
      for (const auto& chunk : snap.chunks()) {
        BitVector sel;
        kernel.Eval(RowBlock::FromChunk(*chunk), &sel, nullptr, nullptr);
        kept += sel.Count();
      }
      IMP_CHECK(kept <= snap.num_rows());
    };
    const double t_typed = bench::MedianSeconds([&] { filter_all(*snap_typed); });
    const double t_boxed = bench::MedianSeconds([&] { filter_all(*snap_boxed); });
    const std::string row = "sketch_filter_runs_" + std::to_string(runs);
    table->AddRow(row, {rows / t_boxed / 1e6, rows / t_typed / 1e6,
                        t_boxed / t_typed});
    report->Add("sketch_filter", "mrows_per_sec_typed_runs_" + std::to_string(runs),
                rows / t_typed / 1e6);
    report->Add("sketch_filter", "mrows_per_sec_boxed_runs_" + std::to_string(runs),
                rows / t_boxed / 1e6);
  }
  return 0;
}

/// Capture and load rows: a filtered aggregate's capture (Maintainer::
/// Initialize of Aggregate(Select(Scan)), the shape of perfbench's
/// filter_max template) built column-wise vs on the row path
/// (typed_columns = false), and Database::BulkLoad (one run append per
/// chunk) vs row-at-a-time Table::AppendRow. HARD-GATED: the columnar
/// capture engages and its SerializeState() equals the row path's byte for
/// byte on both table layouts, and the bulk-loaded chunks equal the
/// row-at-a-time ones (boundaries, encodings, footprint, zone maps, cells).
/// No timing is gated.
int AddCaptureRows(const Database& db_typed, const Database& db_boxed,
                   const PartitionCatalog& catalog, bench::JsonReport* report) {
  bench::SeriesTable table("capture / load",
                           {"row path Mrows/s", "columnar Mrows/s", "speedup"});
  const Schema schema = db_typed.GetTable("t")->schema();
  auto col = [&](size_t c) {
    return MakeColumnRef(c, schema.column(c).name, schema.column(c).type);
  };
  // SELECT a, max(e), sum(b), count(*) FROM t WHERE d < 375 GROUP BY a
  PlanPtr plan = MakeAggregate(
      MakeSelect(MakeScan("t", schema),
                 MakeBinary(BinaryOp::kLt, col(4),
                            MakeLiteral(Value::Int(375)))),
      {col(1)}, {"a"},
      {{AggFunc::kMax, col(5), "m"},
       {AggFunc::kSum, col(2), "s"},
       {AggFunc::kCount, nullptr, "n"}});
  auto capture = [&](const Database& db, bool columnar, std::string* state) {
    MaintainerOptions opts;
    opts.typed_columns = columnar;
    Maintainer m(&db, &catalog, plan, opts);
    IMP_CHECK(m.Initialize().ok());
    if (state != nullptr) *state = m.SerializeState();
    return m.stats().columnar_builds;
  };
  for (const Database* db : {&db_typed, &db_boxed}) {
    std::string columnar_state, row_state;
    if (capture(*db, true, &columnar_state) != 1) {
      return Fail10("capture: columnar build did not engage");
    }
    capture(*db, false, &row_state);
    if (columnar_state != row_state) {
      return Fail10("capture: columnar state differs from the row path");
    }
  }
  const double rows =
      static_cast<double>(db_typed.GetTable("t")->Snapshot()->num_rows());
  const double t_columnar =
      bench::MedianSeconds([&] { capture(db_typed, true, nullptr); });
  const double t_row =
      bench::MedianSeconds([&] { capture(db_typed, false, nullptr); });
  table.AddRow("filtered_agg_capture",
               {rows / t_row / 1e6, rows / t_columnar / 1e6, t_row / t_columnar});
  report->Add("capture", "rows_per_sec_row_path", rows / t_row);
  report->Add("capture", "rows_per_sec_columnar", rows / t_columnar);
  report->Add("capture", "speedup", t_row / t_columnar);

  // Load: the table's rows again, into fresh tables both ways.
  std::vector<Tuple> load_rows;
  db_typed.GetTable("t")->Snapshot()->ForEachRow(
      [&](const Tuple& row) { load_rows.push_back(row); });
  auto bulk = [&] {
    auto db = std::make_unique<Database>();
    IMP_CHECK(db->CreateTable("t", schema).ok());
    IMP_CHECK(db->BulkLoad("t", load_rows).ok());
    return db;
  };
  auto row_at_a_time = [&] {
    auto t = std::make_unique<Table>("t", schema);
    for (const Tuple& row : load_rows) t->AppendRow(row);
    t->PublishSnapshot();
    return t;
  };
  {
    auto db = bulk();
    auto t = row_at_a_time();
    const auto& a = db->GetTable("t")->Snapshot()->chunks();
    const auto& b = t->Snapshot()->chunks();
    if (a.size() != b.size()) return Fail10("bulk load: chunk count differs");
    for (size_t c = 0; c < a.size(); ++c) {
      if (a[c]->num_rows() != b[c]->num_rows() ||
          a[c]->MemoryBytes() != b[c]->MemoryBytes()) {
        return Fail10("bulk load: chunk boundary or footprint differs");
      }
      for (size_t k = 0; k < schema.size(); ++k) {
        const DataChunk::ZoneEntry za = a[c]->zone(k), zb = b[c]->zone(k);
        if (a[c]->column(k).encoding() != b[c]->column(k).encoding() ||
            za.valid != zb.valid || za.nan != zb.nan ||
            (za.valid && !(za.min == zb.min && za.max == zb.max))) {
          return Fail10("bulk load: encoding or zone map differs");
        }
      }
      for (size_t r = 0; r < a[c]->num_rows(); ++r) {
        if (!(a[c]->GetRow(r) == b[c]->GetRow(r))) {
          return Fail10("bulk load: cell differs");
        }
      }
    }
  }
  const double lrows = static_cast<double>(load_rows.size());
  const double t_bulk = bench::MedianSeconds([&] { bulk(); });
  const double t_rows = bench::MedianSeconds([&] { row_at_a_time(); });
  table.AddRow("bulk_load",
               {lrows / t_rows / 1e6, lrows / t_bulk / 1e6, t_rows / t_bulk});
  report->Add("bulk_load", "rows_per_sec_row_at_a_time", lrows / t_rows);
  report->Add("bulk_load", "rows_per_sec_bulk", lrows / t_bulk);
  report->Add("bulk_load", "speedup", t_rows / t_bulk);
  table.Print();
  return 0;
}

/// The PR 10 typed-column smoke: the same operators measured over the typed
/// ColumnVector chunk layout vs the legacy boxed layout (twin databases,
/// identical rows, vectorized kernels on in BOTH — the comparison isolates
/// the storage layout). Bit-identicality of every operator's output across
/// layouts is HARD-GATED, as is the typed layout actually engaging
/// (typed_chunks > 0); results merge into BENCH_PR10.json. The >=2x bar on
/// filter-annotate or aggregation is enforced under IMP_BENCH_ENFORCE_SPEEDUP.
int RunPr10Smoke() {
  bench::PrintFigureHeader(
      "PR10", "Typed columnar chunk layout: per-operator rows/sec vs boxed");

  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = bench::ScaledRows(200000);
  spec.num_groups = 500;
  spec.cluster_by_a = false;  // see RunPr7Smoke: isolate evaluation, not pruning
  DatabaseOptions boxed_opts;
  boxed_opts.typed_columns = false;
  Database db_typed;
  Database db_boxed(boxed_opts);
  IMP_CHECK(CreateSyntheticTable(&db_typed, spec).ok());
  IMP_CHECK(CreateSyntheticTable(&db_boxed, spec).ok());
  PartitionCatalog catalog;
  IMP_CHECK(catalog
                .Register(RangePartition::EquiWidthInt(
                    "t", "a", 1, 0,
                    static_cast<int64_t>(spec.num_groups) - 1, 64))
                .ok());

  Database::TypedColumnStats tstats = db_typed.AggregateTypedColumnStats();
  if (tstats.typed_chunks == 0) {
    return Fail10("typed database published no typed chunks");
  }
  if (db_boxed.AggregateTypedColumnStats().typed_chunks != 0) {
    return Fail10("boxed database published typed chunks");
  }

  bench::JsonReport report("pr10_typed_columns", "BENCH_PR10.json");
  bench::SeriesTable table(
      "operator", {"boxed Mrows/s", "typed Mrows/s", "speedup"});
  double rows = static_cast<double>(spec.num_rows);

  // ---- filter-annotate (IncScan::Build capture path) -----------------------
  // Identical to the PR 7 hot path, but boxed-vs-typed instead of
  // scalar-vs-vectorized: leaf predicate evaluation runs over raw int64
  // arrays on the typed side and over Value vectors on the boxed side.
  ExprPtr pred = RangeSetPredicate();
  MaintainStats st_typed, st_boxed;
  IncScan scan_typed("t", pred, &db_typed, &catalog,
                     db_typed.GetTable("t")->schema(), &st_typed,
                     /*vectorized=*/true);
  IncScan scan_boxed("t", pred, &db_boxed, &catalog,
                     db_boxed.GetTable("t")->schema(), &st_boxed,
                     /*vectorized=*/true);
  Result<AnnotatedRelation> fa_typed = scan_typed.Build(DeltaContext{});
  Result<AnnotatedRelation> fa_boxed = scan_boxed.Build(DeltaContext{});
  IMP_CHECK(fa_typed.ok() && fa_boxed.ok());
  if (!SameAnnotatedRelation(fa_typed.value(), fa_boxed.value())) {
    return Fail10("filter-annotate: typed layout not bit-identical to boxed");
  }
  if (st_typed.vectorized_batches == 0) {
    return Fail10("filter-annotate: vectorized_batches == 0 on typed layout");
  }
  double t_fa_typed = bench::MedianSeconds([&] {
    Result<AnnotatedRelation> r = scan_typed.Build(DeltaContext{});
    IMP_CHECK(r.ok());
  });
  double t_fa_boxed = bench::MedianSeconds([&] {
    Result<AnnotatedRelation> r = scan_boxed.Build(DeltaContext{});
    IMP_CHECK(r.ok());
  });
  double fa_speedup = t_fa_boxed / t_fa_typed;
  table.AddRow("filter_annotate",
               {rows / t_fa_boxed / 1e6, rows / t_fa_typed / 1e6, fa_speedup});
  report.Add("filter_annotate", "rows_per_sec_boxed", rows / t_fa_boxed);
  report.Add("filter_annotate", "rows_per_sec_typed", rows / t_fa_typed);
  report.Add("filter_annotate", "speedup", fa_speedup);

  // ---- aggregate build (scan + group-by over the full table) ---------------
  // SUM/COUNT group-by sourced from a full unfiltered scan: the typed side
  // gathers rows column-at-a-time from unboxed arrays and pre-resolves its
  // group-key / argument column refs (Options::kernelized).
  auto build_agg = [&](Database* db, bool kernelized,
                       MaintainStats* stats) -> Result<AnnotatedRelation> {
    auto scan = std::make_unique<IncScan>("t", nullptr, db, &catalog,
                                          db->GetTable("t")->schema(), stats,
                                          /*vectorized=*/true);
    std::vector<ExprPtr> groups = {MakeColumnRef(1, "a", ValueType::kInt)};
    std::vector<AggSpec> aggs = {
        {AggFunc::kSum, MakeColumnRef(2, "b", ValueType::kInt), "s"},
        {AggFunc::kCount, nullptr, "n"}};
    Schema out;
    out.AddColumn("a", ValueType::kInt);
    out.AddColumn("s", ValueType::kInt);
    out.AddColumn("n", ValueType::kInt);
    IncAggregate::Options aopts;
    aopts.kernelized = kernelized;
    IncAggregate agg(std::move(scan), groups, aggs, out, aopts, stats);
    return agg.Build(DeltaContext{});
  };
  Result<AnnotatedRelation> ag_typed =
      build_agg(&db_typed, /*kernelized=*/true, &st_typed);
  Result<AnnotatedRelation> ag_boxed =
      build_agg(&db_boxed, /*kernelized=*/false, &st_boxed);
  IMP_CHECK(ag_typed.ok() && ag_boxed.ok());
  auto sorted_rows = [](const AnnotatedRelation& rel) {
    std::vector<std::pair<Tuple, BitVector>> out;
    out.reserve(rel.rows.size());
    for (const AnnotatedRow& ar : rel.rows) out.emplace_back(ar.row, ar.sketch);
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) {
                return TupleLess()(a.first, b.first);
              });
    return out;
  };
  if (sorted_rows(ag_typed.value()) != sorted_rows(ag_boxed.value())) {
    return Fail10("aggregate: typed layout not bit-identical to boxed");
  }
  double t_ag_typed = bench::MedianSeconds([&] {
    Result<AnnotatedRelation> r =
        build_agg(&db_typed, /*kernelized=*/true, &st_typed);
    IMP_CHECK(r.ok());
  });
  double t_ag_boxed = bench::MedianSeconds([&] {
    Result<AnnotatedRelation> r =
        build_agg(&db_boxed, /*kernelized=*/false, &st_boxed);
    IMP_CHECK(r.ok());
  });
  double ag_speedup = t_ag_boxed / t_ag_typed;
  table.AddRow("aggregate_build",
               {rows / t_ag_boxed / 1e6, rows / t_ag_typed / 1e6, ag_speedup});
  report.Add("aggregate", "rows_per_sec_boxed", rows / t_ag_boxed);
  report.Add("aggregate", "rows_per_sec_typed", rows / t_ag_typed);
  report.Add("aggregate", "speedup", ag_speedup);

  // ---- join-key hashing over chunk columns ---------------------------------
  // Batch key hashing straight off the typed arrays (NULL-aware, dictionary
  // strings hashed once per distinct) vs reboxing every cell and calling
  // Value::Hash — over a mixed int/double/string key table.
  {
    Schema kschema;
    kschema.AddColumn("kid", ValueType::kInt);
    kschema.AddColumn("kv", ValueType::kDouble);
    kschema.AddColumn("kt", ValueType::kString);
    for (Database* db : {&db_typed, &db_boxed}) {
      IMP_CHECK(db->CreateTable("k", kschema).ok());
    }
    Rng rng(9);
    size_t n = bench::ScaledRows(200000);
    std::vector<Tuple> krows;
    krows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      krows.push_back(Tuple{
          Value::Int(static_cast<int64_t>(i)),
          rng.Chance(0.1) ? Value::Null()
                          : Value::Double(rng.UniformDouble(-1e6, 1e6)),
          Value::String("k" + std::to_string(rng.UniformInt(0, 49)))});
    }
    for (Database* db : {&db_typed, &db_boxed}) {
      IMP_CHECK(db->BulkLoad("k", krows).ok());
    }
    constexpr uint64_t kKeySeed = 0x2545f4914f6cdd1dULL;  // IncJoin's seed
    auto typed_hashes = [&](std::vector<uint64_t>* out) {
      out->clear();
      auto snap = db_typed.GetTable("k")->Snapshot();
      for (const auto& chunk : snap->chunks()) {
        std::vector<uint64_t> h(chunk->num_rows(), kKeySeed);
        for (size_t c = 0; c < 3; ++c) {
          chunk->column(c).AppendKeyHashes(chunk->num_rows(), &h);
        }
        out->insert(out->end(), h.begin(), h.end());
      }
    };
    auto boxed_hashes = [&](std::vector<uint64_t>* out) {
      out->clear();
      auto snap = db_boxed.GetTable("k")->Snapshot();
      for (const auto& chunk : snap->chunks()) {
        std::vector<uint64_t> h(chunk->num_rows(), kKeySeed);
        for (size_t c = 0; c < 3; ++c) {
          for (size_t r = 0; r < chunk->num_rows(); ++r) {
            h[r] = HashCombine(h[r], chunk->At(r, c).Hash());
          }
        }
        out->insert(out->end(), h.begin(), h.end());
      }
    };
    std::vector<uint64_t> h_typed, h_boxed;
    typed_hashes(&h_typed);
    boxed_hashes(&h_boxed);
    if (h_typed != h_boxed) {
      return Fail10("join-key hash: typed batch hashes != boxed Value::Hash");
    }
    double t_jk_typed = bench::MedianSeconds([&] { typed_hashes(&h_typed); });
    double t_jk_boxed = bench::MedianSeconds([&] { boxed_hashes(&h_boxed); });
    double dn = static_cast<double>(n);
    double jk_speedup = t_jk_boxed / t_jk_typed;
    table.AddRow("join_key_hash", {dn / t_jk_boxed / 1e6, dn / t_jk_typed / 1e6,
                                   jk_speedup});
    report.Add("join_key_hash", "rows_per_sec_boxed", dn / t_jk_boxed);
    report.Add("join_key_hash", "rows_per_sec_typed", dn / t_jk_typed);
    report.Add("join_key_hash", "speedup", jk_speedup);
  }

  if (int rc = AddSketchFilterRows(db_typed, db_boxed,
                                   static_cast<int64_t>(spec.num_groups) - 1,
                                   &table, &report)) {
    return rc;
  }
  if (int rc = AddCaptureRows(db_typed, db_boxed, catalog, &report)) {
    return rc;
  }

  table.Print();
  report.Add("gates", "bit_identical", 1.0);
  report.Add("gates", "typed_chunks",
             static_cast<double>(tstats.typed_chunks));
  report.Add("gates", "boxed_fallback_cells",
             static_cast<double>(tstats.boxed_fallback_cells));
  report.Write();
  const char* json_env = std::getenv("IMP_BENCH_JSON");
  std::printf(
      "pr10 smoke: bit-identical across layouts, %llu typed chunks; "
      "report -> %s\n",
      static_cast<unsigned long long>(tstats.typed_chunks),
      json_env != nullptr ? json_env : "BENCH_PR10.json");

  // Acceptance bar: >=2x on filter-annotate OR aggregation, enforced only
  // on perf-controlled hardware.
  if (std::getenv("IMP_BENCH_ENFORCE_SPEEDUP") != nullptr &&
      fa_speedup < 2.0 && ag_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: neither filter_annotate (%.2fx) nor aggregate "
                 "(%.2fx) reached 2.0x\n",
                 fa_speedup, ag_speedup);
    return 1;
  }
  return 0;
}

}  // namespace imp

#ifdef IMP_HAVE_GOOGLE_BENCHMARK

namespace imp {
namespace {

// ---- Fragment lookup: O(log p) ----------------------------------------------

void BM_FragmentOf(benchmark::State& state) {
  size_t frags = static_cast<size_t>(state.range(0));
  RangePartition part = RangePartition::EquiWidthInt(
      "t", "a", 0, 0, static_cast<int64_t>(frags) * 100, frags);
  Rng rng(1);
  int64_t domain = static_cast<int64_t>(frags) * 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        part.FragmentOf(Value::Int(rng.UniformInt(0, domain))));
  }
}
BENCHMARK(BM_FragmentOf)->Arg(10)->Arg(100)->Arg(1000)->Arg(100000);

// ---- Merge operator: O(n * |sketch|) ------------------------------------------

void BM_MergeProcess(benchmark::State& state) {
  size_t frags = static_cast<size_t>(state.range(0));
  IncMerge merge(frags);
  Rng rng(2);
  AnnotatedDelta delta;
  for (int i = 0; i < 64; ++i) {
    BitVector sk(frags);
    sk.Set(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(frags) - 1)));
    delta.Append(Tuple{Value::Int(i)}, std::move(sk), 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(merge.Process(delta));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_MergeProcess)->Arg(16)->Arg(256)->Arg(4096);

// ---- Bloom filter -------------------------------------------------------------

void BM_BloomProbe(benchmark::State& state) {
  BloomFilter bf(100000);
  for (uint64_t i = 0; i < 100000; ++i) bf.AddHash(HashInt64(i));
  uint64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bf.MayContainHash(HashInt64(probe++)));
  }
}
BENCHMARK(BM_BloomProbe);

void BM_BloomProbeBatched(benchmark::State& state) {
  BloomFilter bf(100000);
  for (uint64_t i = 0; i < 100000; ++i) bf.AddHash(HashInt64(i));
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> hashes(n);
  for (size_t i = 0; i < n; ++i) {
    hashes[i] = HashInt64(static_cast<int64_t>(i % 200000));
  }
  for (auto _ : state) {
    BitVector out;
    bf.MayContainHashes(hashes.data(), n, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BloomProbeBatched)->Arg(1024)->Arg(65536);

// ---- Predicate kernel vs scalar Expr::Eval over base chunks -------------------

void BM_PredicateKernelChunk(benchmark::State& state) {
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = 4096;
  spec.num_groups = 500;
  spec.cluster_by_a = false;
  Database db;
  IMP_CHECK(CreateSyntheticTable(&db, spec).ok());
  auto snap = db.GetTable("t")->Snapshot();
  PredicateKernel kernel = PredicateKernel::Compile(RangeSetPredicate());
  for (auto _ : state) {
    for (const auto& chunk : snap->chunks()) {
      BitVector sel;
      kernel.Eval(RowBlock::FromChunk(*chunk), &sel, nullptr, nullptr);
      benchmark::DoNotOptimize(sel);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(spec.num_rows));
}
BENCHMARK(BM_PredicateKernelChunk);

void BM_PredicateScalarChunk(benchmark::State& state) {
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = 4096;
  spec.num_groups = 500;
  spec.cluster_by_a = false;
  Database db;
  IMP_CHECK(CreateSyntheticTable(&db, spec).ok());
  auto snap = db.GetTable("t")->Snapshot();
  ExprPtr pred = RangeSetPredicate();
  for (auto _ : state) {
    for (const auto& chunk : snap->chunks()) {
      BitVector sel(chunk->num_rows());
      for (size_t r = 0; r < chunk->num_rows(); ++r) {
        if (pred->Eval(chunk->GetRow(r)).IsTrue()) sel.Set(r);
      }
      benchmark::DoNotOptimize(sel);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(spec.num_rows));
}
BENCHMARK(BM_PredicateScalarChunk);

// ---- Incremental aggregation: O(n) per delta row --------------------------------

class AggBench {
 public:
  AggBench(size_t num_rows, size_t num_groups) {
    spec_.name = "t";
    spec_.num_rows = num_rows;
    spec_.num_groups = num_groups;
    IMP_CHECK(CreateSyntheticTable(&db_, spec_).ok());
    IMP_CHECK(catalog_
                  .Register(RangePartition::EquiWidthInt(
                      "t", "a", 1, 0, static_cast<int64_t>(num_groups) - 1,
                      64))
                  .ok());
    auto scan = std::make_unique<IncScan>("t", nullptr, &db_, &catalog_,
                                          db_.GetTable("t")->schema(), &stats_);
    std::vector<ExprPtr> groups = {MakeColumnRef(1, "a", ValueType::kInt)};
    std::vector<AggSpec> aggs = {
        {AggFunc::kSum, MakeColumnRef(2, "b", ValueType::kInt), "s"},
        {AggFunc::kCount, nullptr, "n"}};
    Schema out;
    out.AddColumn("a", ValueType::kInt);
    out.AddColumn("s", ValueType::kInt);
    out.AddColumn("n", ValueType::kInt);
    agg_ = std::make_unique<IncAggregate>(std::move(scan), groups, aggs, out,
                                          IncAggregate::Options{}, &stats_);
    IMP_CHECK(agg_->Build(DeltaContext{}).ok());
  }

  DeltaContext MakeDelta(size_t n) {
    Rng rng(3);
    uint64_t from = db_.CurrentVersion();
    std::vector<Tuple> rows;
    for (size_t i = 0; i < n; ++i) {
      rows.push_back(SyntheticRow(spec_, next_id_++, &rng));
    }
    IMP_CHECK(db_.Insert("t", rows).ok());
    return MakeDeltaContext({db_.ScanDelta("t", from, db_.CurrentVersion())},
                            catalog_);
  }

  Database db_;
  PartitionCatalog catalog_;
  SyntheticSpec spec_;
  MaintainStats stats_;
  std::unique_ptr<IncAggregate> agg_;
  int64_t next_id_ = 1000000;
};

void BM_IncAggregateProcess(benchmark::State& state) {
  AggBench bench(20000, 1000);
  size_t delta_rows = static_cast<size_t>(state.range(0));
  DeltaContext ctx = bench.MakeDelta(delta_rows);
  for (auto _ : state) {
    auto out = bench.agg_->Process(ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(delta_rows));
}
BENCHMARK(BM_IncAggregateProcess)->Arg(10)->Arg(100)->Arg(1000);

// ---- Incremental top-k ----------------------------------------------------------

void BM_IncTopKProcess(benchmark::State& state) {
  Database db;
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = 20000;
  spec.num_groups = 5000;
  IMP_CHECK(CreateSyntheticTable(&db, spec).ok());
  PartitionCatalog catalog;
  IMP_CHECK(
      catalog.Register(RangePartition::EquiWidthInt("t", "a", 1, 0, 4999, 64))
          .ok());
  MaintainStats stats;
  auto scan = std::make_unique<IncScan>("t", nullptr, &db, &catalog,
                                        db.GetTable("t")->schema(), &stats);
  IncTopK::Options opts;
  opts.buffer = static_cast<size_t>(state.range(0));
  IncTopK topk(std::move(scan), {SortSpec{2, true}}, 10, opts, &stats);
  IMP_CHECK(topk.Build(DeltaContext{}).ok());

  Rng rng(4);
  uint64_t from = db.CurrentVersion();
  std::vector<Tuple> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(SyntheticRow(spec, 500000 + i, &rng));
  }
  IMP_CHECK(db.Insert("t", rows).ok());
  DeltaContext ctx =
      MakeDeltaContext({db.ScanDelta("t", from, db.CurrentVersion())}, catalog);
  for (auto _ : state) {
    auto out = topk.Process(ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_IncTopKProcess)->Arg(0)->Arg(100)->Arg(1000);

// ---- Borrowed vs materialized DeltaBatch consumption ------------------------------
//
// The zero-copy pipeline claim at operator granularity: aggregating N
// sketches' worth of work over one shared annotated delta through borrowed
// views vs through per-consumer materialized copies. The per-iteration
// counters (deltas_borrowed / deltas_materialized / rows_copied) land in
// the google-benchmark report (--benchmark_format=json), which makes the
// claim machine-checkable from the bench output.

void BM_DeltaBatchBorrowedAggregate(benchmark::State& state) {
  AggBench bench(20000, 1000);
  DeltaContext ctx = bench.MakeDelta(static_cast<size_t>(state.range(0)));
  bench.stats_.Reset();
  for (auto _ : state) {
    auto out = bench.agg_->Process(ctx);  // scan serves a borrowed view
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  double iters = static_cast<double>(state.iterations());
  state.counters["deltas_borrowed"] =
      static_cast<double>(bench.stats_.deltas_borrowed) / iters;
  state.counters["deltas_materialized"] =
      static_cast<double>(bench.stats_.deltas_materialized) / iters;
  state.counters["rows_copied"] =
      static_cast<double>(bench.stats_.rows_copied) / iters;
}
BENCHMARK(BM_DeltaBatchBorrowedAggregate)->Arg(100)->Arg(1000);

void BM_DeltaBatchMaterializeCopy(benchmark::State& state) {
  // The copy the borrowed pipeline removes: deep-copying the shared
  // annotated delta once per consumer (the pre-refactor IncScan behavior).
  AggBench bench(20000, 1000);
  DeltaContext ctx = bench.MakeDelta(static_cast<size_t>(state.range(0)));
  const DeltaBatch* batch = ctx.FindBatch("t");
  IMP_CHECK(batch != nullptr);
  bench.stats_.Reset();
  for (auto _ : state) {
    AnnotatedDelta copy = batch->View().Materialize(&bench.stats_);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  double iters = static_cast<double>(state.iterations());
  state.counters["deltas_materialized"] =
      static_cast<double>(bench.stats_.deltas_materialized) / iters;
  state.counters["rows_copied"] =
      static_cast<double>(bench.stats_.rows_copied) / iters;
}
BENCHMARK(BM_DeltaBatchMaterializeCopy)->Arg(100)->Arg(1000);

// ---- BitVector union (join annotation merging) -----------------------------------

void BM_BitVectorUnion(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  BitVector a(bits), b(bits);
  for (size_t i = 0; i < bits; i += 7) a.Set(i);
  for (size_t i = 3; i < bits; i += 11) b.Set(i);
  for (auto _ : state) {
    BitVector c = a;
    c.UnionWith(b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_BitVectorUnion)->Arg(64)->Arg(1024)->Arg(65536);

}  // namespace
}  // namespace imp

#endif  // IMP_HAVE_GOOGLE_BENCHMARK

int main(int argc, char** argv) {
  int rc = imp::RunPr7Smoke();
  if (rc != 0) return rc;
  rc = imp::RunPr10Smoke();
  if (rc != 0) return rc;

  bool smoke_only = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke_only") == 0) {
      smoke_only = true;
    } else {
      argv[out++] = argv[i];  // strip our flag before benchmark::Initialize
    }
  }
  argc = out;
  (void)smoke_only;

#ifdef IMP_HAVE_GOOGLE_BENCHMARK
  if (!smoke_only) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
#endif
  return 0;
}
