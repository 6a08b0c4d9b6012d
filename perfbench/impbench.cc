// impbench — the IMP benchmark program: one seeded workload, end-to-end
// metrics from an untraced run, per-layer metrics from a traced run.
//
//   impbench --workload write_churn|mixed_async --seed N
//            --seconds S --trace 0|1 [--smoke] [--corrupt]
//            [--trace-out FILE]
//
// Every workload drives the public ImpSystem API from this one process and
// runs a FIXED number of operations (derived from --seconds once, before
// anything runs), so a table grows the same way in every run. Warm-up
// operations are not timed. After the last operation the run drains
// ingestion, calls MaintainAll and runs the correctness gate: every
// template's sketch answer must equal the plain scan, and every maintained
// sketch must cover a fresh capture (Theorem 6.1). Any failed or wrong
// operation lowers ok_op_share and makes the run exit non-zero. The
// measured operations form kBlocks consecutive blocks of equal work; the
// write-path timings are the median of their per-block values.
//
// --trace 1 runs the workload twice on the same inputs, each time with the
// operation counts of half of --seconds: untraced, then traced. The traced pass wraps each public call the benchmark makes in a
// span. Work that happens inside another layer's public call (execution
// inside ImpSystem::QueryPlan; storage and incremental maintenance inside
// ImpSystem::UpdateBound or the ingestion worker) is REPLAYED right after
// the outer call returns, through the inner layers' public calls on the
// same pinned inputs and in the order the middleware makes them, under the
// same request id. Queries replay against the live system's pinned
// snapshot; writes replay against a shadow Database with its own
// maintainers that receives exactly the same statements. The outer span's
// self time is its duration minus those replays. The difference between the
// two passes' client-visible time is the tracing overhead.
//
// The last stdout line is the result JSON; lines before it starting with
// "# " are diagnostics (every metric with its unit and sample count).

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/vector_kernels.h"
#include "expr/expr.h"
#include "imp/delta.h"
#include "middleware/imp_system.h"
#include "sketch/reuse.h"
#include "sketch/use_rewrite.h"
#include "trace.h"
#include "workload.h"

namespace impbench {
namespace {

using imp::AnnotatedDelta;
using imp::Database;
using imp::ImpConfig;
using imp::ImpSystem;
using imp::ImpSystemStats;
using imp::Maintainer;
using imp::MaintainStats;
using imp::PlanPtr;
using imp::ReadView;
using imp::Relation;
using imp::Result;
using imp::SketchEntry;
using imp::SketchManager;
using imp::Status;

constexpr const char* kMaintainSpans[kNumTemplates] = {
    "imp.maintain.agg_having", "imp.maintain.topk", "imp.maintain.filter_max",
    "imp.maintain.join"};

// ---------------------------------------------------------------------------
// Workload shapes. Rates are per second of --seconds; the resulting counts
// are fixed for a given --seconds, never adjusted while running.

/// Every run is split into kBlocks consecutive blocks of equal work. The
/// end-to-end timings fresh_p50_ms and write_rows_per_s are computed per
/// block and the median over the blocks is reported, so a host slowdown
/// that lasts a few seconds moves a minority of blocks, not the result.
constexpr size_t kBlocks = 5;

struct WorkloadConfig {
  std::string name;
  TableSizes sizes;
  bool async = false;
  size_t setups = 9;          ///< setup repetitions; setup_s is their median
  StreamSpec stream;          ///< one warm-up cycle, then kBlocks blocks
  size_t block_cycles = 0;    ///< statement cycles per block
  size_t readers = 0;         ///< mixed_async closed-loop readers
  double statement_rate = 0;  ///< mixed_async open-loop statements/s
  size_t burst = 8;           ///< mixed_async statements per burst

  size_t WarmStatements() const { return stream.cycle; }
  size_t BlockStatements() const { return block_cycles * stream.cycle; }
};

/// Async apply batch and eager batch of mixed_async; bursts are a multiple
/// of it, so every burst ends with a maintenance round and WaitForIngest
/// returns only once every sketch covers the burst.
constexpr size_t kAsyncBatch = 8;

/// A plain baseline (and, where the data cannot change in between, an
/// answer comparison) accompanies every 5th sketch query. 5 is coprime to
/// the 4 rotating templates, so the baselines cover all of them.
constexpr size_t kPlainEvery = 5;

/// write_churn runs one sketch query after every kQueryEvery statements,
/// at the same offsets in every cycle.
constexpr size_t kQueryEvery = 40;

bool MakeConfig(const std::string& name, int seconds, bool smoke,
                WorkloadConfig* cfg) {
  const size_t s = static_cast<size_t>(seconds);
  auto cycles = [&](size_t per_second) {
    return std::max<size_t>(1, per_second * s / kBlocks);
  };
  const TableSizes tiny{4000, 100, 2000, 500};
  cfg->name = name;
  if (name == "write_churn") {
    // 400-statement cycles: one statement in 200 is a delete. A delete
    // rebuilds the whole table, so more frequent deletes would make the
    // storage rebuild, not per-statement maintenance, dominate the writer.
    cfg->sizes = smoke ? tiny : TableSizes{50000, 500, 10000, 5000};
    cfg->stream = StreamSpec{0, 1, 16, smoke ? size_t{40} : size_t{400}};
    cfg->block_cycles = smoke ? 2 : cycles(5);
  } else if (name == "mixed_async") {
    cfg->sizes = smoke ? tiny : TableSizes{100000, 500, 20000, 10000};
    cfg->async = true;
    cfg->readers = 2;
    cfg->statement_rate = smoke ? 400 : 800;
    // Bursts of 40 (5 apply and eager batches) every 50 ms. Each burst pays
    // two thread hand-offs (writer -> ingestion worker -> writer), whose
    // latency on a shared VM varies with the host's load; with bursts of 8
    // they were about 40% of a burst and fresh_p50_ms followed them.
    // The smoke size keeps bursts of 8, so its 40-statement cycles still
    // hold insert-only bursts.
    cfg->burst = smoke ? kAsyncBatch : 5 * kAsyncBatch;
    // 4-row statements; a cycle ends with a burst that holds its two
    // deletes.
    cfg->stream = StreamSpec{0, 4, 4, smoke ? size_t{40} : size_t{400}};
    cfg->block_cycles = smoke ? 1 : cycles(2);
  } else {
    return false;
  }
  cfg->stream.count = cfg->WarmStatements() + kBlocks * cfg->BlockStatements();
  if (smoke) cfg->setups = 2;
  return true;
}

// ---------------------------------------------------------------------------
// Fixed reference kernel (hash build + probe + sort over seed-independent
// keys). Timed at the start and end of every run, so host-speed episodes
// show next to the measured numbers.

double CalibrationMs() {
  constexpr size_t kKeys = size_t{1} << 18;
  constexpr size_t kSlots = size_t{1} << 19;
  auto start = Clock::now();
  std::vector<uint64_t> keys(kKeys);
  uint64_t x = 88172645463325252ULL;
  for (uint64_t& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x | 1;
  }
  std::vector<uint64_t> slots(kSlots, 0);
  auto slot_of = [](uint64_t k) {
    return static_cast<size_t>((k * 0x9E3779B97F4A7C15ULL) >> (64 - 19));
  };
  for (uint64_t k : keys) {
    size_t i = slot_of(k);
    while (slots[i] != 0) i = (i + 1) & (kSlots - 1);
    slots[i] = k;
  }
  uint64_t hits = 0;
  for (int round = 0; round < 4; ++round) {
    for (uint64_t k : keys) {
      uint64_t probe = k + static_cast<uint64_t>(round & 1) * 2;
      size_t i = slot_of(probe);
      while (slots[i] != 0 && slots[i] != probe) i = (i + 1) & (kSlots - 1);
      hits += slots[i] == probe;
    }
  }
  std::sort(keys.begin(), keys.end());
  volatile uint64_t sink = hits + keys[kKeys / 2];
  (void)sink;
  return SecondsBetween(start, Clock::now()) * 1e3;
}

double CalibrationMedianMs(int reps) {
  Samples s;
  for (int i = 0; i < reps; ++i) s.Add(CalibrationMs());
  return s.Percentile(50);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// The system under test and the traced run's shadow.

struct Bench {
  Database db;
  std::unique_ptr<ImpSystem> sys;    ///< IMP: incremental, eager maintenance
  std::unique_ptr<ImpSystem> plain;  ///< kNoSketch on the same Database
};

void LoadTables(Database* db, const Dataset& d) {
  IMP_CHECK(CreateTables(db).ok());
  IMP_CHECK(db->BulkLoad("edb1", d.edb1).ok());
  IMP_CHECK(db->BulkLoad("t", d.t).ok());
  IMP_CHECK(db->BulkLoad("h", d.h).ok());
}

/// The sketched partitions: kFragments equi-width fragments on edb1.a and
/// t.a.
std::vector<imp::RangePartition> Partitions(const Dataset& d) {
  const int64_t max_group = static_cast<int64_t>(d.sizes.groups) - 1;
  std::vector<imp::RangePartition> out;
  for (const char* table : {"edb1", "t"}) {
    out.push_back(imp::RangePartition::EquiWidthInt(table, "a", 1, 0, max_group, kFragments));
  }
  return out;
}

std::unique_ptr<Bench> Setup(const WorkloadConfig& cfg, const Dataset& d,
                             double* seconds) {
  auto b = std::make_unique<Bench>();
  auto start = Clock::now();
  LoadTables(&b->db, d);
  ImpConfig config;
  config.mode = imp::ExecutionMode::kIncremental;
  config.strategy = imp::MaintenanceStrategy::kEager;
  config.eager_batch_size = cfg.async ? kAsyncBatch : 1;
  config.async_ingestion = cfg.async;
  config.ingest_queue_capacity = 256;
  config.ingest_apply_batch = kAsyncBatch;
  b->sys = std::make_unique<ImpSystem>(&b->db, config);
  for (imp::RangePartition& p : Partitions(d)) {
    IMP_CHECK(b->sys->RegisterPartition(std::move(p)).ok());
  }
  ImpConfig plain_config;
  plain_config.mode = imp::ExecutionMode::kNoSketch;
  b->plain = std::make_unique<ImpSystem>(&b->db, plain_config);
  for (size_t tpl = 0; tpl < kNumTemplates; ++tpl) {
    Result<Relation> r = b->sys->Query(TemplateSql(d, tpl, 0));
    IMP_CHECK_MSG(r.ok(), r.status().ToString().c_str());
  }
  *seconds = SecondsBetween(start, Clock::now());
  if (b->sys->sketches().size() != kNumTemplates) {
    std::fprintf(stderr, "setup captured %zu sketches, expected %zu\n",
                 b->sys->sketches().size(), static_cast<size_t>(kNumTemplates));
    std::exit(2);
  }
  return b;
}

/// A second Database plus one Maintainer per template that receives every
/// statement the live system receives. Write-path replays run against it:
/// the live system's storage and maintainer state cannot be re-run without
/// changing it.
struct Shadow {
  Database db;
  imp::PartitionCatalog catalog;
  std::vector<std::unique_ptr<Maintainer>> maintainers;  ///< template order
  uint64_t cut = 0;  ///< version every shadow maintainer is valid at
};

std::unique_ptr<Shadow> MakeShadow(const Dataset& d, const ImpConfig& config) {
  auto sh = std::make_unique<Shadow>();
  LoadTables(&sh->db, d);
  for (imp::RangePartition& p : Partitions(d)) {
    IMP_CHECK(sh->catalog.Register(std::move(p)).ok());
  }
  imp::Binder binder(&sh->db);
  for (size_t tpl = 0; tpl < kNumTemplates; ++tpl) {
    Result<PlanPtr> plan = binder.BindQuery(TemplateSql(d, tpl, 0));
    IMP_CHECK(plan.ok());
    auto m = std::make_unique<Maintainer>(&sh->db, &sh->catalog, plan.value(),
                                          config.maintainer);
    IMP_CHECK(m->Initialize().ok());
    sh->maintainers.push_back(std::move(m));
  }
  sh->cut = sh->db.StableVersion();
  return sh;
}

// ---------------------------------------------------------------------------
// Per-client recording.

/// What one client measured in one block.
struct Block {
  Samples query_ms;  ///< sketch-path ImpSystem::Query latency
  Samples plain_ms;  ///< kNoSketch ImpSystem::Query latency
  Samples fresh_ms;  ///< update -> every sketch covers it
  Samples delete_ms;  ///< write calls that hold a DELETE (diagnostic)
  Samples insert_ms;  ///< write calls that hold only INSERTs (diagnostic)
  size_t sketch_queries = 0;
  double sketch_busy_s = 0;  ///< time inside sketch-path query calls
  /// Rows of, and time inside, write calls that hold only INSERTs (incl.
  /// the drain). Calls with a DELETE are kept apart: a delete rebuilds the
  /// whole table, which would swamp the per-statement maintenance cost.
  size_t insert_rows = 0;
  double insert_busy_s = 0;
  Samples insert_rate;  ///< rows ÷ seconds of each insert-only write call
  double delete_busy_s = 0;  ///< time inside write calls holding a DELETE

  double WriteBusySeconds() const { return insert_busy_s + delete_busy_s; }
  /// Records one write call (a sync statement or an async burst).
  void AddWrite(double seconds, size_t rows, bool has_delete) {
    if (has_delete) {
      delete_ms.Add(seconds * 1e3);
      delete_busy_s += seconds;
    } else {
      insert_ms.Add(seconds * 1e3);
      insert_rows += rows;
      insert_busy_s += seconds;
      if (seconds > 0) insert_rate.Add(static_cast<double>(rows) / seconds);
    }
  }
  void Absorb(const Block& o) {
    query_ms.Append(o.query_ms);
    plain_ms.Append(o.plain_ms);
    fresh_ms.Append(o.fresh_ms);
    delete_ms.Append(o.delete_ms);
    insert_ms.Append(o.insert_ms);
    sketch_queries += o.sketch_queries;
    sketch_busy_s += o.sketch_busy_s;
    insert_rows += o.insert_rows;
    insert_busy_s += o.insert_busy_s;
    insert_rate.Append(o.insert_rate);
    delete_busy_s += o.delete_busy_s;
  }
};

struct Recorder {
  explicit Recorder(bool traced) : tracer(traced) {}

  Block& Current() { return blocks[block]; }

  Tracer tracer;
  std::vector<Block> blocks = std::vector<Block>(kBlocks);
  size_t block = 0;  ///< block the next operation belongs to
  Samples template_ms[kNumTemplates];  ///< sketch query latency per template
  /// Plain ÷ sketch latency of back-to-back runs of one SQL text, per
  /// template. Both runs see nearly the same host speed, so the ratio
  /// varies far less between runs than either latency.
  Samples speedup[kNumTemplates];
  double last_sketch_ms = 0;
  double last_plain_ms = 0;
  Samples lateness_ms;  ///< open-loop generator lateness per burst
  size_t write_calls = 0;  ///< statements (sync) or bursts (async)
  size_t statements = 0;
  size_t attempted = 0;
  size_t failed = 0;
  // Replay-side accounting (traced pass only).
  size_t sketch_execs = 0;
  size_t rows_scanned = 0;
  size_t chunks_scanned = 0;
  size_t chunks_skipped = 0;
  size_t kept_fragments = 0;
  size_t candidate_fragments = 0;
  std::string first_failure;

  /// Records the pair of the last sketch and the last plain query, which
  /// ran `tpl`'s SQL text back to back.
  void AddPair(size_t tpl) { speedup[tpl].Add(last_plain_ms / last_sketch_ms); }
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (first_failure.empty()) first_failure = what;
  }
  /// All blocks pooled.
  Block Pooled() const {
    Block all;
    for (const Block& b : blocks) all.Absorb(b);
    return all;
  }
  void Absorb(const Recorder& o) {
    for (size_t i = 0; i < kBlocks; ++i) blocks[i].Absorb(o.blocks[i]);
    for (size_t i = 0; i < kNumTemplates; ++i) {
      template_ms[i].Append(o.template_ms[i]);
      speedup[i].Append(o.speedup[i]);
    }
    lateness_ms.Append(o.lateness_ms);
    write_calls += o.write_calls;
    statements += o.statements;
    attempted += o.attempted;
    failed += o.failed;
    sketch_execs += o.sketch_execs;
    rows_scanned += o.rows_scanned;
    chunks_scanned += o.chunks_scanned;
    chunks_skipped += o.chunks_skipped;
    kept_fragments += o.kept_fragments;
    candidate_fragments += o.candidate_fragments;
    if (first_failure.empty()) first_failure = o.first_failure;
  }
};

struct Ctx {
  const WorkloadConfig* cfg = nullptr;
  const Dataset* data = nullptr;
  Bench* bench = nullptr;
  Shadow* shadow = nullptr;  ///< traced pass only
  std::unique_ptr<imp::Binder> binder;
  std::atomic<uint64_t> next_request{0};
  std::atomic<size_t> block{0};  ///< mixed_async: the writer's current block

  uint64_t NextRequest() { return next_request.fetch_add(1); }
};

// ---------------------------------------------------------------------------
// Replays (traced pass). Each span names the middleware span it stands for
// as its parent.

/// The reuse check: the entry whose sketch answers `plan`, or null. With a
/// tracer the check itself is a span; `filter_tables` (if given) receives
/// the entry's filter tables, copied under the shard lock.
SketchEntry* FindEntry(ImpSystem& sys, const PlanPtr& plan, Tracer* tr, uint64_t req,
                       uint32_t parent, std::set<std::string>* filter_tables) {
  SketchManager::Shard* shard =
      sys.sketches().FindShard(SketchManager::ShardKeyFor(*plan));
  if (shard == nullptr) return nullptr;
  std::shared_lock<std::shared_mutex> lock(shard->mu);
  std::vector<SketchEntry*> candidates =
      SketchManager::CandidatesLocked(*shard, plan->TemplateKey());
  Scope s(tr, "sketch.reuse_check", req, parent);
  for (SketchEntry* candidate : candidates) {
    if (!imp::CanReuseSketch(candidate->plan, plan)) continue;
    s.Stop();
    if (filter_tables != nullptr) *filter_tables = candidate->filter_tables;
    return candidate;
  }
  return nullptr;
}

/// Whether `plan`'s sketch is stale right now, i.e. whether QueryPlan is
/// about to take AnswerWithEntry's slow path (lazy repair of the entry
/// under its shard lock) rather than the lock-free fast path. A publish or
/// maintenance round landing between this probe and the query's own read
/// view can make the guess wrong; that window is microseconds long.
bool StaleNow(Ctx& ctx, const PlanPtr& plan) {
  SketchEntry* entry = FindEntry(*ctx.bench->sys, plan, nullptr, 0, 0, nullptr);
  if (entry == nullptr) return false;
  ReadView view = ctx.bench->db.OpenReadView();
  std::shared_ptr<const imp::SketchSnapshot> snapshot = entry->Snapshot();
  for (const std::string& table : entry->tables) {
    if (view.TableVersion(table) > snapshot->valid_version()) return true;
  }
  return false;
}

/// AnswerWithEntry's fast path: reuse check, read view, pinned-snapshot
/// rewrite, execution. A query that took the slow path is replayed the
/// same way, on the snapshot its repair published; the repair round itself
/// stays in the middleware span's self time.
void ReplaySketchQuery(Ctx& ctx, Recorder& rec, uint64_t req, uint32_t parent,
                       const PlanPtr& plan) {
  Tracer* tr = &rec.tracer;
  ImpSystem& sys = *ctx.bench->sys;
  std::set<std::string> filter_tables;
  SketchEntry* entry = FindEntry(sys, plan, tr, req, parent, &filter_tables);
  if (entry == nullptr) return;
  std::optional<ReadView> view;
  {
    Scope s(tr, "storage.open_read_view", req, parent);
    view.emplace(ctx.bench->db.OpenReadView());
  }
  std::shared_ptr<const imp::SketchSnapshot> snapshot = entry->Snapshot();
  PlanPtr rewritten;
  {
    Scope s(tr, "sketch.rewrite", req, parent);
    rewritten = imp::ApplyUseRewrite(plan, sys.catalog(), *snapshot, &filter_tables);
  }
  imp::Executor exec(&ctx.bench->db, &*view);
  {
    Scope s(tr, "exec.sketch_exec", req, parent);
    Result<Relation> r = exec.Execute(rewritten);
    s.Stop();
    rec.Check(r.ok(), "replayed sketch execution failed");
  }
  const imp::ScanStats& scan = exec.scan_stats();
  ++rec.sketch_execs;
  rec.rows_scanned += scan.rows_scanned;
  rec.chunks_scanned += scan.chunks_scanned;
  rec.chunks_skipped += scan.chunks_skipped;
  rec.kept_fragments += snapshot->sketch.NumFragments();
  for (const std::string& table : filter_tables) {
    rec.candidate_fragments += sys.catalog().Find(table)->num_fragments();
  }
}

/// ExecutePlain: read view, execution of the original plan.
void ReplayPlainQuery(Ctx& ctx, Recorder& rec, uint64_t req, uint32_t parent,
                      const PlanPtr& plan) {
  Tracer* tr = &rec.tracer;
  std::optional<ReadView> view;
  {
    Scope s(tr, "storage.open_read_view", req, parent);
    view.emplace(ctx.bench->db.OpenReadView());
  }
  imp::Executor exec(&ctx.bench->db, &*view);
  Scope s(tr, "exec.plain_exec", req, parent);
  Result<Relation> r = exec.Execute(plan);
  s.Stop();
  rec.Check(r.ok(), "replayed plain execution failed");
}

/// MaintenanceBatch::ContextFor over the round's annotated deltas.
imp::DeltaContext ContextFor(const Maintainer& m,
                             const std::map<std::string, AnnotatedDelta>& deltas,
                             const ReadView* view) {
  imp::DeltaContext ctx;
  ctx.view = view;
  for (const std::string& table : m.tables()) {
    auto it = deltas.find(table);
    if (it == deltas.end() || it->second.empty()) continue;
    imp::ExprPtr pred = m.DeltaPredicateExpr(table);
    if (!pred) {
      ctx.batches[table] = imp::DeltaBatch::Borrowed(&it->second);
      continue;
    }
    imp::BitVector selection;
    size_t vectorized = 0, fallback = 0;
    imp::PredicateKernel::Compile(pred).Eval(
        imp::RowBlock::FromMember(it->second.rows, &imp::AnnotatedDeltaRow::row),
        &selection, &vectorized, &fallback);
    imp::DeltaBatch filtered =
        imp::DeltaBatch::BorrowedFiltered(&it->second, std::move(selection));
    if (!filtered.empty()) ctx.batches[table] = std::move(filtered);
  }
  return ctx;
}

/// One eager maintenance round (MaintainBatchLocked with shared delta
/// fetch): read view at the cut, one delta scan + annotation per touched
/// table, then every maintainer in store order — repair when one of its
/// tables has a delta, fast-forward otherwise.
void ReplayRound(Ctx& ctx, Recorder& rec, uint64_t req, uint32_t parent,
                 const std::set<std::string>& touched) {
  Tracer* tr = &rec.tracer;
  Shadow& sh = *ctx.shadow;
  std::optional<ReadView> view;
  {
    Scope s(tr, "storage.open_read_view", req, parent);
    view.emplace(sh.db.OpenReadView());
  }
  const uint64_t cut = view->watermark();
  std::map<std::string, AnnotatedDelta> deltas;
  for (const std::string& table : touched) {
    imp::TableDelta raw;
    {
      Scope s(tr, "storage.delta_scan", req, parent);
      raw = sh.db.ScanDelta(table, sh.cut, cut);
    }
    Scope s(tr, "imp.annotate", req, parent);
    deltas.emplace(table, imp::AnnotateTableDelta(std::move(raw), sh.catalog));
  }
  for (size_t i = 0; i < sh.maintainers.size(); ++i) {
    Maintainer& m = *sh.maintainers[i];
    bool stale = false;
    for (const std::string& table : m.tables()) {
      auto it = deltas.find(table);
      stale = stale || (it != deltas.end() && !it->second.empty());
    }
    Scope s(tr, kMaintainSpans[i], req, parent);
    Status st = stale ? m.MaintainAnnotated(ContextFor(m, deltas, &*view), cut).status()
                      : m.Maintain({}, cut).status();
    s.Stop();
    rec.Check(st.ok(), "replayed maintenance failed: " + st.ToString());
  }
  sh.cut = cut;
  sh.db.TruncateDeltaLogs(cut);
}

/// Storage side of applying `stmts` as one apply batch (stage each insert,
/// publish each touched table once, retire the versions; a delete runs as
/// Database::Delete), followed by the maintenance round they trigger.
void ReplayStatements(Ctx& ctx, Recorder& rec, uint64_t req, uint32_t parent,
                      const Statement* begin, const Statement* end) {
  Tracer* tr = &rec.tracer;
  Database& db = ctx.shadow->db;
  std::set<std::string> touched;
  std::set<std::string> unpublished;
  std::vector<uint64_t> versions;
  auto publish = [&] {
    for (const std::string& table : unpublished) {
      auto lock = db.WriteSession(table);
      Scope s(tr, "storage.publish", req, parent);
      Status st = db.PublishTable(table);
      s.Stop();
      rec.Check(st.ok(), "replayed publish failed");
    }
    for (uint64_t v : versions) db.RetireVersion(v);
    unpublished.clear();
    versions.clear();
  };
  for (const Statement* st = begin; st != end; ++st) {
    const BoundUpdate& u = st->update;
    touched.insert(u.table);
    if (u.kind == BoundUpdate::Kind::kDelete) {
      publish();
      auto pred = imp::ExprPredicate(u.where);
      Scope s(tr, "storage.delete", req, parent);
      Result<uint64_t> r = db.Delete(u.table, pred);
      s.Stop();
      rec.Check(r.ok(), "replayed delete failed");
      continue;
    }
    uint64_t v = db.AllocateVersion();
    {
      auto lock = db.WriteSession(u.table);
      Scope s(tr, "storage.stage", req, parent);
      Status staged = db.StageInsert(u.table, u.rows, v);
      s.Stop();
      rec.Check(staged.ok(), "replayed stage failed");
    }
    versions.push_back(v);
    unpublished.insert(u.table);
  }
  publish();
  ReplayRound(ctx, rec, req, parent, touched);
}

// ---------------------------------------------------------------------------
// Client operations.

void RecordSketchQuery(Recorder& rec, size_t tpl, double seconds) {
  Block& b = rec.Current();
  b.query_ms.Add(seconds * 1e3);
  b.sketch_busy_s += seconds;
  ++b.sketch_queries;
  rec.template_ms[tpl].Add(seconds * 1e3);
  rec.last_sketch_ms = seconds * 1e3;
}

void RecordPlainQuery(Recorder& rec, double seconds) {
  rec.Current().plain_ms.Add(seconds * 1e3);
  rec.last_plain_ms = seconds * 1e3;
}

/// Sketch-path query. Untraced: ImpSystem::Query. Traced: the same two
/// steps it takes (bind, QueryPlan) as spans, then the replays.
Result<Relation> SketchQuery(Ctx& ctx, Recorder& rec, const std::string& sql,
                             size_t tpl) {
  ImpSystem& sys = *ctx.bench->sys;
  const uint64_t req = ctx.NextRequest();
  auto start = Clock::now();
  if (!rec.tracer.enabled()) {
    Result<Relation> r = sys.Query(sql);
    RecordSketchQuery(rec, tpl, SecondsBetween(start, Clock::now()));
    return r;
  }
  Tracer* tr = &rec.tracer;
  std::optional<Result<Relation>> r;
  PlanPtr plan;
  uint32_t middleware = 0;
  {
    Scope request(tr, "request.query", req);
    Scope bind(tr, "sql.bind", req, request.id());
    Result<PlanPtr> bound = ctx.binder->BindQuery(sql);
    bind.Stop();
    if (!bound.ok()) return bound.status();
    plan = bound.value();
    // Under async ingestion a query can find its sketch stale and repair
    // it; such queries get their own middleware span name.
    bool repair = false;
    if (ctx.cfg->async) {
      Scope probe(tr, "bench.path_probe", req, request.id());
      repair = StaleNow(ctx, plan);
    }
    Scope m(tr, repair ? "middleware.query_repair" : "middleware.query", req, request.id());
    middleware = m.id();
    r.emplace(sys.QueryPlan(plan));
  }
  RecordSketchQuery(rec, tpl, SecondsBetween(start, Clock::now()));
  ReplaySketchQuery(ctx, rec, req, middleware, plan);
  return std::move(*r);
}

Result<Relation> PlainQuery(Ctx& ctx, Recorder& rec, const std::string& sql) {
  ImpSystem& plain = *ctx.bench->plain;
  const uint64_t req = ctx.NextRequest();
  auto start = Clock::now();
  if (!rec.tracer.enabled()) {
    Result<Relation> r = plain.Query(sql);
    RecordPlainQuery(rec, SecondsBetween(start, Clock::now()));
    return r;
  }
  Tracer* tr = &rec.tracer;
  std::optional<Result<Relation>> r;
  PlanPtr plan;
  uint32_t middleware = 0;
  {
    Scope request(tr, "request.plain", req);
    Scope bind(tr, "sql.bind", req, request.id());
    Result<PlanPtr> bound = ctx.binder->BindQuery(sql);
    bind.Stop();
    if (!bound.ok()) return bound.status();
    plan = bound.value();
    Scope m(tr, "middleware.plain_query", req, request.id());
    middleware = m.id();
    r.emplace(plain.QueryPlan(plan));
  }
  RecordPlainQuery(rec, SecondsBetween(start, Clock::now()));
  ReplayPlainQuery(ctx, rec, req, middleware, plan);
  return std::move(*r);
}

/// One synchronous eager statement: when UpdateBound returns, every
/// sketch covers it, so its latency is the freshness latency.
void SyncWrite(Ctx& ctx, Recorder& rec, const Statement& st) {
  const uint64_t req = ctx.NextRequest();
  Tracer* tr = &rec.tracer;
  uint32_t middleware = 0;
  auto start = Clock::now();
  Result<uint64_t> r = Status::Internal("not run");
  {
    Scope request(tr, "request.update", req);
    Scope m(tr, "middleware.update", req, request.id());
    middleware = m.id();
    r = ctx.bench->sys->UpdateBound(st.update);
  }
  double s = SecondsBetween(start, Clock::now());
  Block& b = rec.Current();
  b.fresh_ms.Add(s * 1e3);
  b.AddWrite(s, st.rows, st.update.kind == BoundUpdate::Kind::kDelete);
  ++rec.write_calls;
  ++rec.statements;
  rec.Check(r.ok(), "update failed: " + r.status().ToString());
  if (tr->enabled()) ReplayStatements(ctx, rec, req, middleware, &st, &st + 1);
}

/// One open-loop burst: enqueue every statement, then drain; returns when
/// the drain returned. `ready` is the later of the burst's due time and the
/// end of the previous burst: the earliest moment the writer could send.
/// Freshness runs from the due time until WaitForIngest returns, minus the
/// writer's own wake-up delay (ready -> send). A backlog the system left,
/// i.e. a previous burst that ended after this one was due, stays in it;
/// how late the sleeping writer thread was scheduled does not.
Clock::time_point AsyncBurst(Ctx& ctx, Recorder& rec, const Statement* begin,
                             const Statement* end, Clock::time_point due,
                             Clock::time_point ready) {
  const uint64_t req = ctx.NextRequest();
  Tracer* tr = &rec.tracer;
  ImpSystem& sys = *ctx.bench->sys;
  uint32_t middleware = 0;
  size_t rows = 0;
  bool has_delete = false;
  auto start = Clock::now();
  rec.lateness_ms.Add(std::max(0.0, SecondsBetween(due, start) * 1e3));
  {
    Scope request(tr, "request.burst", req);
    Scope m(tr, "middleware.update", req, request.id());
    middleware = m.id();
    for (const Statement* st = begin; st != end; ++st) {
      Scope e(tr, "middleware.enqueue", req, m.id());
      Result<uint64_t> r = sys.UpdateBound(st->update);
      e.Stop();
      rec.Check(r.ok(), "enqueue failed: " + r.status().ToString());
      rows += st->rows;
      has_delete = has_delete || st->update.kind == BoundUpdate::Kind::kDelete;
      ++rec.statements;
    }
    Status drained = sys.WaitForIngest();
    rec.Check(drained.ok(), "ingest failed: " + drained.ToString());
  }
  auto done = Clock::now();
  rec.Current().fresh_ms.Add((SecondsBetween(due, ready) + SecondsBetween(start, done)) * 1e3);
  rec.Current().AddWrite(SecondsBetween(start, done), rows, has_delete);
  ++rec.write_calls;
  if (tr->enabled()) {
    for (const Statement* st = begin; st < end; st += kAsyncBatch) {
      ReplayStatements(ctx, rec, req, middleware, st, std::min(st + kAsyncBatch, end));
    }
  }
  return done;
}

// ---------------------------------------------------------------------------
// Workload phases. `warm` records warm-up operations (counted for
// correctness, never timed); `rec` the measured ones.

void WarmQueries(Ctx& ctx, Recorder& warm) {
  for (size_t tpl = 0; tpl < kNumTemplates; ++tpl) {
    std::string sql = TemplateSql(*ctx.data, tpl, 0);
    Result<Relation> p = PlainQuery(ctx, warm, sql);
    Result<Relation> s = SketchQuery(ctx, warm, sql, tpl);
    warm.Check(p.ok() && s.ok() && s.value().SameBag(p.value()),
               "warm-up answer differs: " + sql);
  }
}

void RunWriteChurn(Ctx& ctx, const std::vector<Statement>& stmts, uint64_t seed,
                   Recorder& warm, Recorder& rec) {
  const WorkloadConfig& cfg = *ctx.cfg;
  WarmQueries(ctx, warm);
  const Statement* next = stmts.data();
  for (size_t i = 0; i < cfg.WarmStatements(); ++i) SyncWrite(ctx, warm, *next++);
  QueryPicker picker(seed + 202);
  size_t queries = 0;
  for (rec.block = 0; rec.block < kBlocks; ++rec.block) {
    for (size_t i = 0; i < cfg.BlockStatements(); ++i) {
      SyncWrite(ctx, rec, *next++);
      // Queries sit at the same offsets of every cycle, so every cycle has
      // the same share of queries that follow its deletes' rebuilds.
      if (i % kQueryEvery != kQueryEvery / 2) continue;
      size_t tpl = 0;
      std::string sql = picker.Next(*ctx.data, &tpl);
      Result<Relation> s = SketchQuery(ctx, rec, sql, tpl);
      if (queries++ % kPlainEvery != 0) {
        rec.Check(s.ok(), "sketch query failed: " + sql);
        continue;
      }
      // Sync ingestion: both queries see the same watermark.
      Result<Relation> p = PlainQuery(ctx, rec, sql);
      rec.Check(s.ok() && p.ok() && s.value().SameBag(p.value()),
                "sketch answer differs under churn: " + sql);
      if (s.ok() && p.ok()) rec.AddPair(tpl);
    }
  }
}

void RunMixedAsync(Ctx& ctx, const std::vector<Statement>& stmts, uint64_t seed,
                   Recorder& warm, std::vector<std::unique_ptr<Recorder>>* readers,
                   Recorder& writer) {
  const WorkloadConfig& cfg = *ctx.cfg;
  WarmQueries(ctx, warm);
  const Statement* next = stmts.data();
  for (size_t i = 0; i < cfg.WarmStatements(); i += cfg.burst, next += cfg.burst) {
    const auto now = Clock::now();
    AsyncBurst(ctx, warm, next, next + cfg.burst, now, now);
  }
  std::atomic<bool> writer_done{false};
  std::vector<std::thread> threads;
  for (size_t r = 0; r < readers->size(); ++r) {
    threads.emplace_back([&, r] {
      Recorder& rec = *(*readers)[r];
      QueryPicker picker(seed + 303 + r);
      size_t i = 0;
      // Readers are closed loops that stop once the writer's fixed count
      // is done; their operations count toward the writer's current block.
      // Answers race the writer, so they are checked for success here and
      // for equality by the final gate.
      do {
        rec.block = ctx.block.load(std::memory_order_relaxed);
        size_t tpl = 0;
        std::string sql = picker.Next(*ctx.data, &tpl);
        Result<Relation> s = SketchQuery(ctx, rec, sql, tpl);
        rec.Check(s.ok(), "sketch query failed: " + sql);
        if (i++ % kPlainEvery == 0) {
          Result<Relation> p = PlainQuery(ctx, rec, sql);
          rec.Check(p.ok(), "plain query failed: " + sql);
          if (s.ok() && p.ok()) rec.AddPair(tpl);
        }
      } while (!writer_done.load(std::memory_order_acquire));
    });
  }
  const double interval_s = static_cast<double>(cfg.burst) / cfg.statement_rate;
  auto t0 = Clock::now();
  auto previous_done = t0;
  size_t burst = 0;
  for (writer.block = 0; writer.block < kBlocks; ++writer.block) {
    ctx.block.store(writer.block, std::memory_order_relaxed);
    for (size_t i = 0; i < cfg.BlockStatements(); i += cfg.burst, next += cfg.burst) {
      auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(interval_s * burst++));
      std::this_thread::sleep_until(due);
      previous_done = AsyncBurst(ctx, writer, next, next + cfg.burst, due,
                                 std::max(due, previous_done));
    }
  }
  writer_done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
}

// ---------------------------------------------------------------------------
// Final drain + correctness gate.

void Gate(Ctx& ctx, bool corrupt, Recorder& rec, double* state_mb) {
  ImpSystem& sys = *ctx.bench->sys;
  Status drained = sys.WaitForIngest();
  rec.Check(drained.ok(), "final drain failed: " + drained.ToString());
  Status maintained = sys.MaintainAll();
  rec.Check(maintained.ok(), "final MaintainAll failed: " + maintained.ToString());
  *state_mb = static_cast<double>(sys.sketches().MemoryBytes()) / (1024.0 * 1024.0);
  for (size_t tpl = 0; tpl < kNumTemplates; ++tpl) {
    std::string sql = TemplateSql(*ctx.data, tpl, 0);
    Result<Relation> s = sys.Query(sql);
    Result<Relation> p = ctx.bench->plain->Query(sql);
    if (corrupt && tpl == 0 && s.ok() && !s.value().rows.empty()) {
      s.value().rows.pop_back();
    }
    rec.Check(s.ok() && p.ok() && s.value().SameBag(p.value()),
              std::string("gate: sketch answer differs from plain scan for ") +
                  kTemplateNames[tpl]);
  }
  imp::CaptureEngine capture(&ctx.bench->db, &sys.catalog());
  for (SketchEntry* entry : sys.sketches().AllEntries()) {
    Result<imp::ProvenanceSketch> fresh = capture.Capture(entry->plan);
    std::shared_ptr<const imp::SketchSnapshot> snap = entry->Snapshot();
    rec.Check(fresh.ok() && entry->health == imp::SketchHealth::kFresh &&
                  snap->sketch.Covers(fresh.value()),
              "gate: maintained sketch does not cover a fresh capture");
  }
}

/// MaintainStats summed over the live maintainers; `state_bytes` receives
/// their Maintainer::StateBytes total.
MaintainStats SumMaintainStats(ImpSystem& sys, size_t* state_bytes) {
  MaintainStats sum;
  *state_bytes = 0;
  for (SketchEntry* entry : sys.sketches().AllEntries()) {
    if (entry->maintainer == nullptr) continue;
    const MaintainStats& m = entry->maintainer->stats();
    sum.join_round_trips += m.join_round_trips;
    sum.bloom_pruned_rows += m.bloom_pruned_rows;
    sum.delta_rows_processed += m.delta_rows_processed;
    sum.recaptures += m.recaptures;
    sum.rows_copied += m.rows_copied;
    sum.index_fallback_scans += m.index_fallback_scans;
    *state_bytes += entry->maintainer->StateBytes();
  }
  return sum;
}

// ---------------------------------------------------------------------------
// One pass: setup(s), warm-up, the measured phase, the gate.

struct PassResult {
  Recorder total{false};
  Samples setup_s;
  double state_mb = 0;
  size_t state_bytes = 0;
  MaintainStats maintain;  ///< workload difference, warm-up included
  ImpSystemStats stats;    ///< end-of-workload values; sketch_uses and
                           ///< snapshot_reads are workload differences
  std::vector<std::unique_ptr<Recorder>> traced;  ///< recorders with spans
};

PassResult RunPass(const WorkloadConfig& cfg, const Dataset& data,
                   const std::vector<Statement>& stmts, uint64_t seed, bool traced,
                   bool corrupt, size_t setups) {
  PassResult out;
  std::unique_ptr<Bench> bench;
  for (size_t i = 0; i < setups; ++i) {
    bench.reset();
    double s = 0;
    bench = Setup(cfg, data, &s);
    out.setup_s.Add(s);
  }
  Ctx ctx;
  ctx.cfg = &cfg;
  ctx.data = &data;
  ctx.bench = bench.get();
  ctx.binder = std::make_unique<imp::Binder>(&bench->db);
  std::unique_ptr<Shadow> shadow;
  auto setup_rec = std::make_unique<Recorder>(traced);
  if (traced) {
    shadow = MakeShadow(data, bench->sys->config());
    ctx.shadow = shadow.get();
    // The captures setup ran inside ImpSystem::Query, replayed per template.
    imp::CaptureEngine capture(&bench->db, &bench->sys->catalog());
    for (size_t tpl = 0; tpl < kNumTemplates; ++tpl) {
      Result<PlanPtr> plan = ctx.binder->BindQuery(TemplateSql(data, tpl, 0));
      IMP_CHECK(plan.ok());
      Scope s(&setup_rec->tracer, "sketch.capture", ctx.NextRequest());
      Result<imp::ProvenanceSketch> sketch = capture.Capture(plan.value());
      s.Stop();
      setup_rec->Check(sketch.ok(), "replayed capture failed");
    }
  }

  Recorder warm(traced);
  auto rec = std::make_unique<Recorder>(traced);
  std::vector<std::unique_ptr<Recorder>> readers;
  ImpSystem& sys = *bench->sys;
  // Counters are diffed around the whole workload, warm-up included; its
  // operation counts are fixed, so the totals compare across runs.
  MaintainStats before = SumMaintainStats(sys, &out.state_bytes);
  ImpSystemStats stats_before = sys.stats();
  if (cfg.name == "write_churn") {
    RunWriteChurn(ctx, stmts, seed, warm, *rec);
  } else {
    for (size_t r = 0; r < cfg.readers; ++r) {
      readers.push_back(std::make_unique<Recorder>(traced));
    }
    RunMixedAsync(ctx, stmts, seed, warm, &readers, *rec);
  }
  Status drained = sys.WaitForIngest();
  rec->Check(drained.ok(), "drain failed: " + drained.ToString());
  MaintainStats after = SumMaintainStats(sys, &out.state_bytes);
  out.maintain.join_round_trips = after.join_round_trips - before.join_round_trips;
  out.maintain.bloom_pruned_rows = after.bloom_pruned_rows - before.bloom_pruned_rows;
  out.maintain.delta_rows_processed =
      after.delta_rows_processed - before.delta_rows_processed;
  out.maintain.recaptures = after.recaptures - before.recaptures;
  out.maintain.rows_copied = after.rows_copied - before.rows_copied;
  out.maintain.index_fallback_scans =
      after.index_fallback_scans - before.index_fallback_scans;
  out.stats = sys.stats();
  out.stats.sketch_uses -= stats_before.sketch_uses;
  out.stats.snapshot_reads -= stats_before.snapshot_reads;

  Recorder gate(false);
  Gate(ctx, corrupt, gate, &out.state_mb);

  out.total.Absorb(*rec);
  for (const auto& r : readers) out.total.Absorb(*r);
  // Warm-up, setup replay and gate count toward correctness only.
  for (const Recorder* r : {&warm, setup_rec.get(), &gate}) {
    out.total.attempted += r->attempted;
    out.total.failed += r->failed;
    if (out.total.first_failure.empty()) out.total.first_failure = r->first_failure;
  }
  out.traced.push_back(std::move(setup_rec));
  out.traced.push_back(std::move(rec));
  for (auto& r : readers) out.traced.push_back(std::move(r));
  return out;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

void PrintDiagnostics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-32s %16.6f %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

void PrintResult(const PassResult& r, const std::vector<Metric>& metrics) {
  const bool correct = r.total.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", r.total.attempted, r.total.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Median over the blocks of `stat`, over the blocks that have samples.
template <class Stat>
double BlockMedian(const Recorder& r, Stat stat) {
  Samples per_block;
  for (const Block& b : r.blocks) {
    std::optional<double> v = stat(b);
    if (v) per_block.Add(*v);
  }
  return per_block.Percentile(50);
}

std::optional<double> PercentileOf(const Samples& s, double p) {
  if (s.size() == 0) return std::nullopt;
  return s.Percentile(p);
}

std::optional<double> Rate(double count, double seconds) {
  if (seconds <= 0) return std::nullopt;
  return count / seconds;
}

/// The end-to-end metrics of the result line.
std::vector<Metric> EndToEnd(const PassResult& r) {
  const Recorder& t = r.total;
  const Block all = t.Pooled();
  std::vector<Metric> m;
  m.push_back({"setup_s", r.setup_s.Percentile(50), "s", r.setup_s.size()});
  // Geometric mean over the templates of each one's median pair ratio, so
  // every template weighs the same and none sits on the edge of another's
  // latency mode.
  double log_sum = 0;
  size_t templates = 0, pairs = 0;
  for (const Samples& ratios : t.speedup) {
    if (ratios.size() == 0) continue;
    log_sum += std::log(ratios.Percentile(50));
    ++templates;
    pairs += ratios.size();
  }
  m.push_back({"skip_speedup", templates ? std::exp(log_sum / templates) : 0, "ratio", pairs});
  m.push_back({"fresh_p50_ms",
               BlockMedian(t, [](const Block& b) { return PercentileOf(b.fresh_ms, 50); }),
               "ms", all.fresh_ms.size()});
  // The median call's rate, not rows ÷ busy time: on the tuning VM the
  // slowest few percent of calls moved the pooled rate by up to 30% between
  // runs of one seed, and the median call by about 5%.
  m.push_back({"write_rows_per_s",
               BlockMedian(t, [](const Block& b) { return PercentileOf(b.insert_rate, 50); }),
               "1/s", all.insert_rate.size()});
  m.push_back({"ok_op_share",
               t.attempted ? static_cast<double>(t.attempted - t.failed) / t.attempted : 0,
               "ratio", t.attempted});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB", 1});
  m.push_back({"state_mb", r.state_mb, "MB", 1});
  return m;
}

/// Query latencies, printed but not part of the result line: on the 4-vCPU
/// VM the benchmark was tuned on, the host's speed for the scan-heavy query
/// path swung up to 1.5x over seconds to minutes, and whole runs' p50, p90
/// and throughput moved by 15-45% (interquartile range ÷ median over ten
/// runs), more than any usable regression bound. skip_speedup is gated in
/// their place.
std::vector<Metric> QueryLatency(const WorkloadConfig& cfg, const PassResult& r) {
  const Recorder& t = r.total;
  const Block all = t.Pooled();
  const double readers = static_cast<double>(std::max<size_t>(1, cfg.readers));
  return {
      {"query_p50_ms",
       BlockMedian(t, [](const Block& b) { return PercentileOf(b.query_ms, 50); }), "ms",
       all.query_ms.size()},
      {"plain_query_p50_ms",
       BlockMedian(t, [](const Block& b) { return PercentileOf(b.plain_ms, 50); }), "ms",
       all.plain_ms.size()},
      {"query_p90_ms",
       BlockMedian(t, [](const Block& b) { return PercentileOf(b.query_ms, 90); }), "ms",
       all.query_ms.size()},
      {"query_p99_ms", all.query_ms.Percentile(99), "ms", all.query_ms.size()},
      {"qps", BlockMedian(t, [&](const Block& b) {
         return Rate(b.sketch_queries * readers, b.sketch_busy_s);
       }),
       "1/s", all.sketch_queries}};
}

/// Write-path numbers printed but not part of the result line. The
/// freshness tail (pooled: per block, p99 would rest on too few samples
/// beyond it) moved by 20-30% between runs on the tuning VM, amplifying the
/// host's speed swings. The pooled insert rate and the p50 insert call show
/// what write_rows_per_s summarizes. Write calls holding a DELETE are kept
/// out of write_rows_per_s; the last two show how much time they took.
std::vector<Metric> WriteDiagnostics(const PassResult& r) {
  const Block all = r.total.Pooled();
  const double busy = all.WriteBusySeconds();
  return {{"fresh_p99_ms", all.fresh_ms.Percentile(99), "ms", all.fresh_ms.size()},
          {"write_rows_per_busy_s", all.insert_busy_s > 0 ? all.insert_rows / all.insert_busy_s : 0,
           "1/s", all.insert_rate.size()},
          {"insert_call_p50_ms", all.insert_ms.Percentile(50), "ms", all.insert_ms.size()},
          {"delete_p50_ms", all.delete_ms.Percentile(50), "ms", all.delete_ms.size()},
          {"delete_time_share", busy > 0 ? all.delete_busy_s / busy : 0, "ratio",
           all.delete_ms.size()}};
}

/// Per-request check of the decomposition: the self times of a request's
/// spans (negative ones clamped to zero) against its end-to-end span. The
/// excess is zero exactly when every replay fits inside the span it stands
/// for.
void PrintDecomposition(const PassResult& r) {
  std::map<std::string, Samples> excess;
  std::map<std::string, std::vector<std::pair<double, std::string>>> examples;
  for (const auto& rec : r.traced) {
    const std::vector<Span>& spans = rec->tracer.spans();
    std::vector<double> self = SelfSeconds(rec->tracer);
    std::map<uint64_t, std::vector<size_t>> by_request;
    for (size_t i = 0; i < spans.size(); ++i) by_request[spans[i].request].push_back(i);
    for (const auto& [req, ids] : by_request) {
      const Span& root = spans[ids.front()];
      if (root.parent != Tracer::kNoParent || root.Seconds() <= 0) continue;
      std::map<std::string, double> layers;
      double clamped = 0;
      for (size_t i : ids) {
        clamped += std::max(0.0, self[i]);
        layers[spans[i].name] += self[i];
      }
      excess[root.name].Add(clamped / root.Seconds() - 1.0);
      std::string text = "{\"request\": " + std::to_string(req) +
                         ", \"span_ms\": " + std::to_string(root.Seconds() * 1e3) +
                         ", \"self_ms\": {";
      bool first = true;
      for (const auto& [name, s] : layers) {
        text += (first ? "\"" : ", \"") + name + "\": " + std::to_string(s * 1e3);
        first = false;
      }
      text += "}}";
      examples[root.name].push_back({root.Seconds(), text});
    }
  }
  for (auto& [kind, list] : examples) {
    std::sort(list.begin(), list.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const Samples& e = excess[kind];
    std::printf("# decomposition %s n=%zu median_excess=%.6f p90_excess=%.6f median_request=%s\n",
                kind.c_str(), e.size(), e.Percentile(50), e.Percentile(90),
                list[list.size() / 2].second.c_str());
  }
}

/// (traced - untraced) / untraced client-visible time. Readers of
/// mixed_async run until the writer is done, so their operation counts
/// differ between passes: each operation kind's mean latency is compared,
/// weighted by the untraced pass's count of that kind.
double TraceOverheadShare(const Recorder& traced, const Recorder& untraced) {
  struct Kind {
    double traced_mean, untraced_mean;
    size_t n;
  };
  const Block t = traced.Pooled();
  const Block u = untraced.Pooled();
  auto mean = [](double sum, size_t n) { return n ? sum / n : 0.0; };
  const Kind kinds[] = {
      {t.query_ms.Mean(), u.query_ms.Mean(), u.query_ms.size()},
      {t.plain_ms.Mean(), u.plain_ms.Mean(), u.plain_ms.size()},
      {mean(t.WriteBusySeconds(), traced.write_calls) * 1e3,
       mean(u.WriteBusySeconds(), untraced.write_calls) * 1e3, untraced.write_calls}};
  double diff = 0, base = 0;
  for (const Kind& k : kinds) {
    diff += (k.traced_mean - k.untraced_mean) * k.n;
    base += k.untraced_mean * k.n;
  }
  return base > 0 ? diff / base : 0;
}

std::vector<const Tracer*> TracersOf(const PassResult& r) {
  std::vector<const Tracer*> tracers;
  for (const auto& rec : r.traced) tracers.push_back(&rec->tracer);
  return tracers;
}

std::vector<Metric> PerLayer(const PassResult& traced, const PassResult& untraced,
                             std::map<std::string, SpanTotals> spans, double calib_ms) {
  auto mean = [&](const char* name, double scale) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.MeanSeconds() * scale;
  };
  auto count = [&](const char* name) -> size_t {
    auto it = spans.find(name);
    return it == spans.end() ? 0 : it->second.count;
  };
  const Recorder& t = traced.total;
  const ImpSystemStats& st = traced.stats;
  const double update_self = spans.count("middleware.update")
                                 ? spans["middleware.update"].self_seconds
                                 : 0.0;
  std::vector<Metric> m;
  m.push_back({"sql.bind_ms", mean("sql.bind", 1e3), "ms", count("sql.bind")});
  m.push_back({"sketch.reuse_check_us", mean("sketch.reuse_check", 1e6), "us",
               count("sketch.reuse_check")});
  m.push_back({"sketch.rewrite_us", mean("sketch.rewrite", 1e6), "us", count("sketch.rewrite")});
  m.push_back({"sketch.capture_ms", mean("sketch.capture", 1e3), "ms", count("sketch.capture")});
  m.push_back({"sketch.fragment_keep_share",
               t.candidate_fragments ? static_cast<double>(t.kept_fragments) / t.candidate_fragments : 0,
               "ratio", t.sketch_execs});
  m.push_back({"storage.open_read_view_us", mean("storage.open_read_view", 1e6), "us",
               count("storage.open_read_view")});
  m.push_back({"exec.sketch_exec_ms", mean("exec.sketch_exec", 1e3), "ms",
               count("exec.sketch_exec")});
  m.push_back({"exec.plain_exec_ms", mean("exec.plain_exec", 1e3), "ms", count("exec.plain_exec")});
  m.push_back({"exec.rows_scanned",
               t.sketch_execs ? static_cast<double>(t.rows_scanned) / t.sketch_execs : 0, "count",
               t.sketch_execs});
  m.push_back({"exec.chunk_skip_share",
               (t.chunks_scanned + t.chunks_skipped)
                   ? static_cast<double>(t.chunks_skipped) / (t.chunks_scanned + t.chunks_skipped)
                   : 0,
               "ratio", t.sketch_execs});
  // Both query paths: lazy repairs are part of the middleware's own work.
  const SpanTotals& fast = spans["middleware.query"];
  const SpanTotals& repair = spans["middleware.query_repair"];
  const size_t queries = fast.count + repair.count;
  m.push_back({"middleware.query_self_ms",
               queries ? (fast.self_seconds + repair.self_seconds) * 1e3 / queries : 0, "ms",
               queries});
  m.push_back({"storage.stage_us", mean("storage.stage", 1e6), "us", count("storage.stage")});
  m.push_back({"storage.publish_us", mean("storage.publish", 1e6), "us", count("storage.publish")});
  m.push_back({"storage.delete_ms", mean("storage.delete", 1e3), "ms", count("storage.delete")});
  m.push_back({"storage.delta_scan_us", mean("storage.delta_scan", 1e6), "us",
               count("storage.delta_scan")});
  m.push_back({"imp.annotate_us", mean("imp.annotate", 1e6), "us", count("imp.annotate")});
  for (size_t i = 0; i < kNumTemplates; ++i) {
    m.push_back({std::string("imp.maintain_us.") + kTemplateNames[i],
                 mean(kMaintainSpans[i], 1e6), "us", count(kMaintainSpans[i])});
  }
  const MaintainStats& ms = traced.maintain;
  m.push_back({"imp.delta_rows", static_cast<double>(ms.delta_rows_processed), "count", 1});
  m.push_back({"imp.join_round_trips", static_cast<double>(ms.join_round_trips), "count", 1});
  m.push_back({"imp.bloom_pruned_rows", static_cast<double>(ms.bloom_pruned_rows), "count", 1});
  m.push_back({"imp.rows_copied", static_cast<double>(ms.rows_copied), "count", 1});
  m.push_back({"imp.index_fallback_scans", static_cast<double>(ms.index_fallback_scans), "count", 1});
  m.push_back({"imp.recaptures", static_cast<double>(ms.recaptures), "count", 1});
  m.push_back({"imp.state_bytes", static_cast<double>(traced.state_bytes), "B", 1});
  m.push_back({"middleware.update_self_ms",
               t.statements ? update_self * 1e3 / t.statements : 0, "ms", t.statements});
  m.push_back({"middleware.snapshot_read_share",
               st.sketch_uses ? static_cast<double>(st.snapshot_reads) / st.sketch_uses : 0,
               "ratio", st.sketch_uses});
  m.push_back({"middleware.ingest_batch_mean",
               st.ingest_batches ? static_cast<double>(st.ingest_applied) / st.ingest_batches : 0,
               "count", st.ingest_batches});
  m.push_back({"middleware.ingest_queue_peak", static_cast<double>(st.ingest_queue_peak), "count", 1});
  m.push_back({"env.calib_ms", calib_ms, "ms", 10});
  m.push_back({"env.trace_overhead_share", TraceOverheadShare(traced.total, untraced.total),
               "ratio", 2});
  return m;
}

/// Diagnostics that apply only to asynchronous ingestion or an open-loop
/// writer; printed, not part of the result line.
std::vector<Metric> AsyncDiagnostics(const PassResult& r,
                                     const std::map<std::string, SpanTotals>* spans) {
  const ImpSystemStats& st = r.stats;
  std::vector<Metric> m;
  if (spans != nullptr) {
    auto span = [&](const char* name) {
      auto it = spans->find(name);
      return it == spans->end() ? SpanTotals{} : it->second;
    };
    SpanTotals enqueue = span("middleware.enqueue");
    m.push_back({"middleware.enqueue_us", enqueue.MeanSeconds() * 1e6, "us", enqueue.count});
    // middleware.query_self_ms split by the path the query took.
    SpanTotals fast = span("middleware.query");
    SpanTotals repair = span("middleware.query_repair");
    m.push_back({"middleware.query_self_ms.fast_path", fast.MeanSelfSeconds() * 1e3, "ms",
                 fast.count});
    m.push_back({"middleware.query_self_ms.repair_path", repair.MeanSelfSeconds() * 1e3,
                 "ms", repair.count});
  }
  m.push_back({"middleware.apply_ms_per_stmt",
               st.ingest_applied ? st.ingest_apply_seconds * 1e3 / st.ingest_applied : 0, "ms",
               st.ingest_applied});
  m.push_back({"env.gen_lateness_ms", r.total.lateness_ms.Mean(), "ms",
               r.total.lateness_ms.size()});
  m.push_back({"env.gen_lateness_p50_ms", r.total.lateness_ms.Percentile(50), "ms",
               r.total.lateness_ms.size()});
  m.push_back({"env.gen_lateness_p99_ms", r.total.lateness_ms.Percentile(99), "ms",
               r.total.lateness_ms.size()});
  return m;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  bool smoke = false;
  bool corrupt = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--smoke") {
      a->smoke = true;
    } else if (flag == "--corrupt") {
      a->corrupt = true;
    } else {
      const char* v = value();
      if (v == nullptr) return false;
      if (flag == "--workload") a->workload = v;
      else if (flag == "--seed") a->seed = std::strtoull(v, nullptr, 10);
      else if (flag == "--seconds") a->seconds = std::atoi(v);
      else if (flag == "--trace") a->trace = std::atoi(v);
      else if (flag == "--trace-out") a->trace_out = v;
      else return false;
    }
  }
  return !a->workload.empty() && a->seconds >= 1 && a->seconds <= 60 &&
         (a->trace == 0 || a->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadConfig cfg;
  // A traced run makes two passes (untraced, then traced with replays), so
  // each pass runs the operation counts of half of --seconds.
  if (!ParseArgs(argc, argv, &args) ||
      !MakeConfig(args.workload, args.trace ? std::max(1, args.seconds / 2) : args.seconds,
                  args.smoke, &cfg)) {
    std::fprintf(stderr,
                 "usage: impbench --workload write_churn|mixed_async "
                 "--seed N --seconds S --trace 0|1 [--smoke] [--corrupt] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const double calib_start = CalibrationMedianMs(5);
  Dataset data = MakeDataset(cfg.sizes, args.seed);
  std::vector<Statement> stmts = MakeStatements(data, cfg.stream, args.seed);
  std::printf("# workload %s seed %llu: edb1 %zu rows, t %zu rows, h %zu rows, %zu statements\n",
              cfg.name.c_str(), static_cast<unsigned long long>(args.seed), data.edb1.size(),
              data.t.size(), data.h.size(), stmts.size());

  PassResult untraced = RunPass(cfg, data, stmts, args.seed, /*traced=*/false, args.corrupt,
                                args.trace ? 1 : cfg.setups);
  std::optional<PassResult> traced;
  if (args.trace) {
    traced.emplace(RunPass(cfg, data, stmts, args.seed, /*traced=*/true, args.corrupt, 1));
  }
  const double calib_end = CalibrationMedianMs(5);
  const double calib_ms = (calib_start + calib_end) / 2;
  std::printf("# env.calib_ms start %.4f end %.4f\n", calib_start, calib_end);
  {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    std::printf("# page faults minor %ld major %ld\n", usage.ru_minflt, usage.ru_majflt);
  }

  std::vector<Metric> e2e = EndToEnd(untraced);
  PrintDiagnostics(e2e);
  PrintDiagnostics(QueryLatency(cfg, untraced));
  PrintDiagnostics(WriteDiagnostics(untraced));
  for (size_t b = 0; b < kBlocks; ++b) {
    const Block& blk = untraced.total.blocks[b];
    std::printf("# block %zu: query_p50_ms %.4f plain_query_p50_ms %.4f fresh_p50_ms %.4f "
                "(n=%zu/%zu/%zu)\n",
                b, blk.query_ms.Percentile(50), blk.plain_ms.Percentile(50),
                blk.fresh_ms.Percentile(50), blk.query_ms.size(), blk.plain_ms.size(),
                blk.fresh_ms.size());
  }
  for (size_t i = 0; i < kNumTemplates; ++i) {
    const Samples& t = untraced.total.template_ms[i];
    const Samples& x = untraced.total.speedup[i];
    std::printf("# query_ms.%s p10 %.4f p25 %.4f p50 %.4f p75 %.4f p90 %.4f n=%zu; "
                "speedup p50 %.4f n=%zu\n",
                kTemplateNames[i], t.Percentile(10), t.Percentile(25), t.Percentile(50),
                t.Percentile(75), t.Percentile(90), t.size(), x.Percentile(50), x.size());
  }
  PassResult& result = traced ? *traced : untraced;
  std::map<std::string, SpanTotals> spans;
  if (traced) spans = Summarize(TracersOf(*traced));
  PrintDiagnostics(AsyncDiagnostics(result, traced ? &spans : nullptr));
  if (!result.total.first_failure.empty() || untraced.total.failed > 0) {
    std::printf("# first failure: %s\n", untraced.total.failed > 0
                                             ? untraced.total.first_failure.c_str()
                                             : result.total.first_failure.c_str());
  }
  if (!traced) {
    PrintResult(untraced, e2e);
    return untraced.total.failed == 0 ? 0 : 1;
  }
  PrintDecomposition(*traced);
  std::vector<Metric> layers = PerLayer(*traced, untraced, spans, calib_ms);
  PrintDiagnostics(layers);
  if (!args.trace_out.empty()) {
    if (!WriteSpans(args.trace_out, TracersOf(*traced))) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  }
  // Correctness covers both passes.
  traced->total.attempted += untraced.total.attempted;
  traced->total.failed += untraced.total.failed;
  PrintResult(*traced, layers);
  return traced->total.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace impbench

int main(int argc, char** argv) { return impbench::Main(argc, argv); }
