#include "exec/vector_kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

#include "exec/zone_filter.h"

namespace imp {

// ---- Compiled tree --------------------------------------------------------

struct KernelNode {
  enum class Kind : uint8_t {
    kConst,     // constant boolean (folded literals, null-literal compares)
    kCmp,       // column <op> literal
    kRangeSet,  // column in a union of ranges: a single-column AND / OR /
                // NOT / BETWEEN tree reduced by ExtractColumnRanges
    kAnd,
    kOr,
    kNot,
  };

  Kind kind;
  bool const_val = false;          // kConst
  BinaryOp op = BinaryOp::kEq;     // kCmp
  size_t col = 0;                  // kCmp / kRangeSet
  Value lit;                       // kCmp literal
  std::vector<ValueRange> ranges;  // kRangeSet (sorted, disjoint)
  bool null_match = false;         // kRangeSet verdict on a NULL cell
  bool nan_match = false;          // kRangeSet verdict on a NaN cell
  std::vector<std::unique_ptr<KernelNode>> children;  // kAnd / kOr / kNot
};

namespace {

using NodePtr = std::unique_ptr<KernelNode>;

NodePtr MakeConst(bool v) {
  auto n = std::make_unique<KernelNode>();
  n->kind = KernelNode::Kind::kConst;
  n->const_val = v;
  return n;
}

/// l <op> r  <=>  r <mirror(op)> l, for the lit-op-col orientation.
BinaryOp MirrorCmp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

bool ApplyCmp(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq: return c == 0;
    case BinaryOp::kNe: return c != 0;
    case BinaryOp::kLt: return c < 0;
    case BinaryOp::kLe: return c <= 0;
    case BinaryOp::kGt: return c > 0;
    case BinaryOp::kGe: return c >= 0;
    default: return false;
  }
}

NodePtr MakeCmp(BinaryOp op, size_t col, const Value& lit) {
  // A NULL literal makes every comparison false (SQL UNKNOWN-as-false).
  if (lit.is_null()) return MakeConst(false);
  auto n = std::make_unique<KernelNode>();
  n->kind = KernelNode::Kind::kCmp;
  n->op = op;
  n->col = col;
  n->lit = lit;
  return n;
}

/// Fold constant children out of an AND (`is_and`) or OR node.
NodePtr FoldBool(std::vector<NodePtr> children, bool is_and) {
  std::vector<NodePtr> kept;
  for (NodePtr& c : children) {
    if (c->kind == KernelNode::Kind::kConst) {
      if (c->const_val != is_and) return MakeConst(!is_and);  // absorbing
      continue;  // the identity element is a no-op
    }
    kept.push_back(std::move(c));
  }
  if (kept.empty()) return MakeConst(is_and);
  if (kept.size() == 1) return std::move(kept[0]);
  auto n = std::make_unique<KernelNode>();
  n->kind = is_and ? KernelNode::Kind::kAnd : KernelNode::Kind::kOr;
  n->children = std::move(kept);
  return n;
}

/// One range-set leaf for a single-column subtree that reduced to `cr`,
/// its NULL and NaN verdicts included.
NodePtr MakeRangeSet(ColumnRanges cr) {
  if (cr.ranges.empty() && !cr.nulls && !cr.nans) return MakeConst(false);
  if (cr.ranges.size() == 1 && !cr.ranges[0].lo.has && !cr.ranges[0].hi.has &&
      cr.nulls && cr.nans) {
    return MakeConst(true);
  }
  auto n = std::make_unique<KernelNode>();
  n->kind = KernelNode::Kind::kRangeSet;
  n->col = cr.col;
  n->ranges = std::move(cr.ranges);
  n->null_match = cr.nulls;
  n->nan_match = cr.nans;
  return n;
}

/// Compile one (sub)expression into a kernel node, or nullptr when the
/// shape is unsupported (column-vs-column compares, arithmetic, truthy
/// column tests, ...): those fall back to scalar Expr::Eval. Any AND / OR /
/// NOT / BETWEEN subtree over one column becomes a single range-set leaf;
/// a bare comparison stays a kCmp leaf.
NodePtr CompileNode(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kLiteral:
      return MakeConst(static_cast<const LiteralExpr&>(e).value().IsTrue());
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(e);
      if (bin.op() == BinaryOp::kAnd || bin.op() == BinaryOp::kOr) {
        if (auto cr = ExtractColumnRanges(e)) {
          return MakeRangeSet(std::move(*cr));
        }
        std::vector<ExprPtr> terms;
        FlattenSameOp(bin.left(), bin.op(), &terms);
        FlattenSameOp(bin.right(), bin.op(), &terms);
        std::vector<NodePtr> children;
        children.reserve(terms.size());
        for (const ExprPtr& t : terms) {
          NodePtr c = CompileNode(*t);
          if (!c) return nullptr;  // a disjunct cannot be split off; punt
          children.push_back(std::move(c));
        }
        return FoldBool(std::move(children), bin.op() == BinaryOp::kAnd);
      }
      if (!IsComparison(bin.op())) return nullptr;
      const Expr& l = *bin.left();
      const Expr& r = *bin.right();
      if (l.kind() == ExprKind::kColumnRef && r.kind() == ExprKind::kLiteral) {
        return MakeCmp(bin.op(), static_cast<const ColumnRefExpr&>(l).index(),
                       static_cast<const LiteralExpr&>(r).value());
      }
      if (l.kind() == ExprKind::kLiteral && r.kind() == ExprKind::kColumnRef) {
        return MakeCmp(MirrorCmp(bin.op()),
                       static_cast<const ColumnRefExpr&>(r).index(),
                       static_cast<const LiteralExpr&>(l).value());
      }
      if (l.kind() == ExprKind::kLiteral && r.kind() == ExprKind::kLiteral) {
        const Value& lv = static_cast<const LiteralExpr&>(l).value();
        const Value& rv = static_cast<const LiteralExpr&>(r).value();
        if (lv.is_null() || rv.is_null()) return MakeConst(false);
        return MakeConst(ApplyCmp(bin.op(), lv.Compare(rv)));
      }
      return nullptr;
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      if (u.op() != UnaryOp::kNot) return nullptr;
      if (auto cr = ExtractColumnRanges(e)) return MakeRangeSet(std::move(*cr));
      NodePtr c = CompileNode(*u.child());
      if (!c) return nullptr;
      if (c->kind == KernelNode::Kind::kConst) return MakeConst(!c->const_val);
      auto n = std::make_unique<KernelNode>();
      n->kind = KernelNode::Kind::kNot;
      n->children.push_back(std::move(c));
      return n;
    }
    case ExprKind::kBetween:
      if (auto cr = ExtractColumnRanges(e)) return MakeRangeSet(std::move(*cr));
      return nullptr;  // non-literal bounds or a NaN bound
    default:
      return nullptr;  // bare column refs stay scalar (truthy-value tests)
  }
}

// ---- Kernel evaluation ----------------------------------------------------

/// Leaf loops templated over the column accessor so the columnar case
/// iterates a raw Value array and the row-major case strides over tuples.
template <typename At>
void EvalCmpLoop(const KernelNode& node, size_t n, const At& at,
                 BitVector* out) {
  const Value& lit = node.lit;
  const BinaryOp op = node.op;
  if (lit.is_int()) {
    // Int literals dominate the workloads; compare in-register when the
    // column value is an int too (identical to Value::Compare int/int).
    const int64_t lv = lit.AsInt();
    for (size_t i = 0; i < n; ++i) {
      const Value& v = at(i);
      int c;
      if (v.is_int()) {
        const int64_t a = v.AsInt();
        c = a < lv ? -1 : (a > lv ? 1 : 0);
      } else if (v.is_null()) {
        continue;  // NULL compares to false
      } else {
        c = v.Compare(lit);
      }
      if (ApplyCmp(op, c)) out->Set(i);
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const Value& v = at(i);
    if (v.is_null()) continue;
    if (ApplyCmp(op, v.Compare(lit))) out->Set(i);
  }
}

/// Is a value inside one of `ranges` (sorted, disjoint)? `cmp(bound)` is
/// the sign of the value's three-way comparison against a bound. Binary
/// search for the last range whose lower side admits the value, then one
/// test of its upper side.
template <typename Cmp>
bool InRanges(const std::vector<ValueRange>& ranges, const Cmp& cmp) {
  size_t lo = 0, hi = ranges.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    const RangeBound& b = ranges[mid].lo;
    const int c = b.has ? cmp(b.v) : 1;
    if (c > 0 || (c == 0 && b.inclusive)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return false;
  const RangeBound& b = ranges[lo - 1].hi;
  if (!b.has) return true;
  const int c = cmp(b.v);
  return c < 0 || (c == 0 && b.inclusive);
}

/// Range-set verdict for one boxed cell, NULL and NaN included.
bool RangeSetMatch(const KernelNode& node, const Value& v) {
  if (v.is_null()) return node.null_match;
  if (v.is_double() && std::isnan(v.AsDouble())) return node.nan_match;
  return InRanges(node.ranges, [&v](const Value& b) { return v.Compare(b); });
}

// ---- Typed columnar leaf loops --------------------------------------------
//
// One loop per ColumnVector encoding, each replicating the generic row
// semantics bit-exactly: bit i is set iff the leaf holds for the row's
// (reboxed) value under Value::Compare. Numeric literals are classified
// once per batch into an exact-int compare or a promoted-double compare —
// the two legs of Value::Compare's numeric path, including its
// NaN-compares-equal `a < b ? -1 : (a > b ? 1 : 0)` form — and string
// literals become a constant outcome (numbers < strings in the type-tag
// order).

struct NumLit {
  enum class Cls : uint8_t { kInt, kDbl, kConst };
  Cls cls = Cls::kConst;
  int64_t iv = 0;
  double dv = 0;
  int cc = 0;  ///< kConst: fixed three-way outcome for every column value
};

NumLit ClassifyNumLit(bool int_column, const Value& lit) {
  NumLit m;
  if (lit.is_string()) {
    m.cc = -1;  // numbers < strings
    return m;
  }
  if (int_column && lit.is_int()) {
    m.cls = NumLit::Cls::kInt;
    m.iv = lit.AsInt();
    return m;
  }
  m.cls = NumLit::Cls::kDbl;
  m.dv = lit.is_int() ? static_cast<double>(lit.AsInt()) : lit.AsDouble();
  return m;
}

/// Invoke fn(i, vals[i]) for every non-NULL row of a typed numeric column.
template <typename T, typename Fn>
inline void ForEachNonNull(size_t n, const T* vals, const ColumnVector& cv,
                           Fn&& fn) {
  if (cv.has_nulls()) {
    const BitVector& nulls = cv.nulls();
    for (size_t i = 0; i < n; ++i) {
      if (nulls.Test(i)) continue;
      fn(i, vals[i]);
    }
  } else {
    for (size_t i = 0; i < n; ++i) fn(i, vals[i]);
  }
}

/// OR branchless verdicts into `out` a 64-row word at a time: every lane
/// evaluates `pred` unconditionally (no data-dependent branch, so random
/// data costs no mispredicts and the compare loop auto-vectorizes), the
/// packed word is masked against the NULL bitmap wholesale, then OR-ed in.
/// NULL slots hold zeroed payloads, so reading them through `pred` is safe;
/// their verdict bits are discarded by the mask.
template <typename T, typename Pred>
inline void OrVerdictWords(size_t n, const T* vals, const ColumnVector& cv,
                           BitVector* out, const Pred& pred) {
  uint64_t* words = out->mutable_words();
  const uint64_t* null_words =
      cv.has_nulls() ? cv.nulls().words().data() : nullptr;
  const size_t full = n / 64;
  for (size_t wi = 0; wi < full; ++wi) {
    const T* v = vals + wi * 64;
    uint64_t w = 0;
    for (size_t j = 0; j < 64; ++j) {
      w |= static_cast<uint64_t>(pred(v[j])) << j;
    }
    if (null_words != nullptr) w &= ~null_words[wi];
    words[wi] |= w;
  }
  const size_t rest = n - full * 64;
  if (rest > 0) {
    const T* v = vals + full * 64;
    uint64_t w = 0;
    for (size_t j = 0; j < rest; ++j) {
      w |= static_cast<uint64_t>(pred(v[j])) << j;
    }
    if (null_words != nullptr) w &= ~null_words[full];
    words[full] |= w;
  }
}

/// The range set as inclusive [lo, hi] spans of the column's own payload
/// type, sorted and disjoint: exclusive sides step to the adjacent value,
/// unbounded sides become the type's extremes, and string bounds lie above
/// every number. False when a bound has no exact counterpart in T (a
/// double bound against an int column); the caller then probes boxed.
template <typename T>
bool TypedSpans(const std::vector<ValueRange>& ranges, std::vector<T>* lo,
                std::vector<T>* hi) {
  constexpr bool kInt = std::is_same_v<T, int64_t>;
  constexpr T kMin = kInt ? std::numeric_limits<T>::min()
                          : -std::numeric_limits<T>::infinity();
  constexpr T kMax = kInt ? std::numeric_limits<T>::max()
                          : std::numeric_limits<T>::infinity();
  auto number = [](const Value& v) -> T {
    if constexpr (kInt) {
      return v.AsInt();
    } else {
      return v.ToDouble();
    }
  };
  for (const ValueRange& r : ranges) {
    T l = kMin, h = kMax;
    if (r.lo.has) {
      if (r.lo.v.is_string()) break;  // this and every later range
      if (kInt && !r.lo.v.is_int()) return false;
      l = number(r.lo.v);
      if (!r.lo.inclusive) {
        if (l == kMax) continue;
        l = kInt ? l + 1 : std::nextafter(l, kMax);
      }
    }
    if (r.hi.has && !r.hi.v.is_string()) {
      if (kInt && !r.hi.v.is_int()) return false;
      h = number(r.hi.v);
      if (!r.hi.inclusive) {
        if (h == kMin) continue;
        h = kInt ? h - 1 : std::nextafter(h, kMin);
      }
    }
    if (l > h) continue;
    lo->push_back(l);
    hi->push_back(h);
  }
  return true;
}

/// The column's zone [min, max] in its payload type, NaN cells left out;
/// false when the column holds no non-NULL, non-NaN cell.
template <typename T>
bool TypedZone(const ColumnVector& cv, T* mn, T* mx) {
  Value a, b;
  if (!cv.MinMax(&a, &b)) return false;
  if constexpr (std::is_same_v<T, int64_t>) {
    *mn = a.AsInt();
    *mx = b.AsInt();
  } else {
    *mn = a.AsDouble();
    *mx = b.AsDouble();
  }
  return true;
}

/// Is `a` inside one of k >= 1 sorted, disjoint [lo, hi] spans? A
/// branchless binary search (its trip count depends on k only) finds the
/// last span whose lo <= a, then one test of its hi. False for NaN.
template <typename T>
inline bool InSpans(const T* lo, const T* hi, size_t k, T a) {
  const T* base = lo;
  for (size_t len = k; len > 1;) {
    const size_t half = len / 2;
    base = base[half] <= a ? base + half : base;
    len -= half;
  }
  return (*base <= a) & (a <= hi[base - lo]);
}

/// Range-set leaf over boxed cells (row-major blocks, boxed-fallback
/// columns). The spans convert to int64 once per batch, so int cells
/// compare in-register through InSpans; other cells, and every cell when a
/// bound has no exact int counterpart, take the boxed probe.
template <typename At>
void EvalRangeSetBoxed(const KernelNode& node, size_t n, const At& at,
                       BitVector* out) {
  std::vector<int64_t> lo, hi;
  const bool int_spans = TypedSpans(node.ranges, &lo, &hi);
  const size_t k = lo.size();
  for (size_t i = 0; i < n; ++i) {
    const Value& v = at(i);
    const bool match =
        int_spans && v.is_int()
            ? k > 0 && InSpans(lo.data(), hi.data(), k, v.AsInt())
            : RangeSetMatch(node, v);
    if (match) out->Set(i);
  }
}

template <typename At>
void EvalLeaf(const KernelNode& node, size_t n, const At& at, BitVector* out) {
  switch (node.kind) {
    case KernelNode::Kind::kCmp:
      EvalCmpLoop(node, n, at, out);
      return;
    case KernelNode::Kind::kRangeSet:
      EvalRangeSetBoxed(node, n, at, out);
      return;
    default:
      IMP_DCHECK(false);
  }
}

/// Range-set leaf over a typed numeric column, at a cost that follows the
/// spans the chunk can hold. The spans are clipped to the chunk's zone
/// first: when none is left no number matches, and when one covers the
/// whole zone every number does — neither compares a row against a bound.
/// Up to two surviving spans are swept one after the other; more are
/// probed per row by InSpans, O(rows * log spans). NaN cells lie in no
/// span and take the compiled NaN verdict.
template <typename T>
void EvalRangeSetNumeric(const KernelNode& node, size_t n, const T* vals,
                         const ColumnVector& cv, BitVector* out) {
  constexpr bool kInt = std::is_same_v<T, int64_t>;
  std::vector<T> lo, hi;
  if (!TypedSpans(node.ranges, &lo, &hi)) {
    ForEachNonNull(n, vals, cv, [&](size_t i, T a) {
      if constexpr (kInt) {
        if (RangeSetMatch(node, Value::Int(a))) out->Set(i);
      }
    });
    return;
  }
  const T* l = lo.data();
  const T* h = hi.data();
  size_t k = lo.size();
  bool covers_zone = false;
  T mn = 0, mx = 0;
  if (TypedZone(cv, &mn, &mx)) {
    const size_t b = std::lower_bound(hi.begin(), hi.end(), mn) - hi.begin();
    const size_t e = std::upper_bound(lo.begin(), lo.end(), mx) - lo.begin();
    l += b;
    h += b;
    k = e > b ? e - b : 0;
    covers_zone = k == 1 && l[0] <= mn && h[0] >= mx;
  }
  const bool nan = !kInt && node.nan_match;
  if (covers_zone) {
    if (nan || kInt) {
      OrVerdictWords(n, vals, cv, out, [](T) { return true; });
    } else {
      OrVerdictWords(n, vals, cv, out, [](T a) { return a == a; });
    }
    return;
  }
  if (k <= 2) {
    for (size_t s = 0; s < k; ++s) {
      const T sl = l[s], sh = h[s];
      OrVerdictWords(n, vals, cv, out,
                     [sl, sh](T a) { return a >= sl && a <= sh; });
    }
    if (nan) OrVerdictWords(n, vals, cv, out, [](T a) { return a != a; });
    return;
  }
  OrVerdictWords(n, vals, cv, out, [l, h, k, nan](T a) {
    return InSpans(l, h, k, a) | (nan & (a != a));
  });
}

template <typename T>
void EvalLeafNumeric(const KernelNode& node, size_t n, const T* vals,
                     const ColumnVector& cv, BitVector* out) {
  if (node.kind == KernelNode::Kind::kRangeSet) {
    EvalRangeSetNumeric(node, n, vals, cv, out);
    return;
  }
  IMP_DCHECK(node.kind == KernelNode::Kind::kCmp);
  constexpr bool kIntCol = std::is_same_v<T, int64_t>;
  const NumLit m = ClassifyNumLit(kIntCol, node.lit);
  const BinaryOp op = node.op;
  if (m.cls == NumLit::Cls::kInt) {
    // The dominant shape: unboxed int64 exact compare vs an int
    // literal, one branchless sweep per op.
    const int64_t lv = m.iv;
    switch (op) {
      case BinaryOp::kEq:
        OrVerdictWords(n, vals, cv, out, [lv](T a) { return a == lv; });
        return;
      case BinaryOp::kNe:
        OrVerdictWords(n, vals, cv, out, [lv](T a) { return a != lv; });
        return;
      case BinaryOp::kLt:
        OrVerdictWords(n, vals, cv, out, [lv](T a) { return a < lv; });
        return;
      case BinaryOp::kLe:
        OrVerdictWords(n, vals, cv, out, [lv](T a) { return a <= lv; });
        return;
      case BinaryOp::kGt:
        OrVerdictWords(n, vals, cv, out, [lv](T a) { return a > lv; });
        return;
      case BinaryOp::kGe:
        OrVerdictWords(n, vals, cv, out, [lv](T a) { return a >= lv; });
        return;
      default:
        return;  // only comparisons compile to kCmp
    }
  }
  if (m.cls == NumLit::Cls::kDbl) {
    // Value::Compare's promoted-double three-way treats NaN as equal
    // to everything (`a < b ? -1 : (a > b ? 1 : 0)`), so each op is
    // phrased through !(a < lit) / !(a > lit), never operator==.
    const double dv = m.dv;
    switch (op) {
      case BinaryOp::kEq:
        OrVerdictWords(n, vals, cv, out, [dv](T a) {
          const double ad = static_cast<double>(a);
          return !(ad < dv) && !(ad > dv);
        });
        return;
      case BinaryOp::kNe:
        OrVerdictWords(n, vals, cv, out, [dv](T a) {
          const double ad = static_cast<double>(a);
          return (ad < dv) || (ad > dv);
        });
        return;
      case BinaryOp::kLt:
        OrVerdictWords(n, vals, cv, out, [dv](T a) {
          return static_cast<double>(a) < dv;
        });
        return;
      case BinaryOp::kLe:
        OrVerdictWords(n, vals, cv, out, [dv](T a) {
          return !(static_cast<double>(a) > dv);
        });
        return;
      case BinaryOp::kGt:
        OrVerdictWords(n, vals, cv, out, [dv](T a) {
          return static_cast<double>(a) > dv;
        });
        return;
      case BinaryOp::kGe:
        OrVerdictWords(n, vals, cv, out, [dv](T a) {
          return !(static_cast<double>(a) < dv);
        });
        return;
      default:
        return;
    }
  }
  // kConst: the type-tag order fixes one outcome for the whole batch —
  // every non-NULL row matches, or none does.
  if (ApplyCmp(op, m.cc)) {
    OrVerdictWords(n, vals, cv, out, [](T) { return true; });
  }
}

/// Sign of Value(string v).Compare(lit).
inline int CmpStrLit(std::string_view v, const Value& lit) {
  if (!lit.is_string()) return 1;  // strings > numbers
  const std::string& s = lit.AsString();
  const int c = v.compare(std::string_view(s.data(), s.size()));
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

/// Leaf verdict for one non-NULL string cell (dict-distinct or flat row).
bool LeafMatchString(const KernelNode& node, std::string_view v) {
  if (node.kind == KernelNode::Kind::kRangeSet) {
    return InRanges(node.ranges,
                    [v](const Value& b) { return CmpStrLit(v, b); });
  }
  IMP_DCHECK(node.kind == KernelNode::Kind::kCmp);
  return ApplyCmp(node.op, CmpStrLit(v, node.lit));
}

void EvalLeafDict(const KernelNode& node, size_t n, const ColumnVector& cv,
                  BitVector* out) {
  // One verdict per distinct string, then an unboxed code loop — the
  // comparison cost is O(dictionary), not O(rows).
  const size_t dict = cv.dict_size();
  std::vector<char> verdict(dict);
  for (uint32_t code = 0; code < dict; ++code) {
    verdict[code] = LeafMatchString(node, cv.DictString(code)) ? 1 : 0;
  }
  const uint32_t* codes = cv.codes();
  if (cv.has_nulls()) {
    const BitVector& nulls = cv.nulls();
    for (size_t i = 0; i < n; ++i) {
      if (!nulls.Test(i) && verdict[codes[i]]) out->Set(i);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (verdict[codes[i]]) out->Set(i);
    }
  }
}

void EvalLeafColumnar(const KernelNode& node, size_t n, const ColumnVector& cv,
                      BitVector* out) {
  // The typed loops below skip NULL cells; a range set that admits NULL
  // (a NOT above its comparisons) takes them from the null bitmap, which
  // every typed encoding keeps, the untyped all-NULL one included.
  if (node.kind == KernelNode::Kind::kRangeSet && node.null_match &&
      cv.has_nulls()) {
    out->UnionWith(cv.nulls());
  }
  switch (cv.encoding()) {
    case ColumnVector::Encoding::kBoxed: {
      const Value* col = cv.boxed().data();
      EvalLeaf(node, n, [col](size_t i) -> const Value& { return col[i]; },
               out);
      return;
    }
    case ColumnVector::Encoding::kUntyped:
      return;  // every cell is NULL: handled above
    case ColumnVector::Encoding::kInt64:
      EvalLeafNumeric(node, n, cv.ints(), cv, out);
      return;
    case ColumnVector::Encoding::kDouble:
      EvalLeafNumeric(node, n, cv.doubles(), cv, out);
      return;
    case ColumnVector::Encoding::kDictString:
      EvalLeafDict(node, n, cv, out);
      return;
    case ColumnVector::Encoding::kFlatString:
      if (cv.has_nulls()) {
        const BitVector& nulls = cv.nulls();
        for (size_t i = 0; i < n; ++i) {
          if (!nulls.Test(i) && LeafMatchString(node, cv.StringAt(i))) {
            out->Set(i);
          }
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          if (LeafMatchString(node, cv.StringAt(i))) out->Set(i);
        }
      }
      return;
  }
}

/// Evaluate `node` over the whole block. `out` has block.num_rows() bits,
/// all zero on entry; matching rows get their bit set.
void EvalNode(const KernelNode& node, const RowBlock& block, BitVector* out) {
  const size_t n = block.num_rows();
  switch (node.kind) {
    case KernelNode::Kind::kConst:
      if (node.const_val) out->SetAll();
      return;
    case KernelNode::Kind::kAnd: {
      EvalNode(*node.children[0], block, out);
      BitVector scratch(n);
      for (size_t i = 1; i < node.children.size(); ++i) {
        if (out->None()) return;  // conjunction already empty
        scratch.ClearAll();
        EvalNode(*node.children[i], block, &scratch);
        out->IntersectWith(scratch);
      }
      return;
    }
    case KernelNode::Kind::kOr: {
      BitVector scratch(n);
      for (const NodePtr& c : node.children) {
        scratch.ClearAll();
        EvalNode(*c, block, &scratch);
        out->UnionWith(scratch);
      }
      return;
    }
    case KernelNode::Kind::kNot:
      EvalNode(*node.children[0], block, out);
      out->FlipAll();
      return;
    default:
      if (block.columnar()) {
        EvalLeafColumnar(node, n, block.chunk()->column(node.col), out);
      } else {
        const size_t c = node.col;
        EvalLeaf(node, n,
                 [&block, c](size_t i) -> const Value& { return block.row(i)[c]; },
                 out);
      }
      return;
  }
}

}  // namespace

// ---- PredicateKernel ------------------------------------------------------

PredicateKernel::PredicateKernel() = default;
PredicateKernel::~PredicateKernel() = default;
PredicateKernel::PredicateKernel(PredicateKernel&&) noexcept = default;
PredicateKernel& PredicateKernel::operator=(PredicateKernel&&) noexcept =
    default;

PredicateKernel PredicateKernel::Compile(const ExprPtr& expr) {
  PredicateKernel k;
  k.expr_ = expr;
  if (!expr) return k;

  // Split the top-level conjunction: compiled conjuncts run as kernels,
  // the rest re-conjoin into a scalar remainder evaluated on survivors.
  // Conjuncts that reduce to ranges over the same column are re-joined
  // first, so they compile to one range-set leaf (a scan filter on the
  // partition column and the sketch's ranges, or the two sides of a
  // single `lo <= a < hi` run).
  std::vector<ExprPtr> conjuncts;
  std::vector<std::pair<size_t, size_t>> range_slots;  // column -> conjunct
  std::vector<ExprPtr> flat;
  FlattenSameOp(expr, BinaryOp::kAnd, &flat);
  for (ExprPtr& c : flat) {
    std::optional<ColumnRanges> cr = ExtractColumnRanges(*c);
    if (cr) {
      auto slot = std::find_if(range_slots.begin(), range_slots.end(),
                               [&](const auto& s) { return s.first == cr->col; });
      if (slot != range_slots.end()) {
        ExprPtr& joined = conjuncts[slot->second];
        joined = MakeBinary(BinaryOp::kAnd, joined, std::move(c));
        continue;
      }
      range_slots.emplace_back(cr->col, conjuncts.size());
    }
    conjuncts.push_back(std::move(c));
  }
  std::vector<NodePtr> compiled;
  std::vector<ExprPtr> residual;
  for (const ExprPtr& c : conjuncts) {
    NodePtr node = CompileNode(*c);
    if (node) {
      compiled.push_back(std::move(node));
    } else {
      residual.push_back(c);
    }
  }
  if (!compiled.empty()) k.root_ = FoldBool(std::move(compiled), true);
  if (!residual.empty()) {
    k.scalar_ = residual.size() == 1 ? residual[0]
                                     : MakeConjunction(std::move(residual));
    std::vector<size_t> cols;
    k.scalar_->CollectColumns(&cols);
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    k.scalar_width_ = cols.empty() ? 0 : cols.back() + 1;
    k.scalar_cols_ = std::move(cols);
  }
  return k;
}

namespace {
size_t CountLeaves(const KernelNode* node, bool range_sets_only) {
  if (node == nullptr) return 0;
  switch (node->kind) {
    case KernelNode::Kind::kConst:
      return 0;
    case KernelNode::Kind::kCmp:
      return range_sets_only ? 0 : 1;
    case KernelNode::Kind::kRangeSet:
      return 1;
    default: {
      size_t leaves = 0;
      for (const NodePtr& c : node->children) {
        leaves += CountLeaves(c.get(), range_sets_only);
      }
      return leaves;
    }
  }
}
}  // namespace

size_t PredicateKernel::num_leaves() const {
  return CountLeaves(root_.get(), false);
}

size_t PredicateKernel::num_range_sets() const {
  return CountLeaves(root_.get(), true);
}

void PredicateKernel::Eval(const RowBlock& block, BitVector* sel,
                           size_t* vectorized_batches,
                           size_t* scalar_fallback_rows,
                           const BitVector* within) const {
  const size_t n = block.num_rows();
  *sel = BitVector(n);
  if (!expr_) {
    sel->SetAll();
    if (within) sel->IntersectWith(*within);
    return;
  }
  if (root_) {
    EvalNode(*root_, block, sel);
    if (vectorized_batches) ++*vectorized_batches;
  } else {
    sel->SetAll();
  }
  if (within) sel->IntersectWith(*within);
  if (!scalar_) return;

  // Scalar remainder on surviving rows only. For columnar blocks only the
  // referenced columns are materialized into a scratch tuple (unreferenced
  // positions stay NULL — Expr::Eval never reads them).
  size_t tested = 0;
  if (block.columnar()) {
    const DataChunk& chunk = *block.chunk();
    Tuple scratch(scalar_width_);
    sel->ForEachSetBit([&](size_t r) {
      for (size_t c : scalar_cols_) scratch[c] = chunk.At(r, c);
      ++tested;
      if (!scalar_->Eval(scratch).IsTrue()) sel->Reset(r);
    });
  } else {
    sel->ForEachSetBit([&](size_t r) {
      ++tested;
      if (!scalar_->Eval(block.row(r)).IsTrue()) sel->Reset(r);
    });
  }
  if (scalar_fallback_rows) *scalar_fallback_rows += tested;
}

}  // namespace imp
