// Scalar expressions over tuples: literals, column references, arithmetic,
// comparisons, boolean connectives and BETWEEN.
//
// Expressions are immutable trees shared via shared_ptr. Column references
// are bound to positional indices of the input schema by the binder; the
// executor and incremental operators evaluate them directly against tuples.
// "Template mode" printing replaces literals with '?' — this implements the
// query templates IMP uses to key its sketch store (Sec. 7.1).

#ifndef IMP_EXPR_EXPR_H_
#define IMP_EXPR_EXPR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/tuple.h"

namespace imp {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class ExprKind : uint8_t { kLiteral, kColumnRef, kBinary, kUnary, kBetween };

enum class BinaryOp : uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,            // arithmetic
  kEq, kNe, kLt, kLe, kGt, kGe,            // comparison
  kAnd, kOr,                               // boolean
};

enum class UnaryOp : uint8_t { kNot, kNeg };

/// Printable operator symbol ("+", "<=", "AND", ...).
const char* BinaryOpSymbol(BinaryOp op);

/// True for comparison operators (their operands' literals are the ones
/// replaced by placeholders in query templates).
bool IsComparison(BinaryOp op);

/// Abstract immutable expression node.
class Expr {
 public:
  virtual ~Expr() = default;

  ExprKind kind() const { return kind_; }
  /// Static result type inferred at construction time.
  ValueType result_type() const { return result_type_; }

  /// Evaluate against a row of the (bound) input schema.
  virtual Value Eval(const Tuple& row) const = 0;

  /// Render; with `templated` literals print as '?'.
  virtual std::string ToString(bool templated = false) const = 0;

  /// Append the indices of all referenced columns to `out`.
  virtual void CollectColumns(std::vector<size_t>* out) const = 0;

  /// Rewrite column indices: new_index = mapping[old_index]; mapping entries
  /// of -1 are illegal to reference. Used when predicates are pushed across
  /// operators whose output schema reorders columns.
  virtual ExprPtr RemapColumns(const std::vector<int>& mapping) const = 0;

 protected:
  Expr(ExprKind kind, ValueType result_type)
      : kind_(kind), result_type_(result_type) {}

 private:
  ExprKind kind_;
  ValueType result_type_;
};

/// Constant value.
class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value value)
      : Expr(ExprKind::kLiteral, value.type()), value_(std::move(value)) {}

  const Value& value() const { return value_; }

  Value Eval(const Tuple&) const override { return value_; }
  std::string ToString(bool templated) const override {
    return templated ? "?" : value_.ToString();
  }
  void CollectColumns(std::vector<size_t>*) const override {}
  ExprPtr RemapColumns(const std::vector<int>&) const override;

 private:
  Value value_;
};

/// Positional reference into the input schema; keeps the resolved name for
/// printing.
class ColumnRefExpr final : public Expr {
 public:
  ColumnRefExpr(size_t index, std::string name, ValueType type)
      : Expr(ExprKind::kColumnRef, type), index_(index), name_(std::move(name)) {}

  size_t index() const { return index_; }
  const std::string& name() const { return name_; }

  Value Eval(const Tuple& row) const override {
    IMP_DCHECK(index_ < row.size());
    return row[index_];
  }
  std::string ToString(bool) const override { return name_; }
  void CollectColumns(std::vector<size_t>* out) const override {
    out->push_back(index_);
  }
  ExprPtr RemapColumns(const std::vector<int>& mapping) const override;

 private:
  size_t index_;
  std::string name_;
};

/// Binary operator node.
class BinaryExpr final : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right);

  BinaryOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  Value Eval(const Tuple& row) const override;
  std::string ToString(bool templated) const override;
  void CollectColumns(std::vector<size_t>* out) const override {
    left_->CollectColumns(out);
    right_->CollectColumns(out);
  }
  ExprPtr RemapColumns(const std::vector<int>& mapping) const override;

 private:
  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// Unary operator node (NOT, unary minus).
class UnaryExpr final : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr child);

  UnaryOp op() const { return op_; }
  const ExprPtr& child() const { return child_; }

  Value Eval(const Tuple& row) const override;
  std::string ToString(bool templated) const override;
  void CollectColumns(std::vector<size_t>* out) const override {
    child_->CollectColumns(out);
  }
  ExprPtr RemapColumns(const std::vector<int>& mapping) const override;

 private:
  UnaryOp op_;
  ExprPtr child_;
};

/// `input BETWEEN lo AND hi` — inclusive both ends. This is the condition
/// shape the use-rewrite emits for sketch ranges (Sec. 1).
class BetweenExpr final : public Expr {
 public:
  BetweenExpr(ExprPtr input, ExprPtr lo, ExprPtr hi);

  const ExprPtr& input() const { return input_; }
  const ExprPtr& lo() const { return lo_; }
  const ExprPtr& hi() const { return hi_; }

  Value Eval(const Tuple& row) const override;
  std::string ToString(bool templated) const override;
  void CollectColumns(std::vector<size_t>* out) const override {
    input_->CollectColumns(out);
    lo_->CollectColumns(out);
    hi_->CollectColumns(out);
  }
  ExprPtr RemapColumns(const std::vector<int>& mapping) const override;

 private:
  ExprPtr input_;
  ExprPtr lo_;
  ExprPtr hi_;
};

// ---- Factory helpers ------------------------------------------------------

ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumnRef(size_t index, std::string name, ValueType type);
ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right);
ExprPtr MakeUnary(UnaryOp op, ExprPtr child);
ExprPtr MakeBetween(ExprPtr input, ExprPtr lo, ExprPtr hi);
/// Conjunction of `terms` (nullptr / empty => always-true literal 1).
ExprPtr MakeConjunction(std::vector<ExprPtr> terms);
/// Disjunction of `terms` (empty => always-false literal 0).
ExprPtr MakeDisjunction(std::vector<ExprPtr> terms);
/// Append the operands of the `op` chain rooted at `e` (AND or OR) to
/// `out`, left to right; `e` itself when it is not an `op` node.
void FlattenSameOp(const ExprPtr& e, BinaryOp op, std::vector<ExprPtr>* out);

/// Wrap an expression as a bool(const Tuple&) predicate.
std::function<bool(const Tuple&)> ExprPredicate(ExprPtr expr);

}  // namespace imp

#endif  // IMP_EXPR_EXPR_H_
