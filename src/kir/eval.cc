#include "kir/eval.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"

namespace s2fa::kir {

namespace {

// Coerces a Value to the numeric domain of `type` (the IR is typed, so this
// only bridges int-width families, matching C implicit conversion).
double ToDouble(const Value& v) {
  if (v.is_int()) return v.AsInt();
  if (v.is_long()) return static_cast<double>(v.AsLong());
  if (v.is_float()) return v.AsFloat();
  return v.AsDouble();
}

std::int64_t ToInt64(const Value& v) {
  if (v.is_int()) return v.AsInt();
  if (v.is_long()) return v.AsLong();
  if (v.is_float()) return static_cast<std::int64_t>(v.AsFloat());
  return static_cast<std::int64_t>(v.AsDouble());
}

Value FromDouble(TypeKind kind, double d) {
  switch (kind) {
    case TypeKind::kFloat:
      return Value::OfFloat(static_cast<float>(d));
    case TypeKind::kDouble:
      return Value::OfDouble(d);
    case TypeKind::kLong:
      return Value::OfLong(static_cast<std::int64_t>(d));
    default:
      return Value::OfInt(static_cast<std::int32_t>(d));
  }
}

Value NarrowToKind(TypeKind kind, const Value& v) {
  switch (kind) {
    case TypeKind::kBoolean:
      return Value::OfInt(ToInt64(v) != 0 ? 1 : 0);
    case TypeKind::kByte:
      return Value::OfInt(static_cast<std::int8_t>(ToInt64(v)));
    case TypeKind::kChar:
      return Value::OfInt(static_cast<std::uint16_t>(ToInt64(v)));
    case TypeKind::kShort:
      return Value::OfInt(static_cast<std::int16_t>(ToInt64(v)));
    case TypeKind::kInt:
      return Value::OfInt(static_cast<std::int32_t>(ToInt64(v)));
    case TypeKind::kLong:
      return Value::OfLong(ToInt64(v));
    case TypeKind::kFloat:
      return Value::OfFloat(static_cast<float>(ToDouble(v)));
    case TypeKind::kDouble:
      return Value::OfDouble(ToDouble(v));
    default:
      throw InternalError("bad element type in evaluator");
  }
}

Value NarrowToElement(const Type& type, const Value& v) {
  return NarrowToKind(type.kind(), v);
}

// Comparison with exact integral semantics: two longs must compare by
// value, not by their nearest double (above 2^53 adjacent longs collapse
// to the same double and used to compare equal).
bool CompareValues(BinaryOp op, bool integral, const Value& a,
                   const Value& b) {
  if (integral) {
    const std::int64_t x = ToInt64(a);
    const std::int64_t y = ToInt64(b);
    switch (op) {
      case BinaryOp::kLt: return x < y;
      case BinaryOp::kLe: return x <= y;
      case BinaryOp::kGt: return x > y;
      case BinaryOp::kGe: return x >= y;
      case BinaryOp::kEq: return x == y;
      case BinaryOp::kNe: return x != y;
      default: return false;
    }
  }
  const double x = ToDouble(a);
  const double y = ToDouble(b);
  switch (op) {
    case BinaryOp::kLt: return x < y;
    case BinaryOp::kLe: return x <= y;
    case BinaryOp::kGt: return x > y;
    case BinaryOp::kGe: return x >= y;
    case BinaryOp::kEq: return x == y;
    case BinaryOp::kNe: return x != y;
    default: return false;
  }
}

// Floating binary arithmetic in the operand precision. min/max follow Java
// semantics (jvm::JavaFMin/JavaFMax): NaN propagates and -0.0 < +0.0,
// matching the Math.min/max bytecode these ops were compiled from.
template <typename T>
T ApplyFloatBin(BinaryOp op, T x, T y) {
  switch (op) {
    case BinaryOp::kAdd: return x + y;
    case BinaryOp::kSub: return x - y;
    case BinaryOp::kMul: return x * y;
    case BinaryOp::kDiv: return x / y;
    case BinaryOp::kRem: return std::fmod(x, y);
    case BinaryOp::kMin: return jvm::JavaFMin(x, y);
    case BinaryOp::kMax: return jvm::JavaFMax(x, y);
    default:
      throw InternalError("bitwise op on float in evaluator");
  }
}

std::int64_t ApplyIntBin(BinaryOp op, bool wide, std::int64_t x,
                         std::int64_t y) {
  switch (op) {
    case BinaryOp::kAdd: return x + y;
    case BinaryOp::kSub: return x - y;
    case BinaryOp::kMul: return x * y;
    case BinaryOp::kDiv:
      S2FA_REQUIRE(y != 0, "division by zero in kernel");
      return x / y;
    case BinaryOp::kRem:
      S2FA_REQUIRE(y != 0, "remainder by zero in kernel");
      return x % y;
    case BinaryOp::kShl: return x << (y & (wide ? 63 : 31));
    case BinaryOp::kShr: return x >> (y & (wide ? 63 : 31));
    case BinaryOp::kUShr:
      if (wide) {
        return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) >>
                                         (y & 63));
      }
      return static_cast<std::int32_t>(
          static_cast<std::uint32_t>(static_cast<std::int32_t>(x)) >>
          (y & 31));
    case BinaryOp::kAnd: return x & y;
    case BinaryOp::kOr: return x | y;
    case BinaryOp::kXor: return x ^ y;
    case BinaryOp::kMin: return std::min(x, y);
    case BinaryOp::kMax: return std::max(x, y);
    default:
      throw InternalError("unhandled int binop");
  }
}

Value ApplyIntrinsic(Intrinsic fn, TypeKind result, double x, double y) {
  if (result == TypeKind::kFloat) {
    // Match C's f-suffixed functions: compute in float.
    float fx = static_cast<float>(x);
    float fy = static_cast<float>(y);
    switch (fn) {
      case Intrinsic::kExp: return Value::OfFloat(std::exp(fx));
      case Intrinsic::kLog: return Value::OfFloat(std::log(fx));
      case Intrinsic::kSqrt: return Value::OfFloat(std::sqrt(fx));
      case Intrinsic::kAbs: return Value::OfFloat(std::fabs(fx));
      case Intrinsic::kPow: return Value::OfFloat(std::pow(fx, fy));
    }
    S2FA_UNREACHABLE("bad intrinsic");
  }
  auto compute = [&]() -> double {
    switch (fn) {
      case Intrinsic::kExp: return std::exp(x);
      case Intrinsic::kLog: return std::log(x);
      case Intrinsic::kSqrt: return std::sqrt(x);
      case Intrinsic::kAbs: return std::fabs(x);
      case Intrinsic::kPow: return std::pow(x, y);
    }
    S2FA_UNREACHABLE("bad intrinsic");
  };
  return FromDouble(result, compute());
}

Value ApplyUnary(UnaryOp op, TypeKind operand, const Value& a) {
  switch (op) {
    case UnaryOp::kNeg:
      if (operand == TypeKind::kFloat) {
        return Value::OfFloat(-static_cast<float>(ToDouble(a)));
      }
      if (operand == TypeKind::kDouble) {
        return Value::OfDouble(-ToDouble(a));
      }
      if (operand == TypeKind::kLong) return Value::OfLong(-ToInt64(a));
      return Value::OfInt(static_cast<std::int32_t>(-ToInt64(a)));
    case UnaryOp::kBitNot:
      if (operand == TypeKind::kLong) return Value::OfLong(~ToInt64(a));
      return Value::OfInt(static_cast<std::int32_t>(~ToInt64(a)));
    case UnaryOp::kLogicalNot:
      return Value::OfInt(ToInt64(a) == 0 ? 1 : 0);
  }
  S2FA_UNREACHABLE("bad unary op");
}

}  // namespace

// --------------------------------------------------------------------------
// TaskSpan: the live-task contract.
// --------------------------------------------------------------------------

TaskSpan::TaskSpan(const Kernel& kernel) {
  if (!kernel.body || kernel.task_loop_id < 0) return;
  loop_ = FindLoop(kernel.body, kernel.task_loop_id);
  if (loop_ == nullptr) return;
  // The template batch is the row count of the per-task interface buffers
  // (broadcast inputs and reduce outputs hold one row, so take the max).
  std::int64_t batch = 0;
  for (const auto& b : kernel.buffers) {
    if (b.kind == BufferKind::kLocal || b.per_task <= 0) continue;
    batch = std::max(batch, b.length / b.per_task);
  }
  const std::int64_t trip = loop_->trip_count();
  batch_ = std::max(batch, trip);
  if (batch % trip != 0) return;
  // One task per iteration (the b2c template), or one tile per iteration
  // after Merlin tiling: the body is then exactly the point loop.
  const std::int64_t per_iter = batch / trip;
  const Stmt& body = *loop_->body();
  const bool tiled = body.kind() == StmtKind::kBlock &&
                     body.stmts().size() == 1 &&
                     body.stmts()[0]->kind() == StmtKind::kFor &&
                     body.stmts()[0]->trip_count() == per_iter;
  if (per_iter == 1 || tiled) tasks_per_iter_ = per_iter;
}

std::int64_t TaskSpan::Iterations(
    std::optional<std::int64_t> live_tasks) const {
  if (loop_ == nullptr) return 0;
  if (!live_tasks || tasks_per_iter_ == 0) return loop_->trip_count();
  S2FA_REQUIRE(*live_tasks >= 0 && *live_tasks <= batch_,
               "live tasks " << *live_tasks << " outside [0, " << batch_
                             << "]");
  return (*live_tasks + tasks_per_iter_ - 1) / tasks_per_iter_;
}

std::int64_t TaskSpan::LiveRows(std::int64_t live_tasks) const {
  if (tasks_per_iter_ == 0) return batch_;
  return Iterations(live_tasks) * tasks_per_iter_;
}

// --------------------------------------------------------------------------
// Evaluator: slot-resolved hot path.
// --------------------------------------------------------------------------

Evaluator::Evaluator(const Kernel& kernel) : kernel_(kernel), span_(kernel) {
  kernel.Validate();
  for (std::size_t i = 0; i < kernel_.buffers.size(); ++i) {
    // Buffer names are unique (Validate), so id == declaration index.
    buffer_id_by_name_.emplace(kernel_.buffers[i].name,
                               static_cast<std::int32_t>(i));
  }
  bufs_.assign(kernel_.buffers.size(), nullptr);
  scalar_slots_.reserve(kernel_.scalars.size());
  for (const auto& s : kernel_.scalars) {
    scalar_slots_.push_back(VarSlot(s.name));
  }
  root_ = CompileStmt(*kernel_.body);
  slots_.assign(var_names_.size(), Value());
  bound_.assign(var_names_.size(), 0);
}

std::int32_t Evaluator::VarSlot(const std::string& name) {
  auto it = var_slots_.find(name);
  if (it != var_slots_.end()) return it->second;
  const auto slot = static_cast<std::int32_t>(var_names_.size());
  var_names_.push_back(name);
  var_slots_.emplace(name, slot);
  return slot;
}

std::int32_t Evaluator::CompileExpr(const ExprPtr& expr) {
  const Expr& e = *expr;
  RExpr r;
  r.kind = e.kind();
  r.type = e.type().kind();
  switch (e.kind()) {
    case ExprKind::kIntLit:
      r.lit = r.type == TypeKind::kLong
                  ? Value::OfLong(e.int_value())
                  : Value::OfInt(static_cast<std::int32_t>(e.int_value()));
      break;
    case ExprKind::kFloatLit:
      r.lit = FromDouble(r.type, e.float_value());
      break;
    case ExprKind::kVar:
      r.slot = VarSlot(e.name());
      break;
    case ExprKind::kArrayRef:
      // Validate() guarantees the buffer is declared.
      r.slot = buffer_id_by_name_.at(e.name());
      r.a = CompileExpr(e.operands()[0]);
      break;
    case ExprKind::kBinary: {
      r.a = CompileExpr(e.operands()[0]);
      r.b = CompileExpr(e.operands()[1]);
      r.bop = e.binary_op();
      const Type& t = e.operands()[0]->type();
      r.opnd = t.kind();
      if (IsComparison(r.bop)) {
        r.form = t.is_integral() ? BinForm::kCmpInt : BinForm::kCmpFloat;
      } else if (r.bop == BinaryOp::kLAnd || r.bop == BinaryOp::kLOr) {
        r.form = BinForm::kLogical;
      } else if (t.kind() == TypeKind::kFloat) {
        r.form = BinForm::kFloat32;
      } else if (t.kind() == TypeKind::kDouble) {
        r.form = BinForm::kFloat64;
      } else if (t.kind() == TypeKind::kLong) {
        r.form = BinForm::kInt64;
      } else {
        r.form = BinForm::kInt32;
      }
      break;
    }
    case ExprKind::kUnary:
      r.a = CompileExpr(e.operands()[0]);
      r.uop = e.unary_op();
      r.opnd = e.operands()[0]->type().kind();
      break;
    case ExprKind::kCall:
      r.fn = e.intrinsic();
      r.a = CompileExpr(e.operands()[0]);
      if (e.operands().size() > 1) r.b = CompileExpr(e.operands()[1]);
      break;
    case ExprKind::kCast:
      r.a = CompileExpr(e.operands()[0]);
      break;
    case ExprKind::kSelect:
      r.a = CompileExpr(e.operands()[0]);
      r.b = CompileExpr(e.operands()[1]);
      r.c = CompileExpr(e.operands()[2]);
      break;
  }
  rexprs_.push_back(std::move(r));
  return static_cast<std::int32_t>(rexprs_.size() - 1);
}

std::int32_t Evaluator::CompileStmt(const Stmt& stmt) {
  RStmt s;
  s.kind = stmt.kind();
  switch (stmt.kind()) {
    case StmtKind::kAssign: {
      s.a = CompileExpr(stmt.rhs());
      const Expr& lhs = *stmt.lhs();
      s.store = lhs.type().kind();
      if (lhs.kind() == ExprKind::kVar) {
        s.lhs_is_var = true;
        s.slot = VarSlot(lhs.name());
      } else {
        s.lhs_is_var = false;
        s.slot = buffer_id_by_name_.at(lhs.name());
        s.index = CompileExpr(lhs.operands()[0]);
      }
      break;
    }
    case StmtKind::kDecl:
      s.slot = VarSlot(stmt.decl_name());
      s.store = stmt.decl_type().kind();
      s.dflt = jvm::DefaultValue(stmt.decl_type());
      if (stmt.init()) s.a = CompileExpr(stmt.init());
      break;
    case StmtKind::kIf:
      s.a = CompileExpr(stmt.cond());
      s.body = CompileStmt(*stmt.then_stmt());
      if (stmt.else_stmt()) s.els = CompileStmt(*stmt.else_stmt());
      break;
    case StmtKind::kFor:
      s.slot = VarSlot(stmt.loop_var());
      s.trip = stmt.trip_count();
      s.body = CompileStmt(*stmt.body());
      break;
    case StmtKind::kBlock:
      s.stmts.reserve(stmt.stmts().size());
      for (const auto& st : stmt.stmts()) {
        s.stmts.push_back(CompileStmt(*st));
      }
      break;
  }
  rstmts_.push_back(std::move(s));
  const auto idx = static_cast<std::int32_t>(rstmts_.size() - 1);
  if (&stmt == span_.loop()) task_stmt_ = idx;
  return idx;
}

Value Evaluator::EvalExpr(std::int32_t idx) {
  if (++steps_ > max_steps_) {
    throw InternalError("IR evaluator step budget exceeded");
  }
  const RExpr& r = rexprs_[static_cast<std::size_t>(idx)];
  switch (r.kind) {
    case ExprKind::kIntLit:
    case ExprKind::kFloatLit:
      return r.lit;
    case ExprKind::kVar:
      S2FA_CHECK(bound_[static_cast<std::size_t>(r.slot)],
                 "unbound variable "
                     << var_names_[static_cast<std::size_t>(r.slot)]);
      return slots_[static_cast<std::size_t>(r.slot)];
    case ExprKind::kArrayRef: {
      std::int64_t index = ToInt64(EvalExpr(r.a));
      const std::vector<Value>& vec =
          *bufs_[static_cast<std::size_t>(r.slot)];
      S2FA_REQUIRE(
          index >= 0 && static_cast<std::size_t>(index) < vec.size(),
          "index " << index << " out of bounds for buffer "
                   << kernel_.buffers[static_cast<std::size_t>(r.slot)].name
                   << " (size " << vec.size() << ")");
      return vec[static_cast<std::size_t>(index)];
    }
    case ExprKind::kBinary: {
      Value a = EvalExpr(r.a);
      Value b = EvalExpr(r.b);
      switch (r.form) {
        case BinForm::kCmpInt:
          return Value::OfInt(CompareValues(r.bop, true, a, b) ? 1 : 0);
        case BinForm::kCmpFloat:
          return Value::OfInt(CompareValues(r.bop, false, a, b) ? 1 : 0);
        case BinForm::kLogical:
          if (r.bop == BinaryOp::kLAnd) {
            return Value::OfInt(
                (ToInt64(a) != 0 && ToInt64(b) != 0) ? 1 : 0);
          }
          return Value::OfInt((ToInt64(a) != 0 || ToInt64(b) != 0) ? 1 : 0);
        case BinForm::kFloat32:
          return Value::OfFloat(
              ApplyFloatBin<float>(r.bop, static_cast<float>(ToDouble(a)),
                                   static_cast<float>(ToDouble(b))));
        case BinForm::kFloat64:
          return Value::OfDouble(
              ApplyFloatBin<double>(r.bop, ToDouble(a), ToDouble(b)));
        case BinForm::kInt64:
          return Value::OfLong(
              ApplyIntBin(r.bop, true, ToInt64(a), ToInt64(b)));
        case BinForm::kInt32:
          return Value::OfInt(static_cast<std::int32_t>(
              ApplyIntBin(r.bop, false, ToInt64(a), ToInt64(b))));
      }
      S2FA_UNREACHABLE("bad binary form");
    }
    case ExprKind::kUnary:
      return ApplyUnary(r.uop, r.opnd, EvalExpr(r.a));
    case ExprKind::kCall: {
      double x = ToDouble(EvalExpr(r.a));
      double y = r.b >= 0 ? ToDouble(EvalExpr(r.b)) : 0.0;
      return ApplyIntrinsic(r.fn, r.type, x, y);
    }
    case ExprKind::kCast:
      return NarrowToKind(r.type, EvalExpr(r.a));
    case ExprKind::kSelect:
      return ToInt64(EvalExpr(r.a)) != 0 ? EvalExpr(r.b) : EvalExpr(r.c);
  }
  S2FA_UNREACHABLE("bad expr kind");
}

void Evaluator::ExecStmt(std::int32_t idx) {
  if (++steps_ > max_steps_) {
    throw InternalError("IR evaluator step budget exceeded");
  }
  const RStmt& s = rstmts_[static_cast<std::size_t>(idx)];
  switch (s.kind) {
    case StmtKind::kAssign: {
      Value v = EvalExpr(s.a);
      if (s.lhs_is_var) {
        slots_[static_cast<std::size_t>(s.slot)] = NarrowToKind(s.store, v);
        bound_[static_cast<std::size_t>(s.slot)] = 1;
        break;
      }
      std::int64_t index = ToInt64(EvalExpr(s.index));
      std::vector<Value>& vec = *bufs_[static_cast<std::size_t>(s.slot)];
      S2FA_REQUIRE(
          index >= 0 && static_cast<std::size_t>(index) < vec.size(),
          "write index "
              << index << " out of bounds for buffer "
              << kernel_.buffers[static_cast<std::size_t>(s.slot)].name);
      vec[static_cast<std::size_t>(index)] = NarrowToKind(s.store, v);
      break;
    }
    case StmtKind::kDecl: {
      Value v = s.a >= 0 ? EvalExpr(s.a) : s.dflt;
      slots_[static_cast<std::size_t>(s.slot)] = NarrowToKind(s.store, v);
      bound_[static_cast<std::size_t>(s.slot)] = 1;
      break;
    }
    case StmtKind::kIf:
      if (ToInt64(EvalExpr(s.a)) != 0) {
        ExecStmt(s.body);
      } else if (s.els >= 0) {
        ExecStmt(s.els);
      }
      break;
    case StmtKind::kFor: {
      const auto slot = static_cast<std::size_t>(s.slot);
      const std::int64_t trip = idx == task_stmt_ ? task_trip_ : s.trip;
      if (trip > 0) bound_[slot] = 1;
      for (std::int64_t i = 0; i < trip; ++i) {
        slots_[slot] = Value::OfInt(static_cast<std::int32_t>(i));
        ExecStmt(s.body);
      }
      break;
    }
    case StmtKind::kBlock:
      for (std::int32_t st : s.stmts) ExecStmt(st);
      break;
  }
}

void Evaluator::Run(const std::map<std::string, Value>& scalars,
                    BufferMap& buffers,
                    std::optional<std::int64_t> live_tasks) {
  steps_ = 0;
  task_trip_ = span_.Iterations(live_tasks);
  std::fill(bound_.begin(), bound_.end(), 0);
  for (std::size_t i = 0; i < kernel_.scalars.size(); ++i) {
    const auto& s = kernel_.scalars[i];
    auto it = scalars.find(s.name);
    S2FA_REQUIRE(it != scalars.end(), "missing scalar argument " << s.name);
    const auto slot = static_cast<std::size_t>(scalar_slots_[i]);
    slots_[slot] = it->second;
    bound_[slot] = 1;
  }
  for (std::size_t i = 0; i < kernel_.buffers.size(); ++i) {
    const auto& b = kernel_.buffers[i];
    auto it = buffers.find(b.name);
    if (it == buffers.end()) {
      S2FA_REQUIRE(b.kind != BufferKind::kInput,
                   "missing input buffer " << b.name);
      it = buffers
               .emplace(b.name,
                        std::vector<Value>(static_cast<std::size_t>(b.length),
                                           jvm::DefaultValue(b.element)))
               .first;
    }
    bufs_[i] = &it->second;
  }
  ExecStmt(root_);
}

// --------------------------------------------------------------------------
// ReferenceEvaluator: the legacy map-keyed tree walker.
// --------------------------------------------------------------------------

ReferenceEvaluator::ReferenceEvaluator(const Kernel& kernel)
    : kernel_(kernel), span_(kernel) {
  kernel.Validate();
}

Value ReferenceEvaluator::Eval(const ExprPtr& expr, Env& env) {
  if (++steps_ > max_steps_) {
    throw InternalError("IR evaluator step budget exceeded");
  }
  const Expr& e = *expr;
  switch (e.kind()) {
    case ExprKind::kIntLit:
      if (e.type().kind() == TypeKind::kLong) {
        return Value::OfLong(e.int_value());
      }
      return Value::OfInt(static_cast<std::int32_t>(e.int_value()));
    case ExprKind::kFloatLit:
      return FromDouble(e.type().kind(), e.float_value());
    case ExprKind::kVar: {
      auto it = env.vars.find(e.name());
      S2FA_CHECK(it != env.vars.end(), "unbound variable " << e.name());
      return it->second;
    }
    case ExprKind::kArrayRef: {
      std::int64_t index = ToInt64(Eval(e.operands()[0], env));
      auto it = env.buffers->find(e.name());
      S2FA_CHECK(it != env.buffers->end(), "unbound buffer " << e.name());
      S2FA_REQUIRE(index >= 0 && static_cast<std::size_t>(index) <
                                     it->second.size(),
                   "index " << index << " out of bounds for buffer "
                            << e.name() << " (size " << it->second.size()
                            << ")");
      return it->second[static_cast<std::size_t>(index)];
    }
    case ExprKind::kBinary: {
      Value a = Eval(e.operands()[0], env);
      Value b = Eval(e.operands()[1], env);
      const Type& t = e.operands()[0]->type();
      BinaryOp op = e.binary_op();
      if (IsComparison(op)) {
        return Value::OfInt(
            CompareValues(op, t.is_integral(), a, b) ? 1 : 0);
      }
      if (op == BinaryOp::kLAnd) {
        return Value::OfInt((ToInt64(a) != 0 && ToInt64(b) != 0) ? 1 : 0);
      }
      if (op == BinaryOp::kLOr) {
        return Value::OfInt((ToInt64(a) != 0 || ToInt64(b) != 0) ? 1 : 0);
      }
      if (t.is_floating()) {
        if (t.kind() == TypeKind::kFloat) {
          return Value::OfFloat(
              ApplyFloatBin<float>(op, static_cast<float>(ToDouble(a)),
                                   static_cast<float>(ToDouble(b))));
        }
        return Value::OfDouble(
            ApplyFloatBin<double>(op, ToDouble(a), ToDouble(b)));
      }
      const bool wide = t.kind() == TypeKind::kLong;
      std::int64_t r = ApplyIntBin(op, wide, ToInt64(a), ToInt64(b));
      if (wide) return Value::OfLong(r);
      return Value::OfInt(static_cast<std::int32_t>(r));
    }
    case ExprKind::kUnary:
      return ApplyUnary(e.unary_op(), e.operands()[0]->type().kind(),
                        Eval(e.operands()[0], env));
    case ExprKind::kCall: {
      double x = ToDouble(Eval(e.operands()[0], env));
      double y = e.operands().size() > 1
                     ? ToDouble(Eval(e.operands()[1], env))
                     : 0.0;
      return ApplyIntrinsic(e.intrinsic(), e.type().kind(), x, y);
    }
    case ExprKind::kCast: {
      Value a = Eval(e.operands()[0], env);
      return NarrowToElement(e.type(), a);
    }
    case ExprKind::kSelect: {
      Value c = Eval(e.operands()[0], env);
      return ToInt64(c) != 0 ? Eval(e.operands()[1], env)
                             : Eval(e.operands()[2], env);
    }
  }
  S2FA_UNREACHABLE("bad expr kind");
}

void ReferenceEvaluator::Exec(const Stmt& stmt, Env& env) {
  if (++steps_ > max_steps_) {
    throw InternalError("IR evaluator step budget exceeded");
  }
  switch (stmt.kind()) {
    case StmtKind::kAssign: {
      Value v = Eval(stmt.rhs(), env);
      const Expr& lhs = *stmt.lhs();
      if (lhs.kind() == ExprKind::kVar) {
        env.vars[lhs.name()] = NarrowToElement(lhs.type(), v);
      } else {
        std::int64_t index = ToInt64(Eval(lhs.operands()[0], env));
        auto it = env.buffers->find(lhs.name());
        S2FA_CHECK(it != env.buffers->end(), "unbound buffer " << lhs.name());
        S2FA_REQUIRE(index >= 0 && static_cast<std::size_t>(index) <
                                       it->second.size(),
                     "write index " << index << " out of bounds for buffer "
                                    << lhs.name());
        it->second[static_cast<std::size_t>(index)] =
            NarrowToElement(lhs.type(), v);
      }
      break;
    }
    case StmtKind::kDecl: {
      Value v = stmt.init() ? Eval(stmt.init(), env)
                            : jvm::DefaultValue(stmt.decl_type());
      env.vars[stmt.decl_name()] = NarrowToElement(stmt.decl_type(), v);
      break;
    }
    case StmtKind::kIf: {
      Value c = Eval(stmt.cond(), env);
      if (ToInt64(c) != 0) {
        Exec(*stmt.then_stmt(), env);
      } else if (stmt.else_stmt()) {
        Exec(*stmt.else_stmt(), env);
      }
      break;
    }
    case StmtKind::kFor: {
      const std::int64_t trip =
          &stmt == span_.loop() ? task_trip_ : stmt.trip_count();
      for (std::int64_t i = 0; i < trip; ++i) {
        env.vars[stmt.loop_var()] =
            Value::OfInt(static_cast<std::int32_t>(i));
        Exec(*stmt.body(), env);
      }
      break;
    }
    case StmtKind::kBlock:
      for (const auto& st : stmt.stmts()) Exec(*st, env);
      break;
  }
}

void ReferenceEvaluator::Run(const std::map<std::string, Value>& scalars,
                             BufferMap& buffers,
                             std::optional<std::int64_t> live_tasks) {
  steps_ = 0;
  task_trip_ = span_.Iterations(live_tasks);
  Env env;
  env.buffers = &buffers;
  for (const auto& s : kernel_.scalars) {
    auto it = scalars.find(s.name);
    S2FA_REQUIRE(it != scalars.end(), "missing scalar argument " << s.name);
    env.vars[s.name] = it->second;
  }
  for (const auto& b : kernel_.buffers) {
    auto it = buffers.find(b.name);
    if (it == buffers.end()) {
      S2FA_REQUIRE(b.kind != BufferKind::kInput,
                   "missing input buffer " << b.name);
      buffers[b.name].assign(static_cast<std::size_t>(b.length),
                             jvm::DefaultValue(b.element));
    }
  }
  Exec(*kernel_.body, env);
}

}  // namespace s2fa::kir
