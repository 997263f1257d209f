#include "testlib/reference_eval.h"

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

// Floating values convert like Java's f2l/d2l (saturating).
std::int64_t ToInt64(const Value& v) {
  if (v.is_int()) return v.AsInt();
  if (v.is_long()) return v.AsLong();
  return jvm::JavaFloatToInt<std::int64_t>(ToDouble(v));
}

// Like ToInt64, but floating values convert like Java's f2i/d2i: the int
// that byte/char/short narrowings start from.
std::int64_t ToInt32Source(const Value& v) {
  if (v.is_int() || v.is_long()) return ToInt64(v);
  return jvm::JavaFloatToInt<std::int32_t>(ToDouble(v));
}

Value FromDouble(TypeKind kind, double d) {
  switch (kind) {
    case TypeKind::kFloat:
      return Value::OfFloat(static_cast<float>(d));
    case TypeKind::kDouble:
      return Value::OfDouble(d);
    case TypeKind::kLong:
      return Value::OfLong(jvm::JavaFloatToInt<std::int64_t>(d));
    default:
      return Value::OfInt(jvm::JavaFloatToInt<std::int32_t>(d));
  }
}

Value NarrowToKind(TypeKind kind, const Value& v) {
  switch (kind) {
    case TypeKind::kBoolean:
      return Value::OfInt(ToInt64(v) != 0 ? 1 : 0);
    case TypeKind::kByte:
      return Value::OfInt(static_cast<std::int8_t>(ToInt32Source(v)));
    case TypeKind::kChar:
      return Value::OfInt(static_cast<std::uint16_t>(ToInt32Source(v)));
    case TypeKind::kShort:
      return Value::OfInt(static_cast<std::int16_t>(ToInt32Source(v)));
    case TypeKind::kInt:
      return Value::OfInt(static_cast<std::int32_t>(ToInt32Source(v)));
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

// Java int/long arithmetic: add/sub/mul wrap (computed unsigned), and
// MIN / -1 == MIN, MIN % -1 == 0. Int operands are computed in int64 and
// narrowed by the caller.
std::int64_t ApplyIntBin(BinaryOp op, bool wide, std::int64_t x,
                         std::int64_t y) {
  using U = std::uint64_t;
  switch (op) {
    case BinaryOp::kAdd: return static_cast<std::int64_t>(U(x) + U(y));
    case BinaryOp::kSub: return static_cast<std::int64_t>(U(x) - U(y));
    case BinaryOp::kMul: return static_cast<std::int64_t>(U(x) * U(y));
    case BinaryOp::kDiv:
      S2FA_REQUIRE(y != 0, "division by zero in kernel");
      if (y == -1) return static_cast<std::int64_t>(U{0} - U(x));
      return x / y;
    case BinaryOp::kRem:
      S2FA_REQUIRE(y != 0, "remainder by zero in kernel");
      if (y == -1) return 0;
      return x % y;
    case BinaryOp::kShl:
      return static_cast<std::int64_t>(U(x) << (y & (wide ? 63 : 31)));
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
      {
        const auto neg = static_cast<std::int64_t>(
            std::uint64_t{0} - static_cast<std::uint64_t>(ToInt64(a)));
        if (operand == TypeKind::kLong) return Value::OfLong(neg);
        return Value::OfInt(static_cast<std::int32_t>(neg));
      }
    case UnaryOp::kBitNot:
      if (operand == TypeKind::kLong) return Value::OfLong(~ToInt64(a));
      return Value::OfInt(static_cast<std::int32_t>(~ToInt64(a)));
    case UnaryOp::kLogicalNot:
      return Value::OfInt(ToInt64(a) == 0 ? 1 : 0);
  }
  S2FA_UNREACHABLE("bad unary op");
}

}  // namespace

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
