#include "kir/eval.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <type_traits>

#include "support/error.h"

namespace s2fa::kir {

namespace {

constexpr std::uint64_t kMaxSteps = 2'000'000'000ULL;

// The static value kind of a node, variable or buffer: the Value
// alternative Java semantics produce there.
enum class VKind : std::uint8_t { kInt, kLong, kFloat, kDouble };

// How a word holds a node's value: int and long sign-extended in `i`,
// float in `f`, double in `d`.
enum class View : std::uint8_t { kI64, kF32, kF64 };

// Where a node reads an operand: through the operand node's function, or
// inline when the operand is one of the two common leaves, a variable or a
// literal (same checks, no indirect call).
enum class Src : std::uint8_t { kNode, kVar, kLit };

union Word {
  std::int64_t i;
  float f;
  double d;
};

Word I64(std::int64_t v) {
  Word w{};
  w.i = v;
  return w;
}

Word F32(float v) {
  Word w{};
  w.f = v;
  return w;
}

Word F64(double v) {
  Word w{};
  w.d = v;
  return w;
}

std::optional<VKind> KindOf(TypeKind t) {
  switch (t) {
    case TypeKind::kBoolean:
    case TypeKind::kByte:
    case TypeKind::kChar:
    case TypeKind::kShort:
    case TypeKind::kInt:
      return VKind::kInt;
    case TypeKind::kLong:
      return VKind::kLong;
    case TypeKind::kFloat:
      return VKind::kFloat;
    case TypeKind::kDouble:
      return VKind::kDouble;
    default:
      return std::nullopt;
  }
}

View ViewOf(VKind k) {
  switch (k) {
    case VKind::kFloat: return View::kF32;
    case VKind::kDouble: return View::kF64;
    default: return View::kI64;
  }
}

// The view of a value produced at type `t` (a cast, call or literal).
View ViewOf(TypeKind t) {
  if (t == TypeKind::kFloat) return View::kF32;
  if (t == TypeKind::kDouble) return View::kF64;
  return View::kI64;
}

const char* KindName(VKind k) {
  switch (k) {
    case VKind::kInt: return "int";
    case VKind::kLong: return "long";
    case VKind::kFloat: return "float";
    case VKind::kDouble: return "double";
  }
  return "?";
}

const char* ValueKindName(const Value& v) {
  if (v.is_int()) return "int";
  if (v.is_long()) return "long";
  if (v.is_float()) return "float";
  if (v.is_double()) return "double";
  return "reference";
}

bool HasKind(const Value& v, VKind k) {
  switch (k) {
    case VKind::kInt: return v.is_int();
    case VKind::kLong: return v.is_long();
    case VKind::kFloat: return v.is_float();
    case VKind::kDouble: return v.is_double();
  }
  return false;
}

Word Load(VKind k, const Value& v) {
  switch (k) {
    case VKind::kInt: return I64(v.AsInt());
    case VKind::kLong: return I64(v.AsLong());
    case VKind::kFloat: return F32(v.AsFloat());
    case VKind::kDouble: return F64(v.AsDouble());
  }
  S2FA_UNREACHABLE("bad value kind");
}

// Reads a word as the int64 / float / double the old dynamic walker's
// ToInt64 / (float)ToDouble / ToDouble produced from a Value of view V.
// Float views convert to int64 like Java's f2l/d2l (saturating).
template <View V>
std::int64_t AsI64(Word w) {
  if constexpr (V == View::kI64) return w.i;
  if constexpr (V == View::kF32) return jvm::JavaFloatToInt<std::int64_t>(w.f);
  if constexpr (V == View::kF64) return jvm::JavaFloatToInt<std::int64_t>(w.d);
}

template <View V>
float AsF32(Word w) {
  if constexpr (V == View::kI64) {
    return static_cast<float>(static_cast<double>(w.i));
  }
  if constexpr (V == View::kF32) return w.f;
  if constexpr (V == View::kF64) return static_cast<float>(w.d);
}

template <View V>
double AsF64(Word w) {
  if constexpr (V == View::kI64) return static_cast<double>(w.i);
  if constexpr (V == View::kF32) return static_cast<double>(w.f);
  if constexpr (V == View::kF64) return w.d;
}

template <View To, View From>
Word Convert(Word w) {
  if constexpr (To == View::kI64) return I64(AsI64<From>(w));
  if constexpr (To == View::kF32) return F32(AsF32<From>(w));
  if constexpr (To == View::kF64) return F64(AsF64<From>(w));
}

// The operand type of a float/double node in view V.
template <View V>
using FloatOf = std::conditional_t<V == View::kF32, float, double>;

template <View V>
auto Get(Word w) {
  if constexpr (V == View::kI64) return w.i;
  if constexpr (V == View::kF32) return w.f;
  if constexpr (V == View::kF64) return w.d;
}

Word Put(float v) { return F32(v); }
Word Put(double v) { return F64(v); }

// Conversion to a store/cast type: the word of view V narrowed to TK, as
// C's implicit conversion of the generated code (and Java's i2b/i2c/i2s).
// A float view converts to int like Java's f2i/d2i (saturating) before
// byte/char/short narrow it, and to long like f2l/d2l.
template <TypeKind TK, View V>
Word Narrow(Word w) {
  if constexpr (TK == TypeKind::kFloat) {
    return F32(AsF32<V>(w));
  } else if constexpr (TK == TypeKind::kDouble) {
    return F64(AsF64<V>(w));
  } else {
    std::int64_t x;
    if constexpr (V == View::kI64 || TK == TypeKind::kLong ||
                  TK == TypeKind::kBoolean) {
      x = AsI64<V>(w);
    } else {
      x = jvm::JavaFloatToInt<std::int32_t>(AsF64<V>(w));
    }
    if constexpr (TK == TypeKind::kBoolean) return I64(x != 0 ? 1 : 0);
    if constexpr (TK == TypeKind::kByte) {
      return I64(static_cast<std::int8_t>(x));
    }
    if constexpr (TK == TypeKind::kChar) {
      return I64(static_cast<std::uint16_t>(x));
    }
    if constexpr (TK == TypeKind::kShort) {
      return I64(static_cast<std::int16_t>(x));
    }
    if constexpr (TK == TypeKind::kInt) {
      return I64(static_cast<std::int32_t>(x));
    }
    if constexpr (TK == TypeKind::kLong) return I64(x);
  }
}

// The Value a store of type TK writes into a buffer.
template <TypeKind TK>
Value Box(Word w) {
  if constexpr (TK == TypeKind::kFloat) {
    return Value::OfFloat(w.f);
  } else if constexpr (TK == TypeKind::kDouble) {
    return Value::OfDouble(w.d);
  } else if constexpr (TK == TypeKind::kLong) {
    return Value::OfLong(w.i);
  } else {
    return Value::OfInt(static_cast<std::int32_t>(w.i));
  }
}

// ------------------------------------------------ compile-time dispatch
//
// Each With* helper maps a runtime enum onto a template argument, so the
// compiler picks a node function by (kind, form, op, store kind) once.

template <auto V>
using Const = std::integral_constant<decltype(V), V>;

template <typename Fn>
auto WithView(View v, Fn&& fn) {
  switch (v) {
    case View::kI64: return fn(Const<View::kI64>{});
    case View::kF32: return fn(Const<View::kF32>{});
    case View::kF64: break;
  }
  return fn(Const<View::kF64>{});
}

template <typename Fn>
auto WithStoreType(TypeKind t, Fn&& fn) {
  switch (t) {
    case TypeKind::kBoolean: return fn(Const<TypeKind::kBoolean>{});
    case TypeKind::kByte: return fn(Const<TypeKind::kByte>{});
    case TypeKind::kChar: return fn(Const<TypeKind::kChar>{});
    case TypeKind::kShort: return fn(Const<TypeKind::kShort>{});
    case TypeKind::kInt: return fn(Const<TypeKind::kInt>{});
    case TypeKind::kLong: return fn(Const<TypeKind::kLong>{});
    case TypeKind::kFloat: return fn(Const<TypeKind::kFloat>{});
    case TypeKind::kDouble: return fn(Const<TypeKind::kDouble>{});
    default: break;
  }
  S2FA_UNREACHABLE("non-primitive store type");
}

template <typename Fn>
auto WithArithOp(BinaryOp op, Fn&& fn) {
  switch (op) {
    case BinaryOp::kAdd: return fn(Const<BinaryOp::kAdd>{});
    case BinaryOp::kSub: return fn(Const<BinaryOp::kSub>{});
    case BinaryOp::kMul: return fn(Const<BinaryOp::kMul>{});
    case BinaryOp::kDiv: return fn(Const<BinaryOp::kDiv>{});
    case BinaryOp::kRem: return fn(Const<BinaryOp::kRem>{});
    case BinaryOp::kShl: return fn(Const<BinaryOp::kShl>{});
    case BinaryOp::kShr: return fn(Const<BinaryOp::kShr>{});
    case BinaryOp::kUShr: return fn(Const<BinaryOp::kUShr>{});
    case BinaryOp::kAnd: return fn(Const<BinaryOp::kAnd>{});
    case BinaryOp::kOr: return fn(Const<BinaryOp::kOr>{});
    case BinaryOp::kXor: return fn(Const<BinaryOp::kXor>{});
    case BinaryOp::kMin: return fn(Const<BinaryOp::kMin>{});
    case BinaryOp::kMax: return fn(Const<BinaryOp::kMax>{});
    default: break;
  }
  S2FA_UNREACHABLE("not an arithmetic op");
}

template <typename Fn>
auto WithCmpOp(BinaryOp op, Fn&& fn) {
  switch (op) {
    case BinaryOp::kLt: return fn(Const<BinaryOp::kLt>{});
    case BinaryOp::kLe: return fn(Const<BinaryOp::kLe>{});
    case BinaryOp::kGt: return fn(Const<BinaryOp::kGt>{});
    case BinaryOp::kGe: return fn(Const<BinaryOp::kGe>{});
    case BinaryOp::kEq: return fn(Const<BinaryOp::kEq>{});
    case BinaryOp::kNe: return fn(Const<BinaryOp::kNe>{});
    default: break;
  }
  S2FA_UNREACHABLE("not a comparison");
}

template <typename Fn>
auto WithIntrinsic(Intrinsic in, Fn&& fn) {
  switch (in) {
    case Intrinsic::kExp: return fn(Const<Intrinsic::kExp>{});
    case Intrinsic::kLog: return fn(Const<Intrinsic::kLog>{});
    case Intrinsic::kSqrt: return fn(Const<Intrinsic::kSqrt>{});
    case Intrinsic::kAbs: return fn(Const<Intrinsic::kAbs>{});
    case Intrinsic::kPow: break;
  }
  return fn(Const<Intrinsic::kPow>{});
}

template <typename Fn>
auto WithSrc(Src s, Fn&& fn) {
  switch (s) {
    case Src::kVar: return fn(Const<Src::kVar>{});
    case Src::kLit: return fn(Const<Src::kLit>{});
    case Src::kNode: break;
  }
  return fn(Const<Src::kNode>{});
}

// Numeric form of a binary node, from its first operand's type.
enum class Form : std::uint8_t {
  kCmpInt,    // comparison, integral operands (exact int64 compare)
  kCmpFloat,  // comparison, floating operands
  kLogical,   // kLAnd / kLOr
  kFloat32,   // float arithmetic (computed in float)
  kFloat64,   // double arithmetic
  kInt32,     // int-family arithmetic (computed in int64, narrowed)
  kInt64,     // long arithmetic
};

Form FormOf(const Expr& e) {
  const Type& t = e.operands()[0]->type();
  const BinaryOp op = e.binary_op();
  if (IsComparison(op)) {
    return t.is_integral() ? Form::kCmpInt : Form::kCmpFloat;
  }
  if (op == BinaryOp::kLAnd || op == BinaryOp::kLOr) return Form::kLogical;
  if (t.kind() == TypeKind::kFloat) return Form::kFloat32;
  if (t.kind() == TypeKind::kDouble) return Form::kFloat64;
  if (t.kind() == TypeKind::kLong) return Form::kInt64;
  return Form::kInt32;
}

}  // namespace

// ----------------------------------------------------------------------
// The compiled program and the per-run frame.
// ----------------------------------------------------------------------

struct Evaluator::Frame {
  std::vector<Word> slots;           // variable slot -> value
  std::vector<std::uint8_t> bound;   // variable slot -> assigned yet
  std::vector<std::vector<Value>*> bufs;  // buffer id -> this Run's data
  std::uint64_t steps = 0;
  std::int64_t task_trip = 0;  // task-loop iterations of this Run
  const Program::Code* code = nullptr;
};

namespace {

using Frame = Evaluator::Frame;

struct ENode;
using EvalFn = Word (*)(const ENode&, Frame&);

// One compiled expression node.
struct ENode {
  EvalFn fn = nullptr;
  const ENode* a = nullptr;
  const ENode* b = nullptr;
  const ENode* c = nullptr;
  Word lit{};              // literal value
  std::int32_t slot = -1;  // variable slot or buffer id
  // IR nodes an evaluation of this subtree visits, not counting the arms
  // of selects in it (a select charges the arm it takes).
  std::uint32_t steps = 0;
};

struct SNode;
using ExecFn = void (*)(const SNode&, Frame&);

// One compiled statement node.
struct SNode {
  ExecFn fn = nullptr;
  const ENode* a = nullptr;      // rhs / init / condition
  const ENode* index = nullptr;  // element-store index
  const SNode* body = nullptr;   // loop body / then branch
  const SNode* els = nullptr;    // else branch
  std::int32_t slot = -1;        // variable slot or buffer id
  std::int64_t trip = 0;         // loop trip count
  Word lit{};                    // value of a declaration without init
  std::uint64_t steps = 0;       // this node's step plus its expressions'
  std::vector<const SNode*> stmts;  // block children
};

struct Param {
  std::string name;
  std::int32_t slot = -1;
  VKind kind = VKind::kInt;
};

struct BufferSlot {
  std::string name;
  BufferKind kind = BufferKind::kInput;
  std::int64_t length = 0;
  Type element;
  VKind vkind = VKind::kInt;
};

}  // namespace

struct Program::Code {
  std::deque<ENode> exprs;  // deque: nodes never move once built
  std::deque<SNode> stmts;
  const SNode* root = nullptr;
  std::vector<std::string> var_names;  // slot -> name (diagnostics)
  std::vector<Param> scalars;
  std::vector<BufferSlot> buffers;     // buffer id -> declaration
};

namespace {

// -------------------------------------------------------- cold paths

[[noreturn, gnu::noinline, gnu::cold]] void StepBudgetExceeded() {
  throw InternalError("IR evaluator step budget exceeded");
}

[[noreturn, gnu::noinline, gnu::cold]] void UnboundVariable(
    const Frame& f, std::int32_t slot) {
  const auto s = static_cast<std::size_t>(slot);
  S2FA_CHECK(f.bound[s] != 0, "unbound variable " << f.code->var_names[s]);
  S2FA_UNREACHABLE("bound variable reported unbound");
}

[[noreturn, gnu::noinline, gnu::cold]] void ReadOutOfBounds(
    const Frame& f, std::int32_t id, std::int64_t index) {
  const auto b = static_cast<std::size_t>(id);
  const std::size_t size = f.bufs[b]->size();
  S2FA_REQUIRE(index >= 0 && static_cast<std::size_t>(index) < size,
               "index " << index << " out of bounds for buffer "
                        << f.code->buffers[b].name << " (size " << size
                        << ")");
  S2FA_UNREACHABLE("in-bounds read reported out of bounds");
}

[[noreturn, gnu::noinline, gnu::cold]] void WriteOutOfBounds(
    const Frame& f, std::int32_t id, std::int64_t index) {
  const auto b = static_cast<std::size_t>(id);
  const std::size_t size = f.bufs[b]->size();
  S2FA_REQUIRE(index >= 0 && static_cast<std::size_t>(index) < size,
               "write index " << index << " out of bounds for buffer "
                              << f.code->buffers[b].name);
  S2FA_UNREACHABLE("in-bounds write reported out of bounds");
}

[[noreturn, gnu::noinline, gnu::cold]] void ZeroDivisor(std::int64_t y,
                                                       bool rem) {
  if (rem) S2FA_REQUIRE(y != 0, "remainder by zero in kernel");
  S2FA_REQUIRE(y != 0, "division by zero in kernel");
  S2FA_UNREACHABLE("non-zero divisor reported zero");
}

// ---------------------------------------------------- node functions

// Steps are charged per statement, for the statement and every expression
// node it will visit (known at compile time but for select arms), so the
// count stays in step with the nodes visited without a counter update per
// node.
inline void Charge(Frame& f, std::uint64_t steps) {
  f.steps += steps;
  if (f.steps > kMaxSteps) [[unlikely]] StepBudgetExceeded();
}

inline Word Eval(const ENode* n, Frame& f) { return n->fn(*n, f); }
inline void Exec(const SNode* s, Frame& f) { s->fn(*s, f); }

inline bool OutOfRange(std::int64_t index, std::size_t size) {
  return static_cast<std::uint64_t>(index) >= size;
}

Word ELit(const ENode& n, Frame&) {
  return n.lit;
}

Word EVar(const ENode& n, Frame& f) {
  const auto s = static_cast<std::size_t>(n.slot);
  if (f.bound[s] == 0) [[unlikely]] UnboundVariable(f, n.slot);
  return f.slots[s];
}

template <Src S>
Word Fetch(const ENode* n, Frame& f) {
  if constexpr (S == Src::kVar) return EVar(*n, f);
  if constexpr (S == Src::kLit) return n->lit;
  if constexpr (S == Src::kNode) return Eval(n, f);
}

template <VKind K, Src SI>
Word ELoad(const ENode& n, Frame& f) {
  const std::int64_t index = Fetch<SI>(n.a, f).i;
  const std::vector<Value>& vec = *f.bufs[static_cast<std::size_t>(n.slot)];
  if (OutOfRange(index, vec.size())) [[unlikely]] {
    ReadOutOfBounds(f, n.slot, index);
  }
  const Value& v = vec[static_cast<std::size_t>(index)];
  if constexpr (K == VKind::kInt) return I64(v.AsInt());
  if constexpr (K == VKind::kLong) return I64(v.AsLong());
  if constexpr (K == VKind::kFloat) return F32(v.AsFloat());
  if constexpr (K == VKind::kDouble) return F64(v.AsDouble());
}

// A view change the IR leaves implicit (C's usual conversions): not an IR
// node, so it charges no step.
template <View To, View From>
Word ECvt(const ENode& n, Frame& f) {
  return Convert<To, From>(Eval(n.a, f));
}

// Java int/long arithmetic: add/sub/mul/neg wrap (computed unsigned),
// MIN / -1 == MIN and MIN % -1 == 0, shift counts masked to the width.
template <BinaryOp Op, bool kWide>
std::int64_t IntOp(std::int64_t x, std::int64_t y) {
  using U = std::uint64_t;
  using S = std::int64_t;
  if constexpr (Op == BinaryOp::kAdd) return static_cast<S>(U(x) + U(y));
  if constexpr (Op == BinaryOp::kSub) return static_cast<S>(U(x) - U(y));
  if constexpr (Op == BinaryOp::kMul) return static_cast<S>(U(x) * U(y));
  if constexpr (Op == BinaryOp::kDiv) {
    if (y == 0) [[unlikely]] ZeroDivisor(y, false);
    return y == -1 ? static_cast<std::int64_t>(U{0} - U(x)) : x / y;
  }
  if constexpr (Op == BinaryOp::kRem) {
    if (y == 0) [[unlikely]] ZeroDivisor(y, true);
    return y == -1 ? 0 : x % y;
  }
  constexpr std::int64_t kMask = kWide ? 63 : 31;
  if constexpr (Op == BinaryOp::kShl) {
    return static_cast<std::int64_t>(U(x) << (y & kMask));
  }
  if constexpr (Op == BinaryOp::kShr) return x >> (y & kMask);
  if constexpr (Op == BinaryOp::kUShr) {
    if constexpr (kWide) return static_cast<std::int64_t>(U(x) >> (y & 63));
    return static_cast<std::int32_t>(
        static_cast<std::uint32_t>(static_cast<std::int32_t>(x)) >> (y & 31));
  }
  if constexpr (Op == BinaryOp::kAnd) return x & y;
  if constexpr (Op == BinaryOp::kOr) return x | y;
  if constexpr (Op == BinaryOp::kXor) return x ^ y;
  if constexpr (Op == BinaryOp::kMin) return std::min(x, y);
  if constexpr (Op == BinaryOp::kMax) return std::max(x, y);
}

template <BinaryOp Op, bool kWide, Src SA, Src SB>
Word EIntBin(const ENode& n, Frame& f) {
  const std::int64_t x = Fetch<SA>(n.a, f).i;
  const std::int64_t y = Fetch<SB>(n.b, f).i;
  const std::int64_t r = IntOp<Op, kWide>(x, y);
  return I64(kWide ? r : static_cast<std::int32_t>(r));
}

// min/max follow Java (jvm::JavaFMin/JavaFMax): NaN propagates and
// -0.0 < +0.0, matching the Math.min/max bytecode they came from.
template <BinaryOp Op, typename T>
T FloatOp(T x, T y) {
  if constexpr (Op == BinaryOp::kAdd) return x + y;
  if constexpr (Op == BinaryOp::kSub) return x - y;
  if constexpr (Op == BinaryOp::kMul) return x * y;
  if constexpr (Op == BinaryOp::kDiv) return x / y;
  if constexpr (Op == BinaryOp::kRem) return std::fmod(x, y);
  if constexpr (Op == BinaryOp::kMin) return jvm::JavaFMin(x, y);
  if constexpr (Op == BinaryOp::kMax) return jvm::JavaFMax(x, y);
}

template <BinaryOp Op, View V, Src SA, Src SB>
Word EFloatBin(const ENode& n, Frame& f) {
  const FloatOf<V> x = Get<V>(Fetch<SA>(n.a, f));
  const FloatOf<V> y = Get<V>(Fetch<SB>(n.b, f));
  return Put(FloatOp<Op>(x, y));
}

Word EFloatBitwise(const ENode& n, Frame& f) {
  Eval(n.a, f);
  Eval(n.b, f);
  throw InternalError("bitwise op on float in evaluator");
}

template <BinaryOp Op, View V, Src SA, Src SB>
Word ECmp(const ENode& n, Frame& f) {
  const auto x = Get<V>(Fetch<SA>(n.a, f));
  const auto y = Get<V>(Fetch<SB>(n.b, f));
  bool r = false;
  if constexpr (Op == BinaryOp::kLt) r = x < y;
  if constexpr (Op == BinaryOp::kLe) r = x <= y;
  if constexpr (Op == BinaryOp::kGt) r = x > y;
  if constexpr (Op == BinaryOp::kGe) r = x >= y;
  if constexpr (Op == BinaryOp::kEq) r = x == y;
  if constexpr (Op == BinaryOp::kNe) r = x != y;
  return I64(r ? 1 : 0);
}

// Both operands are evaluated (the IR's && and || do not short-circuit).
template <bool kAnd>
Word ELogical(const ENode& n, Frame& f) {
  const bool x = Eval(n.a, f).i != 0;
  const bool y = Eval(n.b, f).i != 0;
  return I64((kAnd ? (x && y) : (x || y)) ? 1 : 0);
}

template <View V>
Word ENegFloat(const ENode& n, Frame& f) {
  return Put(-Get<V>(Eval(n.a, f)));
}

template <bool kWide>
Word ENegInt(const ENode& n, Frame& f) {
  const auto r = static_cast<std::int64_t>(
      std::uint64_t{0} - static_cast<std::uint64_t>(Eval(n.a, f).i));
  return I64(kWide ? r : static_cast<std::int32_t>(r));
}

template <bool kWide>
Word EBitNot(const ENode& n, Frame& f) {
  const std::int64_t r = ~Eval(n.a, f).i;
  return I64(kWide ? r : static_cast<std::int32_t>(r));
}

Word ELogicalNot(const ENode& n, Frame& f) {
  return I64(Eval(n.a, f).i == 0 ? 1 : 0);
}

template <Intrinsic Fn, typename T>
T IntrinsicOp(T x, T y) {
  if constexpr (Fn == Intrinsic::kExp) return std::exp(x);
  if constexpr (Fn == Intrinsic::kLog) return std::log(x);
  if constexpr (Fn == Intrinsic::kSqrt) return std::sqrt(x);
  if constexpr (Fn == Intrinsic::kAbs) return std::fabs(x);
  if constexpr (Fn == Intrinsic::kPow) return std::pow(x, y);
}

// A float-typed call computes in float (C's f-suffixed functions); any
// other result type computes in double and converts.
template <Intrinsic Fn, TypeKind R>
Word ECall(const ENode& n, Frame& f) {
  if constexpr (R == TypeKind::kFloat) {
    const float x = Eval(n.a, f).f;
    const float y = n.b != nullptr ? Eval(n.b, f).f : 0.0f;
    return F32(IntrinsicOp<Fn>(x, y));
  } else {
    const double x = Eval(n.a, f).d;
    const double y = n.b != nullptr ? Eval(n.b, f).d : 0.0;
    const double r = IntrinsicOp<Fn>(x, y);
    if constexpr (R == TypeKind::kDouble) return F64(r);
    if constexpr (R == TypeKind::kLong) {
      return I64(jvm::JavaFloatToInt<std::int64_t>(r));
    }
    if constexpr (R == TypeKind::kInt) {
      return I64(jvm::JavaFloatToInt<std::int32_t>(r));
    }
  }
}

template <TypeKind TK, View V>
Word ECast(const ENode& n, Frame& f) {
  return Narrow<TK, V>(Eval(n.a, f));
}

Word ESelect(const ENode& n, Frame& f) {
  const ENode* arm = Eval(n.a, f).i != 0 ? n.b : n.c;
  Charge(f, arm->steps);
  return Eval(arm, f);
}

template <TypeKind TK, View V>
void SStoreVar(const SNode& s, Frame& f) {
  Charge(f, s.steps);
  const auto slot = static_cast<std::size_t>(s.slot);
  f.slots[slot] = Narrow<TK, V>(Eval(s.a, f));
  f.bound[slot] = 1;
}

void SDeclDefault(const SNode& s, Frame& f) {
  Charge(f, s.steps);
  const auto slot = static_cast<std::size_t>(s.slot);
  f.slots[slot] = s.lit;
  f.bound[slot] = 1;
}

template <TypeKind TK, View V>
void SStoreElem(const SNode& s, Frame& f) {
  Charge(f, s.steps);
  const Word v = Narrow<TK, V>(Eval(s.a, f));
  const std::int64_t index = Eval(s.index, f).i;
  std::vector<Value>& vec = *f.bufs[static_cast<std::size_t>(s.slot)];
  if (OutOfRange(index, vec.size())) [[unlikely]] {
    WriteOutOfBounds(f, s.slot, index);
  }
  vec[static_cast<std::size_t>(index)] = Box<TK>(v);
}

void SIf(const SNode& s, Frame& f) {
  Charge(f, s.steps);
  if (Eval(s.a, f).i != 0) {
    Exec(s.body, f);
  } else if (s.els != nullptr) {
    Exec(s.els, f);
  }
}

template <bool kTaskLoop>
void SFor(const SNode& s, Frame& f) {
  Charge(f, s.steps);
  const std::int64_t trip = kTaskLoop ? f.task_trip : s.trip;
  const auto slot = static_cast<std::size_t>(s.slot);
  if (trip > 0) f.bound[slot] = 1;
  for (std::int64_t i = 0; i < trip; ++i) {
    f.slots[slot].i = static_cast<std::int32_t>(i);
    Exec(s.body, f);
  }
}

void SBlock(const SNode& s, Frame& f) {
  Charge(f, s.steps);
  for (const SNode* child : s.stmts) Exec(child, f);
}

// ------------------------------------------------------- the compiler

// The node function of a binary op in `form` whose operands are read in
// view `in` from sources SA and SB.
template <Src SA, Src SB>
EvalFn BinaryFn(Form form, BinaryOp op, View in) {
  switch (form) {
    case Form::kCmpInt:
    case Form::kCmpFloat:
      return WithCmpOp(op, [&](auto o) {
        return WithView(in, [&](auto v) -> EvalFn {
          return &ECmp<o(), v(), SA, SB>;
        });
      });
    case Form::kLogical:
      return op == BinaryOp::kLAnd ? &ELogical<true> : &ELogical<false>;
    case Form::kFloat32:
    case Form::kFloat64:
      return WithArithOp(op, [&](auto o) -> EvalFn {
        constexpr BinaryOp kOp = o();
        if constexpr (kOp == BinaryOp::kAdd || kOp == BinaryOp::kSub ||
                      kOp == BinaryOp::kMul || kOp == BinaryOp::kDiv ||
                      kOp == BinaryOp::kRem || kOp == BinaryOp::kMin ||
                      kOp == BinaryOp::kMax) {
          return form == Form::kFloat32 ? &EFloatBin<kOp, View::kF32, SA, SB>
                                        : &EFloatBin<kOp, View::kF64, SA, SB>;
        } else {
          return &EFloatBitwise;
        }
      });
    case Form::kInt32:
    case Form::kInt64:
      return WithArithOp(op, [&](auto o) -> EvalFn {
        return form == Form::kInt64 ? &EIntBin<o(), true, SA, SB>
                                    : &EIntBin<o(), false, SA, SB>;
      });
  }
  S2FA_UNREACHABLE("bad binary form");
}

Word ConvertWord(Word w, View from, View to) {
  return WithView(to, [&](auto t) {
    return WithView(from, [&](auto fr) { return Convert<t(), fr()>(w); });
  });
}

class Compiler {
 public:
  Compiler(const Kernel& kernel, const TaskSpan& span, Program::Code& code)
      : kernel_(kernel), span_(span), code_(code) {}

  void Compile() {
    for (const auto& b : kernel_.buffers) {
      // Buffer names are unique (Validate), so id == declaration index.
      buffer_ids_.emplace(b.name,
                          static_cast<std::int32_t>(code_.buffers.size()));
      // Validate() guarantees a primitive element.
      code_.buffers.push_back(
          {b.name, b.kind, b.length, b.element, *KindOf(b.element.kind())});
    }
    for (const auto& s : kernel_.scalars) {
      const std::int32_t slot = Define(s.name, s.type);
      code_.scalars.push_back({s.name, slot, var_kinds_[slot]});
    }
    CollectDefinitions(*kernel_.body);
    code_.root = CompileStmt(*kernel_.body);
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    throw MalformedInput("kernel " + kernel_.name + ": " + what);
  }

  VKind KindOrFail(const Type& type, const std::string& what) const {
    const std::optional<VKind> k = KindOf(type.kind());
    if (!k) Fail(what + " has non-primitive type " + type.ToString());
    return *k;
  }

  std::int32_t Slot(const std::string& name) {
    auto it = var_slots_.find(name);
    if (it != var_slots_.end()) return it->second;
    // Read but never defined: reading it fails the bound check.
    const auto slot = static_cast<std::int32_t>(code_.var_names.size());
    code_.var_names.push_back(name);
    var_kinds_.push_back(VKind::kInt);
    var_slots_.emplace(name, slot);
    return slot;
  }

  // Records a definition of `name` at `type`: every definition of a
  // variable must agree on its kind.
  std::int32_t Define(const std::string& name, const Type& type) {
    const VKind kind = KindOrFail(type, "variable " + name);
    auto it = var_slots_.find(name);
    if (it == var_slots_.end()) {
      const std::int32_t slot = Slot(name);
      var_kinds_[static_cast<std::size_t>(slot)] = kind;
      return slot;
    }
    const VKind had = var_kinds_[static_cast<std::size_t>(it->second)];
    if (had != kind) {
      Fail("variable " + name + " is defined as both " + KindName(had) +
           " and " + KindName(kind));
    }
    return it->second;
  }

  void CollectDefinitions(const Stmt& stmt) {
    switch (stmt.kind()) {
      case StmtKind::kAssign: {
        const Expr& lhs = *stmt.lhs();
        if (lhs.kind() == ExprKind::kVar) {
          Define(lhs.name(), lhs.type());
          break;
        }
        const BufferSlot& buf = code_.buffers[BufferId(lhs.name())];
        const VKind stored = KindOrFail(lhs.type(), "store to " + buf.name);
        if (stored != buf.vkind) {
          Fail("buffer " + buf.name + " holds " + KindName(buf.vkind) +
               " but is stored as " + KindName(stored));
        }
        break;
      }
      case StmtKind::kDecl:
        Define(stmt.decl_name(), stmt.decl_type());
        break;
      case StmtKind::kIf:
        CollectDefinitions(*stmt.then_stmt());
        if (stmt.else_stmt()) CollectDefinitions(*stmt.else_stmt());
        break;
      case StmtKind::kFor:
        Define(stmt.loop_var(), Type::Int());
        CollectDefinitions(*stmt.body());
        break;
      case StmtKind::kBlock:
        for (const auto& s : stmt.stmts()) CollectDefinitions(*s);
        break;
    }
  }

  std::size_t BufferId(const std::string& name) const {
    // Validate() guarantees the buffer is declared.
    return static_cast<std::size_t>(buffer_ids_.at(name));
  }

  // The view a node's word holds its value in; nullopt for a select
  // whose arms differ (it then takes whatever view its consumer asks).
  std::optional<View> NaturalView(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::kIntLit:
        return View::kI64;
      case ExprKind::kFloatLit:
      case ExprKind::kCall:
      case ExprKind::kCast:
        return ViewOf(e.type().kind());
      case ExprKind::kVar:
        return ViewOf(var_kinds_[static_cast<std::size_t>(Slot(e.name()))]);
      case ExprKind::kArrayRef:
        return ViewOf(code_.buffers[BufferId(e.name())].vkind);
      case ExprKind::kBinary:
        switch (FormOf(e)) {
          case Form::kFloat32: return View::kF32;
          case Form::kFloat64: return View::kF64;
          default: return View::kI64;
        }
      case ExprKind::kUnary:
        if (e.unary_op() != UnaryOp::kNeg) return View::kI64;
        return ViewOf(e.operands()[0]->type().kind());
      case ExprKind::kSelect: {
        const std::optional<View> a = NaturalView(*e.operands()[1]);
        const std::optional<View> b = NaturalView(*e.operands()[2]);
        if (a == b) return a;
        return std::nullopt;
      }
    }
    S2FA_UNREACHABLE("bad expr kind");
  }

  ENode* NewExpr(EvalFn fn) {
    ENode& n = code_.exprs.emplace_back();
    n.fn = fn;
    return &n;
  }

  SNode* NewStmt(ExecFn fn) {
    SNode& s = code_.stmts.emplace_back();
    s.fn = fn;
    return &s;
  }

  // Compiles `expr` to a node whose word holds its value in view `want`.
  const ENode* CompileExpr(const ExprPtr& expr, View want) {
    const Expr& e = *expr;
    if (e.kind() == ExprKind::kIntLit || e.kind() == ExprKind::kFloatLit) {
      // Literals convert at compile time.
      ENode* n = NewExpr(&ELit);
      if (e.kind() == ExprKind::kIntLit) {
        n->lit = I64(e.type().kind() == TypeKind::kLong
                         ? e.int_value()
                         : static_cast<std::int32_t>(e.int_value()));
      } else if (e.type().kind() == TypeKind::kFloat) {
        n->lit = F32(static_cast<float>(e.float_value()));
      } else {
        n->lit = F64(e.float_value());
      }
      n->lit = ConvertWord(n->lit, *NaturalView(e), want);
      n->steps = 1;
      return n;
    }
    if (e.kind() == ExprKind::kSelect) {
      // The arms take the consumer's view: converting the chosen arm and
      // choosing a converted arm are the same thing.
      ENode* n = NewExpr(&ESelect);
      n->a = CompileExpr(e.operands()[0], View::kI64);
      n->b = CompileExpr(e.operands()[1], want);
      n->c = CompileExpr(e.operands()[2], want);
      n->steps = 1 + n->a->steps;
      return n;
    }
    ENode* node = CompileNatural(e);
    node->steps = 1;
    for (const ENode* child : {node->a, node->b, node->c}) {
      if (child != nullptr) node->steps += child->steps;
    }
    const View have = *NaturalView(e);
    if (have == want) return node;
    ENode* cvt = NewExpr(WithView(want, [&](auto to) {
      return WithView(have,
                      [&](auto from) -> EvalFn { return &ECvt<to(), from()>; });
    }));
    cvt->a = node;
    cvt->steps = node->steps;
    return cvt;
  }

  // The view a conversion reads `e` in: its own when it has one.
  View SourceView(const Expr& e, TypeKind target) {
    return NaturalView(e).value_or(ViewOf(target));
  }

  // Compiles a non-literal, non-select node in its natural view.
  ENode* CompileNatural(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::kVar: {
        ENode* n = NewExpr(&EVar);
        n->slot = Slot(e.name());
        return n;
      }
      case ExprKind::kArrayRef: {
        const std::size_t id = BufferId(e.name());
        ENode* n = NewExpr(nullptr);
        n->slot = static_cast<std::int32_t>(id);
        n->a = CompileExpr(e.operands()[0], View::kI64);
        n->fn = WithSrc(SrcOf(n->a), [&](auto i) -> EvalFn {
          switch (code_.buffers[id].vkind) {
            case VKind::kInt: return &ELoad<VKind::kInt, i()>;
            case VKind::kLong: return &ELoad<VKind::kLong, i()>;
            case VKind::kFloat: return &ELoad<VKind::kFloat, i()>;
            case VKind::kDouble: break;
          }
          return &ELoad<VKind::kDouble, i()>;
        });
        return n;
      }
      case ExprKind::kBinary:
        return CompileBinary(e);
      case ExprKind::kUnary: {
        const TypeKind opnd = e.operands()[0]->type().kind();
        const bool wide = opnd == TypeKind::kLong;
        EvalFn fn = nullptr;
        View in = View::kI64;
        switch (e.unary_op()) {
          case UnaryOp::kNeg:
            in = ViewOf(opnd);
            if (in == View::kF32) {
              fn = &ENegFloat<View::kF32>;
            } else if (in == View::kF64) {
              fn = &ENegFloat<View::kF64>;
            } else {
              fn = wide ? &ENegInt<true> : &ENegInt<false>;
            }
            break;
          case UnaryOp::kBitNot:
            fn = wide ? &EBitNot<true> : &EBitNot<false>;
            break;
          case UnaryOp::kLogicalNot:
            fn = &ELogicalNot;
            break;
        }
        ENode* n = NewExpr(fn);
        n->a = CompileExpr(e.operands()[0], in);
        return n;
      }
      case ExprKind::kCall: {
        TypeKind r = e.type().kind();
        if (r != TypeKind::kFloat && r != TypeKind::kDouble &&
            r != TypeKind::kLong) {
          r = TypeKind::kInt;
        }
        const EvalFn fn = WithIntrinsic(e.intrinsic(), [&](auto c) -> EvalFn {
          switch (r) {
            case TypeKind::kFloat: return &ECall<c(), TypeKind::kFloat>;
            case TypeKind::kDouble: return &ECall<c(), TypeKind::kDouble>;
            case TypeKind::kLong: return &ECall<c(), TypeKind::kLong>;
            default: return &ECall<c(), TypeKind::kInt>;
          }
        });
        const View in =
            r == TypeKind::kFloat ? View::kF32 : View::kF64;
        ENode* n = NewExpr(fn);
        n->a = CompileExpr(e.operands()[0], in);
        if (e.operands().size() > 1) n->b = CompileExpr(e.operands()[1], in);
        return n;
      }
      case ExprKind::kCast: {
        const TypeKind to = e.type().kind();
        KindOrFail(e.type(), "cast");
        const View from = SourceView(*e.operands()[0], to);
        ENode* n = NewExpr(WithStoreType(to, [&](auto t) {
          return WithView(from,
                          [&](auto v) -> EvalFn { return &ECast<t(), v()>; });
        }));
        n->a = CompileExpr(e.operands()[0], from);
        return n;
      }
      default:
        break;
    }
    S2FA_UNREACHABLE("literal or select compiled as a natural node");
  }

  // How a parent reads `child`: inline when it is a variable or literal.
  static Src SrcOf(const ENode* child) {
    if (child->fn == &EVar) return Src::kVar;
    if (child->fn == &ELit) return Src::kLit;
    return Src::kNode;
  }

  ENode* CompileBinary(const Expr& e) {
    const Form form = FormOf(e);
    View in = View::kI64;
    if (form == Form::kFloat32) in = View::kF32;
    if (form == Form::kFloat64) in = View::kF64;
    if (form == Form::kCmpFloat) {
      // Two floats compare exactly as their widened doubles do.
      const bool both_float =
          NaturalView(*e.operands()[0]) == View::kF32 &&
          NaturalView(*e.operands()[1]) == View::kF32;
      in = both_float ? View::kF32 : View::kF64;
    }
    ENode* n = NewExpr(nullptr);
    n->a = CompileExpr(e.operands()[0], in);
    n->b = CompileExpr(e.operands()[1], in);
    // A literal first operand is rare: it is read as a node.
    const Src sa = SrcOf(n->a) == Src::kVar ? Src::kVar : Src::kNode;
    n->fn = WithSrc(sa, [&](auto a) {
      return WithSrc(SrcOf(n->b), [&](auto b) {
        return BinaryFn<a(), b()>(form, e.binary_op(), in);
      });
    });
    return n;
  }


  // A store of `rhs` converted to `type`: into variable slot or buffer id
  // `target` (element `index` when non-null).
  SNode* CompileStore(const Type& type, const ExprPtr& rhs,
                      std::int32_t target, const ExprPtr* index) {
    const TypeKind to = type.kind();
    const View from = SourceView(*rhs, to);
    SNode* s = NewStmt(WithStoreType(to, [&](auto t) {
      return WithView(from, [&](auto v) -> ExecFn {
        if (index != nullptr) return &SStoreElem<t(), v()>;
        return &SStoreVar<t(), v()>;
      });
    }));
    s->a = CompileExpr(rhs, from);
    s->steps = 1 + s->a->steps;
    if (index != nullptr) {
      s->index = CompileExpr(*index, View::kI64);
      s->steps += s->index->steps;
    }
    s->slot = target;
    return s;
  }

  const SNode* CompileStmt(const Stmt& stmt) {
    switch (stmt.kind()) {
      case StmtKind::kAssign: {
        const Expr& lhs = *stmt.lhs();
        if (lhs.kind() == ExprKind::kVar) {
          return CompileStore(lhs.type(), stmt.rhs(), Slot(lhs.name()),
                              nullptr);
        }
        return CompileStore(
            lhs.type(), stmt.rhs(),
            static_cast<std::int32_t>(BufferId(lhs.name())),
            &lhs.operands()[0]);
      }
      case StmtKind::kDecl: {
        const std::int32_t slot = Slot(stmt.decl_name());
        if (stmt.init()) {
          return CompileStore(stmt.decl_type(), stmt.init(), slot, nullptr);
        }
        SNode* s = NewStmt(&SDeclDefault);
        s->slot = slot;
        s->steps = 1;
        s->lit = Word{};  // all-zero bits: 0, 0L, +0.0f and +0.0 alike
        return s;
      }
      case StmtKind::kIf: {
        SNode* s = NewStmt(&SIf);
        s->a = CompileExpr(stmt.cond(), View::kI64);
        s->steps = 1 + s->a->steps;
        s->body = CompileStmt(*stmt.then_stmt());
        if (stmt.else_stmt()) s->els = CompileStmt(*stmt.else_stmt());
        return s;
      }
      case StmtKind::kFor: {
        SNode* s = NewStmt(&stmt == span_.loop() ? &SFor<true> : &SFor<false>);
        s->slot = Slot(stmt.loop_var());
        s->steps = 1;
        s->trip = stmt.trip_count();
        s->body = CompileStmt(*stmt.body());
        return s;
      }
      case StmtKind::kBlock: {
        SNode* s = NewStmt(&SBlock);
        s->steps = 1;
        s->stmts.reserve(stmt.stmts().size());
        for (const auto& child : stmt.stmts()) {
          s->stmts.push_back(CompileStmt(*child));
        }
        return s;
      }
    }
    S2FA_UNREACHABLE("bad stmt kind");
  }

  const Kernel& kernel_;
  const TaskSpan& span_;
  Program::Code& code_;
  std::map<std::string, std::int32_t> var_slots_;
  std::vector<VKind> var_kinds_;  // slot -> static kind
  std::map<std::string, std::int32_t> buffer_ids_;
};

// Rejects a buffer holding an element that is not of the buffer's kind.
void CheckElementKinds(const BufferSlot& b, const std::vector<Value>& data) {
  const auto bad = std::find_if(data.begin(), data.end(), [&](const Value& v) {
    return !HasKind(v, b.vkind);
  });
  if (bad == data.end()) return;
  throw InvalidArgument("buffer " + b.name + " element " +
                        std::to_string(bad - data.begin()) + " is " +
                        ValueKindName(*bad) + ", declared " +
                        KindName(b.vkind));
}

}  // namespace

// --------------------------------------------------------------------------
// TaskSpan: the live-task contract.
// --------------------------------------------------------------------------

TaskSpan::TaskSpan(const Kernel& kernel) {
  if (!kernel.body || kernel.task_loop_id < 0) return;
  loop_ = FindLoop(kernel.body, kernel.task_loop_id);
  if (loop_ == nullptr) return;
  trip_ = loop_->trip_count();
  // The template batch is the row count of the per-task interface buffers
  // (broadcast inputs and reduce outputs hold one row, so take the max).
  std::int64_t batch = 0;
  for (const auto& b : kernel.buffers) {
    if (b.kind == BufferKind::kLocal || b.per_task <= 0) continue;
    batch = std::max(batch, b.length / b.per_task);
  }
  batch_ = std::max(batch, trip_);
  if (batch % trip_ != 0) return;
  // One task per iteration (the b2c template), or one tile per iteration
  // after Merlin tiling: the body is then exactly the point loop.
  const std::int64_t per_iter = batch / trip_;
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
  if (!live_tasks || tasks_per_iter_ == 0) return trip_;
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
// Program and Evaluator.
// --------------------------------------------------------------------------

Program::Program(const Kernel& kernel) : span_(kernel) {
  kernel.Validate();
  auto code = std::make_unique<Code>();
  Compiler(kernel, span_, *code).Compile();
  code_ = std::move(code);
}

Program::~Program() = default;

Evaluator::Evaluator(const Kernel& kernel)
    : Evaluator(std::make_shared<const Program>(kernel)) {}

Evaluator::Evaluator(std::shared_ptr<const Program> program)
    : program_(std::move(program)), frame_(std::make_unique<Frame>()) {
  S2FA_REQUIRE(program_ != nullptr, "evaluator needs a program");
  const Program::Code& code = *program_->code_;
  Frame& f = *frame_;
  f.slots.assign(code.var_names.size(), Word{});
  f.bound.assign(code.var_names.size(), 0);
  f.bufs.assign(code.buffers.size(), nullptr);
  f.code = &code;
}

Evaluator::~Evaluator() = default;
Evaluator::Evaluator(Evaluator&&) noexcept = default;
Evaluator& Evaluator::operator=(Evaluator&&) noexcept = default;

std::uint64_t Evaluator::last_steps() const { return frame_->steps; }

void Evaluator::Run(const std::map<std::string, Value>& scalars,
                    BufferMap& buffers,
                    std::optional<std::int64_t> live_tasks) {
  const Program::Code& code = *program_->code_;
  Frame& f = *frame_;
  f.steps = 0;
  f.task_trip = program_->span_.Iterations(live_tasks);
  std::fill(f.bound.begin(), f.bound.end(), 0);
  for (const Param& p : code.scalars) {
    auto it = scalars.find(p.name);
    S2FA_REQUIRE(it != scalars.end(), "missing scalar argument " << p.name);
    if (!HasKind(it->second, p.kind)) {
      throw InvalidArgument("scalar argument " + p.name + " is " +
                            ValueKindName(it->second) + ", declared " +
                            KindName(p.kind));
    }
    const auto slot = static_cast<std::size_t>(p.slot);
    f.slots[slot] = Load(p.kind, it->second);
    f.bound[slot] = 1;
  }
  for (std::size_t i = 0; i < code.buffers.size(); ++i) {
    const BufferSlot& b = code.buffers[i];
    auto it = buffers.find(b.name);
    if (it == buffers.end()) {
      S2FA_REQUIRE(b.kind != BufferKind::kInput,
                   "missing input buffer " << b.name);
      it = buffers
               .emplace(b.name,
                        std::vector<Value>(static_cast<std::size_t>(b.length),
                                           jvm::DefaultValue(b.element)))
               .first;
    } else {
      CheckElementKinds(b, it->second);
    }
    f.bufs[i] = &it->second;
  }
  Exec(code.root, f);
}

}  // namespace s2fa::kir
