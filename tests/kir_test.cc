#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "kir/analysis.h"
#include "kir/arena.h"
#include "kir/eval.h"
#include "kir/kernel.h"
#include "kir/printer.h"
#include "support/rng.h"
#include "testlib/reference_eval.h"

namespace s2fa::kir {
namespace {

using jvm::Value;

// ----------------------------------------------------------------- expr

TEST(ExprTest, LiteralFactoriesEnforceTypes) {
  EXPECT_NO_THROW(Expr::IntLit(5));
  EXPECT_NO_THROW(Expr::FloatLit(2.5, Type::Double()));
  EXPECT_THROW(Expr::IntLit(5, Type::Float()), InvalidArgument);
  EXPECT_THROW(Expr::FloatLit(2.5, Type::Int()), InvalidArgument);
}

TEST(ExprTest, BinaryResultTypes) {
  auto f = Expr::Var("x", Type::Float());
  auto cmp = Expr::Binary(BinaryOp::kLt, f, Expr::FloatLit(1.0f));
  EXPECT_EQ(cmp->type(), Type::Int());
  auto add = Expr::Binary(BinaryOp::kAdd, f, Expr::FloatLit(1.0f));
  EXPECT_EQ(add->type(), Type::Float());
}

TEST(ExprTest, SubstituteVarReplacesAllUses) {
  auto i = Expr::Var("i", Type::Int());
  auto e = Expr::Binary(BinaryOp::kAdd, Expr::Binary(BinaryOp::kMul, i, i),
                        Expr::Var("j", Type::Int()));
  auto r = SubstituteVar(e, "i", Expr::IntLit(3));
  EXPECT_EQ(r->ToString(), "((3 * 3) + j)");
  // Original untouched (immutability).
  EXPECT_EQ(e->ToString(), "((i * i) + j)");
}

TEST(ExprTest, TransformSharesUnchangedSubtrees) {
  auto a = Expr::Var("a", Type::Int());
  auto b = Expr::Var("b", Type::Int());
  auto e = Expr::Binary(BinaryOp::kAdd, a, b);
  auto same = TransformExpr(
      e, [](const Expr&, const std::vector<ExprPtr>&) { return ExprPtr(); });
  EXPECT_EQ(same.get(), e.get());  // no change -> same node
}

TEST(ExprTest, VisitCountsNodes) {
  auto e = Expr::Binary(
      BinaryOp::kAdd, Expr::Var("x", Type::Int()),
      Expr::ArrayRef("buf", Type::Int(), Expr::Var("i", Type::Int())));
  int nodes = 0;
  VisitExpr(e, [&nodes](const Expr&) { ++nodes; });
  EXPECT_EQ(nodes, 4);
}

TEST(ExprTest, CallArityChecked) {
  EXPECT_THROW(
      Expr::Call(Intrinsic::kPow, {Expr::FloatLit(1.0f)}, Type::Float()),
      InvalidArgument);
  EXPECT_NO_THROW(Expr::Call(Intrinsic::kExp, {Expr::FloatLit(1.0f)},
                             Type::Float()));
}

// ----------------------------------------------------------------- stmt

TEST(StmtTest, AssignRequiresLValue) {
  auto lit = Expr::IntLit(5);
  EXPECT_THROW(Stmt::Assign(lit, lit), InvalidArgument);
  EXPECT_NO_THROW(Stmt::Assign(Expr::Var("x", Type::Int()), lit));
}

TEST(StmtTest, ForRejectsBadTripCount) {
  auto body = Stmt::Block({});
  EXPECT_THROW(Stmt::For(0, "i", 0, body), InvalidArgument);
  EXPECT_NO_THROW(Stmt::For(0, "i", 1, body));
}

TEST(StmtTest, CloneIsDeep) {
  auto inner = Stmt::For(1, "j", 4, Stmt::Block({}));
  auto outer = Stmt::For(0, "i", 8, Stmt::Block({inner}));
  outer->annotations()["ACCEL"] = "PIPELINE";
  auto copy = outer->Clone();
  copy->set_trip_count(99);
  copy->annotations()["ACCEL"] = "changed";
  FindLoop(copy, 1)->set_trip_count(77);
  EXPECT_EQ(outer->trip_count(), 8);
  EXPECT_EQ(outer->annotations().at("ACCEL"), "PIPELINE");
  EXPECT_EQ(FindLoop(outer, 1), inner.get());
  EXPECT_EQ(inner->trip_count(), 4);
}

TEST(StmtTest, CollectLoopsPreOrder) {
  auto l2 = Stmt::For(2, "k", 2, Stmt::Block({}));
  auto l1 = Stmt::For(1, "j", 3, Stmt::Block({l2}));
  auto l0 = Stmt::For(0, "i", 4, Stmt::Block({l1}));
  auto root = Stmt::Block({l0});
  auto loops = CollectLoops(root);
  ASSERT_EQ(loops.size(), 3u);
  EXPECT_EQ(loops[0]->loop_id(), 0);
  EXPECT_EQ(loops[1]->loop_id(), 1);
  EXPECT_EQ(loops[2]->loop_id(), 2);
  EXPECT_EQ(FindLoop(root, 5), nullptr);
}

// --------------------------------------------------------------- kernel

// Builds kernel: out[i] = in[i] * 2 + 1 for i in [0, 16).
Kernel MakeScaleKernel() {
  Kernel k;
  k.name = "scale";
  k.pattern = ParallelPattern::kMap;
  k.scalars.push_back({"N", Type::Int()});
  k.buffers.push_back({"in", Type::Float(), 16, BufferKind::kInput, "in._1"});
  k.buffers.push_back(
      {"out", Type::Float(), 16, BufferKind::kOutput, "ret._1"});
  auto i = Expr::Var("i", Type::Int());
  auto body = Stmt::Assign(
      Expr::ArrayRef("out", Type::Float(), i),
      Expr::Binary(BinaryOp::kAdd,
                   Expr::Binary(BinaryOp::kMul,
                                Expr::ArrayRef("in", Type::Float(), i),
                                Expr::FloatLit(2.0f)),
                   Expr::FloatLit(1.0f)));
  auto loop = Stmt::For(0, "i", 16, Stmt::Block({body}));
  loop->set_inserted_by_template(true);
  k.body = Stmt::Block({loop});
  k.task_loop_id = 0;
  return k;
}

TEST(KernelTest, ValidatePasses) {
  EXPECT_NO_THROW(MakeScaleKernel().Validate());
}

TEST(KernelTest, ValidateCatchesUndeclaredBuffer) {
  Kernel k = MakeScaleKernel();
  k.buffers.pop_back();  // drop "out"
  EXPECT_THROW(k.Validate(), MalformedInput);
}

TEST(KernelTest, ValidateCatchesDuplicateLoopIds) {
  Kernel k = MakeScaleKernel();
  auto extra = Stmt::For(0, "j", 2, Stmt::Block({}));
  k.body->stmts().push_back(extra);
  EXPECT_THROW(k.Validate(), MalformedInput);
}

TEST(KernelTest, BufferQueries) {
  Kernel k = MakeScaleKernel();
  EXPECT_NE(k.FindBuffer("in"), nullptr);
  EXPECT_EQ(k.FindBuffer("nope"), nullptr);
  EXPECT_EQ(k.InputBuffers().size(), 1u);
  EXPECT_EQ(k.OutputBuffers().size(), 1u);
  EXPECT_EQ(k.LocalBuffers().size(), 0u);
  EXPECT_EQ(k.MaxLoopId(), 0);
  EXPECT_EQ(k.FindBuffer("in")->byte_size(), 64);
}

TEST(KernelTest, CloneIsIndependent) {
  Kernel k = MakeScaleKernel();
  Kernel c = k.Clone();
  FindLoop(c.body, 0)->set_trip_count(999);
  EXPECT_EQ(FindLoop(k.body, 0)->trip_count(), 16);
}

// -------------------------------------------------------------- printer

TEST(PrinterTest, EmitsCompilableLookingC) {
  std::string c = EmitC(MakeScaleKernel());
  EXPECT_NE(c.find("void scale(int N, float *in, float *out)"),
            std::string::npos);
  EXPECT_NE(c.find("for (int i = 0; i < 16; i++)"), std::string::npos);
  EXPECT_NE(c.find("out[i] = ((in[i] * 2.0f) + 1.0f);"), std::string::npos);
  EXPECT_NE(c.find("#include <math.h>"), std::string::npos);
}

TEST(PrinterTest, EmitsPragmas) {
  Kernel k = MakeScaleKernel();
  FindLoop(k.body, 0)->annotations()["ACCEL"] = "PIPELINE flatten";
  std::string c = EmitC(k);
  EXPECT_NE(c.find("#pragma ACCEL PIPELINE flatten"), std::string::npos);
}

TEST(PrinterTest, LocalBuffersBecomeStaticArrays) {
  Kernel k = MakeScaleKernel();
  k.buffers.push_back({"scratch", Type::Int(), 64, BufferKind::kLocal, ""});
  std::string c = EmitC(k);
  EXPECT_NE(c.find("static int scratch[64];"), std::string::npos);
}

TEST(PrinterTest, UnsignedShiftExpansion) {
  auto e = Expr::Binary(BinaryOp::kUShr, Expr::Var("x", Type::Int()),
                        Expr::IntLit(3));
  std::string c = EmitExprC(e);
  EXPECT_NE(c.find("unsigned int"), std::string::npos);
}

TEST(PrinterTest, MinMaxUseMacros) {
  auto e = Expr::Binary(BinaryOp::kMax, Expr::Var("x", Type::Int()),
                        Expr::IntLit(0));
  EXPECT_EQ(EmitExprC(e), "S2FA_MAX(x, 0)");
}

TEST(PrinterTest, FloatIntrinsicsGetSuffix) {
  auto e = Expr::Call(Intrinsic::kExp, {Expr::Var("x", Type::Float())},
                      Type::Float());
  EXPECT_EQ(EmitExprC(e), "expf(x)");
  auto d = Expr::Call(Intrinsic::kExp, {Expr::Var("x", Type::Double())},
                      Type::Double());
  EXPECT_EQ(EmitExprC(d), "exp(x)");
}

// ------------------------------------------------------------ evaluator

TEST(EvalTest, RunsMapKernel) {
  Kernel k = MakeScaleKernel();
  Evaluator ev(k);
  BufferMap buffers;
  for (int i = 0; i < 16; ++i) {
    buffers["in"].push_back(Value::OfFloat(static_cast<float>(i)));
  }
  ev.Run({{"N", Value::OfInt(16)}}, buffers);
  for (int i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(buffers["out"][static_cast<std::size_t>(i)].AsFloat(),
                    2.0f * i + 1.0f);
  }
}

TEST(EvalTest, MissingInputThrows) {
  Kernel k = MakeScaleKernel();
  Evaluator ev(k);
  BufferMap buffers;
  EXPECT_THROW(ev.Run({{"N", Value::OfInt(16)}}, buffers), InvalidArgument);
}

TEST(EvalTest, MissingScalarThrows) {
  Kernel k = MakeScaleKernel();
  Evaluator ev(k);
  BufferMap buffers;
  buffers["in"].assign(16, Value::OfFloat(0.0f));
  EXPECT_THROW(ev.Run({}, buffers), InvalidArgument);
}

TEST(EvalTest, OutOfBoundsWriteThrows) {
  Kernel k = MakeScaleKernel();
  FindLoop(k.body, 0)->set_trip_count(32);  // runs past the buffers
  Evaluator ev(k);
  BufferMap buffers;
  buffers["in"].assign(16, Value::OfFloat(0.0f));
  EXPECT_THROW(ev.Run({{"N", Value::OfInt(16)}}, buffers), InvalidArgument);
}

TEST(EvalTest, ConditionalAndSelectAgree) {
  // out[i] = (in[i] > 0) ? in[i] : -in[i]  both as If and as Select.
  auto i = Expr::Var("i", Type::Int());
  auto in_i = Expr::ArrayRef("in", Type::Float(), i);
  auto out_i = Expr::ArrayRef("out", Type::Float(), i);
  auto cond = Expr::Binary(BinaryOp::kGt, in_i, Expr::FloatLit(0.0f));

  Kernel k_if;
  k_if.name = "abs_if";
  k_if.buffers.push_back({"in", Type::Float(), 8, BufferKind::kInput, ""});
  k_if.buffers.push_back({"out", Type::Float(), 8, BufferKind::kOutput, ""});
  auto then_s = Stmt::Assign(out_i, in_i);
  auto else_s = Stmt::Assign(out_i, Expr::Unary(UnaryOp::kNeg, in_i));
  k_if.body = Stmt::Block({Stmt::For(0, "i", 8,
                                     Stmt::Block({Stmt::If(cond, then_s,
                                                           else_s)}))});

  Kernel k_sel;
  k_sel.name = "abs_sel";
  k_sel.buffers = k_if.buffers;
  k_sel.body = Stmt::Block({Stmt::For(
      0, "i", 8,
      Stmt::Block({Stmt::Assign(
          out_i, Expr::Select(cond, in_i, Expr::Unary(UnaryOp::kNeg, in_i)))}))});

  Rng rng(5);
  BufferMap b1, b2;
  for (int t = 0; t < 8; ++t) {
    float v = static_cast<float>(rng.NextDouble(-5, 5));
    b1["in"].push_back(Value::OfFloat(v));
    b2["in"].push_back(Value::OfFloat(v));
  }
  Evaluator(k_if).Run({}, b1);
  Evaluator(k_sel).Run({}, b2);
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(b1["out"][static_cast<std::size_t>(t)].AsFloat(),
              b2["out"][static_cast<std::size_t>(t)].AsFloat());
    EXPECT_EQ(b1["out"][static_cast<std::size_t>(t)].AsFloat(),
              std::fabs(b1["in"][static_cast<std::size_t>(t)].AsFloat()));
  }
}

TEST(EvalTest, IntegerNarrowingOnByteBuffer) {
  Kernel k;
  k.name = "bytes";
  k.buffers.push_back({"out", Type::Byte(), 1, BufferKind::kOutput, ""});
  k.body = Stmt::Block({Stmt::Assign(
      Expr::ArrayRef("out", Type::Byte(), Expr::IntLit(0)),
      Expr::IntLit(300))});
  BufferMap buffers;
  Evaluator(k).Run({}, buffers);
  EXPECT_EQ(buffers["out"][0].AsInt(), 44);  // 300 mod 256
}

TEST(EvalTest, WideLongComparesAreExact) {
  // 2^53 and 2^53+1 are indistinguishable as doubles; Java long compares
  // must still see them as distinct (regression: comparisons used to route
  // integral operands through a double conversion).
  const std::int64_t big = std::int64_t{1} << 53;
  Kernel k;
  k.name = "longcmp";
  k.buffers.push_back({"out", Type::Int(), 2, BufferKind::kOutput, ""});
  auto a = Expr::IntLit(big, Type::Long());
  auto b = Expr::IntLit(big + 1, Type::Long());
  k.body = Stmt::Block(
      {Stmt::Assign(Expr::ArrayRef("out", Type::Int(), Expr::IntLit(0)),
                    Expr::Binary(BinaryOp::kEq, a, b)),
       Stmt::Assign(Expr::ArrayRef("out", Type::Int(), Expr::IntLit(1)),
                    Expr::Binary(BinaryOp::kLt, a, b))});
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "Evaluator" : "ReferenceEvaluator");
    BufferMap buffers;
    if (pass == 0) {
      Evaluator(k).Run({}, buffers);
    } else {
      ReferenceEvaluator(k).Run({}, buffers);
    }
    EXPECT_EQ(buffers["out"][0].AsInt(), 0);  // not equal
    EXPECT_EQ(buffers["out"][1].AsInt(), 1);  // strictly less
  }
}

TEST(EvalTest, FloatMinMaxFollowJavaSemantics) {
  // Java Math.min/max: NaN propagates, and the zeros are ordered
  // (-0.0 < +0.0). fmin/fmax get both wrong.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Kernel k;
  k.name = "minmax";
  k.buffers.push_back({"out", Type::Float(), 4, BufferKind::kOutput, ""});
  auto at = [](std::int64_t i) {
    return Expr::ArrayRef("out", Type::Float(), Expr::IntLit(i));
  };
  k.body = Stmt::Block(
      {Stmt::Assign(at(0), Expr::Binary(BinaryOp::kMin, Expr::FloatLit(0.0),
                                        Expr::FloatLit(-0.0))),
       Stmt::Assign(at(1), Expr::Binary(BinaryOp::kMax, Expr::FloatLit(-0.0),
                                        Expr::FloatLit(0.0))),
       Stmt::Assign(at(2), Expr::Binary(BinaryOp::kMin, Expr::FloatLit(nan),
                                        Expr::FloatLit(1.0))),
       Stmt::Assign(at(3), Expr::Binary(BinaryOp::kMax, Expr::FloatLit(1.0),
                                        Expr::FloatLit(nan)))});
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "Evaluator" : "ReferenceEvaluator");
    BufferMap buffers;
    if (pass == 0) {
      Evaluator(k).Run({}, buffers);
    } else {
      ReferenceEvaluator(k).Run({}, buffers);
    }
    EXPECT_TRUE(std::signbit(buffers["out"][0].AsFloat()));   // min(0,-0)=-0
    EXPECT_FALSE(std::signbit(buffers["out"][1].AsFloat()));  // max(-0,0)=+0
    EXPECT_TRUE(std::isnan(buffers["out"][2].AsFloat()));
    EXPECT_TRUE(std::isnan(buffers["out"][3].AsFloat()));
  }
}

TEST(EvalTest, SlotAndReferenceWalkersCountSameSteps) {
  // Both implementations charge one step per IR node visited, so the
  // runaway budget trips at the same point in either.
  Kernel k = MakeScaleKernel();
  BufferMap b1, b2;
  for (int i = 0; i < 16; ++i) {
    b1["in"].push_back(Value::OfFloat(static_cast<float>(i)));
    b2["in"].push_back(Value::OfFloat(static_cast<float>(i)));
  }
  Evaluator fast(k);
  fast.Run({{"N", Value::OfInt(16)}}, b1);
  ReferenceEvaluator ref(k);
  ref.Run({{"N", Value::OfInt(16)}}, b2);
  EXPECT_GT(fast.last_steps(), 0u);
  EXPECT_EQ(fast.last_steps(), ref.last_steps());
}

// ----------------------------------------------------- static value kinds

// Runs `k` through both evaluators and returns the typed evaluator's
// buffers after checking the reference walker agrees on every element.
BufferMap RunBothAgreeing(const Kernel& k, BufferMap inputs = {},
                          const std::map<std::string, Value>& scalars = {}) {
  BufferMap fast = inputs;
  BufferMap ref = inputs;
  Evaluator ev(k);
  ev.Run(scalars, fast);
  ReferenceEvaluator rev(k);
  rev.Run(scalars, ref);
  EXPECT_EQ(ev.last_steps(), rev.last_steps());
  EXPECT_EQ(fast.size(), ref.size());
  for (const auto& [name, data] : fast) {
    EXPECT_EQ(data, ref[name]) << "buffer " << name;
  }
  return fast;
}

TEST(EvalTest, LongDivisionOverflowFollowsJava) {
  // Long.MIN_VALUE / -1 == MIN_VALUE and % -1 == 0 (native division
  // traps); the int forms narrow the same way.
  Kernel k;
  k.name = "minover";
  k.buffers.push_back({"out", Type::Long(), 2, BufferKind::kOutput, ""});
  k.buffers.push_back({"iout", Type::Int(), 2, BufferKind::kOutput, ""});
  auto lmin = Expr::IntLit(INT64_MIN, Type::Long());
  auto lneg1 = Expr::IntLit(-1, Type::Long());
  auto imin = Expr::IntLit(INT32_MIN);
  auto ineg1 = Expr::IntLit(-1);
  auto at = [](const char* buf, Type t, std::int64_t i) {
    return Expr::ArrayRef(buf, t, Expr::IntLit(i));
  };
  k.body = Stmt::Block(
      {Stmt::Assign(at("out", Type::Long(), 0),
                    Expr::Binary(BinaryOp::kDiv, lmin, lneg1)),
       Stmt::Assign(at("out", Type::Long(), 1),
                    Expr::Binary(BinaryOp::kRem, lmin, lneg1)),
       Stmt::Assign(at("iout", Type::Int(), 0),
                    Expr::Binary(BinaryOp::kDiv, imin, ineg1)),
       Stmt::Assign(at("iout", Type::Int(), 1),
                    Expr::Binary(BinaryOp::kRem, imin, ineg1))});
  BufferMap out = RunBothAgreeing(k);
  EXPECT_EQ(out["out"][0].AsLong(), INT64_MIN);
  EXPECT_EQ(out["out"][1].AsLong(), 0);
  EXPECT_EQ(out["iout"][0].AsInt(), INT32_MIN);
  EXPECT_EQ(out["iout"][1].AsInt(), 0);
}

TEST(EvalTest, IntegerArithmeticWrapsLikeJava) {
  Kernel k;
  k.name = "wrap";
  k.buffers.push_back({"out", Type::Long(), 4, BufferKind::kOutput, ""});
  k.buffers.push_back({"iout", Type::Int(), 2, BufferKind::kOutput, ""});
  auto lmax = Expr::IntLit(INT64_MAX, Type::Long());
  auto lmin = Expr::IntLit(INT64_MIN, Type::Long());
  auto at = [](const char* buf, Type t, std::int64_t i) {
    return Expr::ArrayRef(buf, t, Expr::IntLit(i));
  };
  k.body = Stmt::Block(
      {Stmt::Assign(at("out", Type::Long(), 0),
                    Expr::Binary(BinaryOp::kAdd, lmax,
                                 Expr::IntLit(1, Type::Long()))),
       Stmt::Assign(at("out", Type::Long(), 1),
                    Expr::Binary(BinaryOp::kMul, lmax,
                                 Expr::IntLit(3, Type::Long()))),
       Stmt::Assign(at("out", Type::Long(), 2),
                    Expr::Unary(UnaryOp::kNeg, lmin)),
       Stmt::Assign(at("out", Type::Long(), 3),
                    Expr::Binary(BinaryOp::kShl, lmax, Expr::IntLit(65))),
       Stmt::Assign(at("iout", Type::Int(), 0),
                    Expr::Binary(BinaryOp::kAdd, Expr::IntLit(INT32_MAX),
                                 Expr::IntLit(1))),
       Stmt::Assign(at("iout", Type::Int(), 1),
                    Expr::Unary(UnaryOp::kNeg, Expr::IntLit(INT32_MIN)))});
  BufferMap out = RunBothAgreeing(k);
  EXPECT_EQ(out["out"][0].AsLong(), INT64_MIN);
  EXPECT_EQ(out["out"][1].AsLong(), INT64_MAX - 2);  // 3 * MAX mod 2^64
  EXPECT_EQ(out["out"][2].AsLong(), INT64_MIN);
  EXPECT_EQ(out["out"][3].AsLong(), -2);  // shift count 65 & 63 == 1
  EXPECT_EQ(out["iout"][0].AsInt(), INT32_MIN);
  EXPECT_EQ(out["iout"][1].AsInt(), INT32_MIN);
}

TEST(EvalTest, FloatToIntCastsSaturateLikeJava) {
  // Casts from float and double views follow Java's f2i/d2i/f2l/d2l: NaN
  // is 0 and out-of-range values clamp to the target's MIN/MAX, so the
  // evaluator agrees with the interpreter (and C's undefined conversion
  // never runs). Byte narrows the saturated int.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {nan, inf, -inf, 3e9, -1e19};
  Kernel k;
  k.name = "f2i";
  k.buffers.push_back({"iout", Type::Int(), 5, BufferKind::kOutput, ""});
  k.buffers.push_back({"lout", Type::Long(), 5, BufferKind::kOutput, ""});
  k.buffers.push_back({"fout", Type::Int(), 5, BufferKind::kOutput, ""});
  k.buffers.push_back({"bout", Type::Byte(), 5, BufferKind::kOutput, ""});
  k.body = Stmt::Block({});
  for (std::int64_t i = 0; i < 5; ++i) {
    auto d = Expr::FloatLit(values[i], Type::Double());
    auto f = Expr::FloatLit(values[i], Type::Float());
    auto at = [i](const char* buf, Type t) {
      return Expr::ArrayRef(buf, t, Expr::IntLit(i));
    };
    k.body->stmts().push_back(
        Stmt::Assign(at("iout", Type::Int()), Expr::Cast(Type::Int(), d)));
    k.body->stmts().push_back(
        Stmt::Assign(at("lout", Type::Long()), Expr::Cast(Type::Long(), d)));
    k.body->stmts().push_back(
        Stmt::Assign(at("fout", Type::Int()), Expr::Cast(Type::Int(), f)));
    k.body->stmts().push_back(
        Stmt::Assign(at("bout", Type::Byte()), Expr::Cast(Type::Byte(), d)));
  }
  BufferMap out = RunBothAgreeing(k);
  const std::int32_t ints[] = {0, INT32_MAX, INT32_MIN, INT32_MAX, INT32_MIN};
  const std::int64_t longs[] = {0, INT64_MAX, INT64_MIN, 3000000000LL,
                                INT64_MIN};
  const std::int32_t bytes[] = {0, -1, 0, -1, 0};  // (byte) of `ints`
  for (std::size_t i = 0; i < 5; ++i) {
    SCOPED_TRACE(values[i]);
    EXPECT_EQ(out["iout"][i].AsInt(), ints[i]);
    EXPECT_EQ(out["lout"][i].AsLong(), longs[i]);
    EXPECT_EQ(out["fout"][i].AsInt(), ints[i]);
    EXPECT_EQ(out["bout"][i].AsInt(), bytes[i]);
  }
}

// Builds `decl x: int = 1; x = <rhs>` with the store typed `store`.
Kernel MakeRedefinedVarKernel(Type store, ExprPtr rhs) {
  Kernel k;
  k.name = "redef";
  k.buffers.push_back({"out", Type::Int(), 1, BufferKind::kOutput, ""});
  k.body = Stmt::Block(
      {Stmt::Decl("x", Type::Int(), Expr::IntLit(1)),
       Stmt::Assign(Expr::Var("x", store), std::move(rhs)),
       Stmt::Assign(Expr::ArrayRef("out", Type::Int(), Expr::IntLit(0)),
                    Expr::IntLit(0))});
  return k;
}

TEST(EvalTest, VariableWithTwoKindsIsRejected) {
  Kernel k = MakeRedefinedVarKernel(Type::Float(), Expr::FloatLit(2.0f));
  try {
    Evaluator ev(k);
    FAIL() << "mixed-kind variable accepted";
  } catch (const MalformedInput& e) {
    EXPECT_STREQ(e.what(),
                 "kernel redef: variable x is defined as both int and float");
  }
  // The int-family widths share one kind: a short store into an int
  // variable is fine (and narrows).
  Kernel ok = MakeRedefinedVarKernel(Type::Short(), Expr::IntLit(70000));
  EXPECT_NO_THROW(Evaluator{ok});
  // So is a scalar parameter redefined at its own kind, but not at another.
  Kernel scalar = MakeRedefinedVarKernel(Type::Long(),
                                         Expr::IntLit(5, Type::Long()));
  scalar.body->stmts().erase(scalar.body->stmts().begin());
  scalar.scalars.push_back({"x", Type::Int()});
  EXPECT_THROW(Evaluator{scalar}, MalformedInput);
}

TEST(EvalTest, BufferStoredAtAnotherKindIsRejected) {
  Kernel k;
  k.name = "badstore";
  k.buffers.push_back({"out", Type::Float(), 1, BufferKind::kOutput, ""});
  k.body = Stmt::Block({Stmt::Assign(
      Expr::ArrayRef("out", Type::Double(), Expr::IntLit(0)),
      Expr::FloatLit(1.0, Type::Double()))});
  try {
    Evaluator ev(k);
    FAIL() << "mixed-kind buffer accepted";
  } catch (const MalformedInput& e) {
    EXPECT_STREQ(e.what(),
                 "kernel badstore: buffer out holds float but is stored as "
                 "double");
  }
}

TEST(EvalTest, RunRejectsValuesOfTheWrongKind) {
  Kernel k = MakeScaleKernel();
  Evaluator ev(k);
  BufferMap buffers;
  buffers["in"].assign(16, Value::OfFloat(1.0f));
  try {
    ev.Run({{"N", Value::OfLong(16)}}, buffers);
    FAIL() << "long scalar accepted for an int parameter";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "scalar argument N is long, declared int");
  }
  buffers["in"][3] = Value::OfDouble(1.0);
  try {
    ev.Run({{"N", Value::OfInt(16)}}, buffers);
    FAIL() << "double element accepted in a float buffer";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "buffer in element 3 is double, declared float");
  }
  // A caller-provided output buffer is checked too.
  buffers["in"][3] = Value::OfFloat(1.0f);
  buffers["out"].assign(16, Value::OfInt(0));
  EXPECT_THROW(ev.Run({{"N", Value::OfInt(16)}}, buffers), InvalidArgument);
}

TEST(EvalTest, MixedKindSelectArmsConvertLikeTheReference) {
  // A select whose arms have different kinds takes its consumer's view,
  // so a long arm stays exact under a cast back to long.
  const std::int64_t big = (std::int64_t{1} << 60) + 1;
  Kernel k;
  k.name = "mixsel";
  k.buffers.push_back({"out", Type::Long(), 2, BufferKind::kOutput, ""});
  k.body = Stmt::Block({});
  for (std::int64_t i = 0; i < 2; ++i) {
    auto sel = Expr::Select(Expr::IntLit(1 - i),
                            Expr::IntLit(big, Type::Long()),
                            Expr::FloatLit(2.5, Type::Double()));
    k.body->stmts().push_back(Stmt::Assign(
        Expr::ArrayRef("out", Type::Long(), Expr::IntLit(i)),
        Expr::Cast(Type::Long(), sel)));
  }
  BufferMap out = RunBothAgreeing(k);
  EXPECT_EQ(out["out"][0].AsLong(), big);
  EXPECT_EQ(out["out"][1].AsLong(), 2);
}

TEST(EvalTest, OneProgramBacksManyEvaluators) {
  auto program = std::make_shared<const Program>(MakeScaleKernel());
  Evaluator a(program);
  Evaluator b(program);
  BufferMap ba, bb;
  ba["in"].assign(16, Value::OfFloat(1.0f));
  bb["in"].assign(16, Value::OfFloat(3.0f));
  a.Run({{"N", Value::OfInt(16)}}, ba);
  b.Run({{"N", Value::OfInt(16)}}, bb);
  EXPECT_EQ(ba["out"][5].AsFloat(), 3.0f);
  EXPECT_EQ(bb["out"][5].AsFloat(), 7.0f);
  EXPECT_EQ(a.last_steps(), b.last_steps());
  EXPECT_EQ(program->LiveRows(5), 16);
}

// ------------------------------------------------------------ live tasks

// out[i] = in[src(i)] * 2 over a 16-task batch with per-task buffers, where
// src(i) = i, or 15 - i (a task reading another task's row) when
// `reversed`. `tile` > 1 splits the task loop as Merlin tiling does.
Kernel MakeTaskKernel(std::int64_t tile, bool reversed = false) {
  Kernel k;
  k.name = "tasks";
  k.scalars.push_back({"N", Type::Int()});
  k.buffers.push_back(
      {"in", Type::Float(), 16, BufferKind::kInput, "in._1", 1});
  k.buffers.push_back(
      {"out", Type::Float(), 16, BufferKind::kOutput, "ret._1", 1});
  ExprPtr i = Expr::Var("i", Type::Int());
  if (tile > 1) {
    i = Expr::Binary(BinaryOp::kAdd,
                     Expr::Binary(BinaryOp::kMul, Expr::Var("i_t", Type::Int()),
                                  Expr::IntLit(tile)),
                     Expr::Var("i_p", Type::Int()));
  }
  ExprPtr src = reversed ? Expr::Binary(BinaryOp::kSub, Expr::IntLit(15), i)
                         : i;
  StmtPtr body = Stmt::Block({Stmt::Assign(
      Expr::ArrayRef("out", Type::Float(), i),
      Expr::Binary(BinaryOp::kMul, Expr::ArrayRef("in", Type::Float(), src),
                   Expr::FloatLit(2.0f)))});
  StmtPtr loop =
      tile > 1 ? Stmt::For(0, "i_t", 16 / tile,
                           Stmt::Block({Stmt::For(1, "i_p", tile, body)}))
               : Stmt::For(0, "i", 16, body);
  k.body = Stmt::Block({loop});
  k.task_loop_id = 0;
  return k;
}

BufferMap TaskInputs(std::int64_t rows) {
  BufferMap buffers;
  for (std::int64_t r = 0; r < rows; ++r) {
    buffers["in"].push_back(Value::OfFloat(static_cast<float>(r + 1)));
  }
  return buffers;
}

TEST(LiveTasksTest, LiveRowsCoverWholeTiles) {
  Kernel plain = MakeTaskKernel(1);
  EXPECT_EQ(Evaluator(plain).LiveRows(5), 5);
  EXPECT_EQ(ReferenceEvaluator(plain).LiveRows(16), 16);
  Kernel tiled = MakeTaskKernel(4);
  EXPECT_EQ(Evaluator(tiled).LiveRows(1), 4);
  EXPECT_EQ(Evaluator(tiled).LiveRows(5), 8);
  EXPECT_EQ(ReferenceEvaluator(tiled).LiveRows(8), 8);
  // Without per-task buffer shapes the batch is unknown: run in full.
  Kernel unshaped = MakeScaleKernel();
  EXPECT_EQ(Evaluator(unshaped).LiveRows(5), 16);
}

TEST(LiveTasksTest, ShortBatchRunsOnlyLiveIterations) {
  for (std::int64_t tile : {1, 4}) {
    Kernel k = MakeTaskKernel(tile);
    Evaluator full(k);
    BufferMap full_bufs = TaskInputs(16);
    full.Run({{"N", Value::OfInt(16)}}, full_bufs);

    Evaluator fast(k);
    ReferenceEvaluator ref(k);
    const std::int64_t rows = fast.LiveRows(5);
    BufferMap fast_bufs = TaskInputs(rows);
    BufferMap ref_bufs = TaskInputs(rows);
    fast.Run({{"N", Value::OfInt(5)}}, fast_bufs, 5);
    ref.Run({{"N", Value::OfInt(5)}}, ref_bufs, 5);
    EXPECT_EQ(fast.last_steps(), ref.last_steps()) << "tile " << tile;
    EXPECT_LT(fast.last_steps(), full.last_steps()) << "tile " << tile;
    for (std::size_t r = 0; r < 5; ++r) {
      EXPECT_EQ(fast_bufs["out"][r].AsFloat(), full_bufs["out"][r].AsFloat());
      EXPECT_EQ(ref_bufs["out"][r].AsFloat(), full_bufs["out"][r].AsFloat());
    }
  }
}

TEST(LiveTasksTest, ReadingAnotherTasksRowFailsOnShortBatch) {
  // Task i reads row 15 - i: fine on a full batch, but on a short batch
  // that row lies outside the live span and must fail loudly rather than
  // read padding.
  Kernel k = MakeTaskKernel(1, /*reversed=*/true);
  BufferMap full = TaskInputs(16);
  EXPECT_NO_THROW(Evaluator(k).Run({{"N", Value::OfInt(16)}}, full));
  BufferMap fast_bufs = TaskInputs(4);
  BufferMap ref_bufs = TaskInputs(4);
  EXPECT_THROW(Evaluator(k).Run({{"N", Value::OfInt(4)}}, fast_bufs, 4),
               InvalidArgument);
  EXPECT_THROW(
      ReferenceEvaluator(k).Run({{"N", Value::OfInt(4)}}, ref_bufs, 4),
      InvalidArgument);
}

TEST(LiveTasksTest, LiveTasksBeyondTheBatchThrow) {
  Kernel k = MakeTaskKernel(1);
  BufferMap buffers = TaskInputs(16);
  EXPECT_THROW(Evaluator(k).Run({{"N", Value::OfInt(16)}}, buffers, 17),
               InvalidArgument);
  EXPECT_THROW(Evaluator(k).Run({{"N", Value::OfInt(16)}}, buffers, -1),
               InvalidArgument);
}

// --------------------------------------------------------------- arena

TEST(ArenaTest, FreedNodesAreReused) {
  // Warm the literal node's size class so a slab exists and the freelist
  // holds at least one chunk.
  { auto warm = Expr::IntLit(1); }
  const arena::Stats before = arena::GetStats();
  { auto e = Expr::IntLit(2); }
  const arena::Stats after = arena::GetStats();
  EXPECT_EQ(after.allocations, before.allocations + 1);
  EXPECT_EQ(after.frees, before.frees + 1);
  // Served from the freelist: no new slab memory was carved.
  EXPECT_EQ(after.slab_bytes, before.slab_bytes);
}

TEST(ArenaTest, LargeAllocationsBypassThePool) {
  const arena::Stats before = arena::GetStats();
  void* p = arena::Allocate(1 << 20);
  arena::Deallocate(p, 1 << 20);
  const arena::Stats after = arena::GetStats();
  EXPECT_EQ(after.allocations, before.allocations);
  EXPECT_EQ(after.slab_bytes, before.slab_bytes);
}

// ------------------------------------------------------------- analysis

Kernel MakeNestedKernel() {
  // for i in 8: { acc = 0; for j in 4: acc += a[i*4+j] * b[j]; out[i] = acc }
  Kernel k;
  k.name = "dot";
  k.buffers.push_back({"a", Type::Float(), 32, BufferKind::kInput, ""});
  k.buffers.push_back({"b", Type::Float(), 4, BufferKind::kInput, ""});
  k.buffers.push_back({"out", Type::Float(), 8, BufferKind::kOutput, ""});
  auto i = Expr::Var("i", Type::Int());
  auto j = Expr::Var("j", Type::Int());
  auto acc = Expr::Var("acc", Type::Float());
  auto prod = Expr::Binary(
      BinaryOp::kMul,
      Expr::ArrayRef("a", Type::Float(),
                     Expr::Binary(BinaryOp::kAdd,
                                  Expr::Binary(BinaryOp::kMul, i,
                                               Expr::IntLit(4)),
                                  j)),
      Expr::ArrayRef("b", Type::Float(), j));
  auto inner_body =
      Stmt::Block({Stmt::Assign(acc, Expr::Binary(BinaryOp::kAdd, acc, prod))});
  auto inner = Stmt::For(1, "j", 4, inner_body);
  inner->set_is_reduction(true);
  auto outer_body = Stmt::Block(
      {Stmt::Decl("acc", Type::Float(), Expr::FloatLit(0.0f)), inner,
       Stmt::Assign(Expr::ArrayRef("out", Type::Float(), i), acc)});
  auto outer = Stmt::For(0, "i", 8, outer_body);
  outer->set_inserted_by_template(true);
  k.body = Stmt::Block({outer});
  k.task_loop_id = 0;
  return k;
}

TEST(AnalysisTest, LoopTreeShape) {
  Kernel k = MakeNestedKernel();
  LoopTree tree = BuildLoopTree(k);
  ASSERT_EQ(tree.roots.size(), 1u);
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_EQ(tree.max_depth(), 1);
  EXPECT_EQ(tree.roots[0].loop->loop_id(), 0);
  ASSERT_EQ(tree.roots[0].children.size(), 1u);
  EXPECT_EQ(tree.roots[0].children[0].loop->loop_id(), 1);
  EXPECT_NE(tree.Find(1), nullptr);
  EXPECT_EQ(tree.Find(9), nullptr);
}

TEST(AnalysisTest, StraightLineOpsExcludeInnerLoops) {
  Kernel k = MakeNestedKernel();
  const Stmt* outer = FindLoop(k.body, 0);
  OpCounts counts = CountStraightLineOps(*outer);
  // Straight-line part of the outer body: decl init + the out[i] store.
  EXPECT_EQ(counts.mem_write, 1);
  EXPECT_EQ(counts.fp_mul, 0);  // the multiply is inside the inner loop
}

TEST(AnalysisTest, TotalOpsScaleByTripCount) {
  Kernel k = MakeNestedKernel();
  OpCounts counts = CountTotalOps(*k.body);
  // Inner loop: 1 fp mul per iteration * 4 iterations * 8 outer = 32.
  EXPECT_EQ(counts.fp_mul, 32);
  // out[i] writes: 8.
  EXPECT_EQ(counts.buffer_writes.at("out"), 8);
  EXPECT_EQ(counts.buffer_reads.at("a"), 32);
}

TEST(AnalysisTest, ReductionRecurrenceDetected) {
  Kernel k = MakeNestedKernel();
  const Stmt* inner = FindLoop(k.body, 1);
  LoopRecurrence rec = AnalyzeRecurrence(*inner);
  EXPECT_TRUE(rec.carried);
  ASSERT_FALSE(rec.carriers.empty());
  EXPECT_EQ(rec.carriers[0], "acc");
  ASSERT_FALSE(rec.cycle_exprs.empty());
}

TEST(AnalysisTest, OuterLoopNotCarriedWhenAccIsPrivate) {
  Kernel k = MakeNestedKernel();
  const Stmt* outer = FindLoop(k.body, 0);
  // acc is declared inside the outer body -> private to each i iteration.
  LoopRecurrence rec = AnalyzeRecurrence(*outer);
  EXPECT_FALSE(rec.carried);
}

TEST(AnalysisTest, WavefrontRecurrenceDetected) {
  // for i in 16: h[i] = max(h[i-0... different index], x) — model S-W row:
  // h[i] = h[i-1] + 1 (read index differs from write index).
  Kernel k;
  k.name = "wave";
  k.buffers.push_back({"h", Type::Int(), 17, BufferKind::kLocal, ""});
  auto i = Expr::Var("i", Type::Int());
  auto write_index = Expr::Binary(BinaryOp::kAdd, i, Expr::IntLit(1));
  auto body = Stmt::Block({Stmt::Assign(
      Expr::ArrayRef("h", Type::Int(), write_index),
      Expr::Binary(BinaryOp::kAdd, Expr::ArrayRef("h", Type::Int(), i),
                   Expr::IntLit(1)))});
  auto loop = Stmt::For(0, "i", 16, body);
  k.body = Stmt::Block({loop});
  LoopRecurrence rec = AnalyzeRecurrence(*loop);
  EXPECT_TRUE(rec.carried);
  EXPECT_EQ(rec.carriers[0], "h");
}

TEST(AnalysisTest, IndependentElementwiseLoopNotCarried) {
  Kernel k = MakeScaleKernel();
  LoopRecurrence rec = AnalyzeRecurrence(*FindLoop(k.body, 0));
  EXPECT_FALSE(rec.carried);
}

TEST(AnalysisTest, ExprDepthCountsComputeNodes) {
  auto x = Expr::Var("x", Type::Float());
  EXPECT_EQ(ExprDepth(x), 0);
  auto e1 = Expr::Binary(BinaryOp::kAdd, x, x);
  EXPECT_EQ(ExprDepth(e1), 1);
  auto e2 = Expr::Call(Intrinsic::kExp, {e1}, Type::Float());
  EXPECT_EQ(ExprDepth(e2), 2);
  auto leaf_heavy = Expr::ArrayRef(
      "buf", Type::Float(), Expr::Binary(BinaryOp::kAdd, x, x));
  EXPECT_EQ(ExprDepth(leaf_heavy), 1);  // index math counts, ref itself not
}

TEST(PrinterTest, IfElseEmission) {
  auto x = Expr::Var("x", Type::Int());
  auto cond = Expr::Binary(BinaryOp::kLt, x, Expr::IntLit(0));
  auto then_s = Stmt::Assign(x, Expr::IntLit(0));
  auto else_s = Stmt::Assign(x, Expr::Binary(BinaryOp::kAdd, x,
                                             Expr::IntLit(1)));
  std::string c = EmitStmtC(Stmt::If(cond, Stmt::Block({then_s}),
                                     Stmt::Block({else_s})));
  EXPECT_NE(c.find("if ((x < 0)) {"), std::string::npos) << c;
  EXPECT_NE(c.find("} else {"), std::string::npos) << c;
  EXPECT_NE(c.find("x = 0;"), std::string::npos);
  EXPECT_NE(c.find("x = (x + 1);"), std::string::npos);
}

TEST(PrinterTest, SelectEmitsTernary) {
  auto x = Expr::Var("x", Type::Float());
  auto sel = Expr::Select(
      Expr::Binary(BinaryOp::kGt, x, Expr::FloatLit(0.0f)), x,
      Expr::Unary(UnaryOp::kNeg, x));
  EXPECT_EQ(EmitExprC(sel), "((x > 0.0f) ? x : -(x))");
}

TEST(PrinterTest, DeclWithoutInitializer) {
  std::string c = EmitStmtC(Stmt::Decl("t", Type::Double(), nullptr));
  EXPECT_EQ(c, "double t;\n");
}

TEST(PrinterTest, IndentedStatements) {
  auto s = Stmt::Assign(Expr::Var("x", Type::Int()), Expr::IntLit(1));
  EXPECT_EQ(EmitStmtC(s, 4), "    x = 1;\n");
}

TEST(PrinterTest, CTypeNames) {
  EXPECT_EQ(CTypeName(Type::Byte()), "char");
  EXPECT_EQ(CTypeName(Type::Long()), "long long");
  EXPECT_EQ(CTypeName(Type::Char()), "unsigned short");
  EXPECT_THROW(CTypeName(Type::Array(Type::Int())), InvalidArgument);
}

// Property sweep: evaluator on the dot kernel matches a native dot product
// across random inputs and several sizes.
class DotEvalTest : public ::testing::TestWithParam<int> {};

TEST_P(DotEvalTest, MatchesNativeDot) {
  Kernel k = MakeNestedKernel();
  Evaluator ev(k);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  BufferMap buffers;
  std::vector<float> a(32), b(4);
  for (auto& v : a) v = static_cast<float>(rng.NextDouble(-2, 2));
  for (auto& v : b) v = static_cast<float>(rng.NextDouble(-2, 2));
  for (float v : a) buffers["a"].push_back(Value::OfFloat(v));
  for (float v : b) buffers["b"].push_back(Value::OfFloat(v));
  ev.Run({}, buffers);
  for (int i = 0; i < 8; ++i) {
    float expect = 0.0f;
    for (int j = 0; j < 4; ++j) {
      expect += a[static_cast<std::size_t>(i * 4 + j)] *
                b[static_cast<std::size_t>(j)];
    }
    EXPECT_FLOAT_EQ(
        buffers["out"][static_cast<std::size_t>(i)].AsFloat(), expect);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DotEvalTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace s2fa::kir
