#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <tuple>

#include "apps/app.h"
#include "b2c/compiler.h"
#include "blaze/runtime.h"
#include "blaze/serialization.h"
#include "jvm/assembler.h"
#include "s2fa/framework.h"
#include "support/rng.h"

namespace s2fa::blaze {
namespace {

using jvm::Assembler;
using jvm::MethodSignature;
using jvm::Type;
using jvm::Value;

// ---------------------------------------------------------------- dataset

TEST(DatasetTest, ColumnsMustAgreeOnRecordCount) {
  Dataset d;
  Column a;
  a.field = "x";
  a.element = Type::Float();
  a.per_record = 2;
  a.data.assign(8, Value::OfFloat(0));  // 4 records
  d.AddColumn(a);
  Column b;
  b.field = "y";
  b.element = Type::Int();
  b.per_record = 1;
  b.data.assign(3, Value::OfInt(0));  // 3 records: mismatch
  EXPECT_THROW(d.AddColumn(b), InvalidArgument);
  EXPECT_EQ(d.num_records(), 4u);
}

TEST(DatasetTest, RejectsDuplicateFields) {
  Dataset d;
  Column a;
  a.field = "x";
  a.element = Type::Int();
  a.data.assign(2, Value::OfInt(0));
  d.AddColumn(a);
  EXPECT_THROW(d.AddColumn(a), InvalidArgument);
}

TEST(DatasetTest, RejectsRaggedColumn) {
  Dataset d;
  Column a;
  a.field = "x";
  a.element = Type::Int();
  a.per_record = 3;
  a.data.assign(7, Value::OfInt(0));  // not a multiple of 3
  EXPECT_THROW(d.AddColumn(a), InvalidArgument);
}

TEST(DatasetTest, TotalBytesSumsColumnWidths) {
  Dataset d;
  Column a;
  a.field = "f";
  a.element = Type::Float();  // 4 bytes
  a.data.assign(10, Value::OfFloat(0));
  d.AddColumn(a);
  Column b;
  b.field = "b";
  b.element = Type::Byte();  // 1 byte
  b.data.assign(10, Value::OfInt(0));
  d.AddColumn(b);
  EXPECT_DOUBLE_EQ(d.TotalBytes(), 40.0 + 10.0);
}

// ------------------------------------------------- serialization plan

// Simple map kernel for plan tests: double in, double out.
jvm::ClassPool MakePool() {
  jvm::ClassPool pool;
  Assembler a;
  a.Load(Type::Double(), 0).DConst(2.0).DMul().Ret(Type::Double());
  MethodSignature sig;
  sig.params = {Type::Double()};
  sig.ret = Type::Double();
  pool.Define("Doubler").AddMethod(
      jvm::MakeMethod("call", sig, true, 2, a.Finish()));
  return pool;
}

b2c::KernelSpec MakeSpec(std::int64_t batch = 8) {
  b2c::KernelSpec spec;
  spec.kernel_name = "doubler";
  spec.klass = "Doubler";
  spec.input.type = Type::Double();
  spec.input.fields = {{"x", Type::Double(), 1, false}};
  spec.output.type = Type::Double();
  spec.output.fields = {{"y", Type::Double(), 1, false}};
  spec.batch = batch;
  return spec;
}

TEST(SerializationTest, PlanReflectsInterface) {
  jvm::ClassPool pool = MakePool();
  kir::Kernel k = b2c::CompileKernel(pool, MakeSpec());
  SerializationPlan plan = MakeSerializationPlan(k);
  EXPECT_EQ(plan.batch, 8);
  ASSERT_EQ(plan.entries.size(), 2u);
  EXPECT_TRUE(plan.entries[0].is_input);
  EXPECT_EQ(plan.entries[0].source_field, "x");
  EXPECT_FALSE(plan.entries[1].is_input);
  EXPECT_EQ(plan.entries[1].source_field, "y");
  EXPECT_NE(plan.FindBuffer("in_1"), nullptr);
  EXPECT_EQ(plan.FindBuffer("nope"), nullptr);
}

TEST(SerializationTest, RoundTripWithPadding) {
  jvm::ClassPool pool = MakePool();
  kir::Kernel k = b2c::CompileKernel(pool, MakeSpec(8));
  SerializationPlan plan = MakeSerializationPlan(k);

  Dataset input;
  Column x;
  x.field = "x";
  x.element = Type::Double();
  for (int i = 0; i < 5; ++i) x.data.push_back(Value::OfDouble(i + 0.5));
  input.AddColumn(x);

  kir::BufferMap buffers;
  SerializeBatch(plan, input, 0, 5, buffers);
  // Zero-padded to the batch size.
  ASSERT_EQ(buffers["in_1"].size(), 8u);
  EXPECT_DOUBLE_EQ(buffers["in_1"][4].AsDouble(), 4.5);
  EXPECT_DOUBLE_EQ(buffers["in_1"][5].AsDouble(), 0.0);

  buffers["out_1"].assign(8, Value::OfDouble(7.0));
  Dataset out = MakeOutputShell(plan, 5);
  DeserializeBatch(plan, buffers, 0, 5, out);
  EXPECT_DOUBLE_EQ(out.ColumnByField("y").data[4].AsDouble(), 7.0);
}

TEST(SerializationTest, BatchOneReduceKernelIsPerInvocation) {
  // A reduce kernel instantiated with task-loop trip count 1 is still a
  // reduce: its output buffer holds one result per invocation (regression:
  // the old `batch > 1` heuristic misfiled it as a map output).
  jvm::ClassPool pool;
  Assembler a;
  // call(acc: double, x: double) = acc + x * x
  a.Load(Type::Double(), 0);
  a.Load(Type::Double(), 2).Load(Type::Double(), 2).DMul();
  a.DAdd().Ret(Type::Double());
  MethodSignature sig;
  sig.params = {Type::Double(), Type::Double()};
  sig.ret = Type::Double();
  pool.Define("SumSq").AddMethod(
      jvm::MakeMethod("call", sig, true, 4, a.Finish()));

  b2c::KernelSpec spec;
  spec.kernel_name = "sumsq";
  spec.klass = "SumSq";
  spec.pattern = kir::ParallelPattern::kReduce;
  spec.input.type = Type::Double();
  spec.input.fields = {{"x", Type::Double(), 1, false}};
  spec.output.type = Type::Double();
  spec.output.fields = {{"ret", Type::Double(), 1, false}};
  spec.batch = 1;
  kir::Kernel k = b2c::CompileKernel(pool, spec);
  SerializationPlan plan = MakeSerializationPlan(k);
  const PlanEntry* out = plan.FindBuffer("out_1");
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->per_invocation);

  // Round trip at batch 1: serialize one record, run the kernel, pull the
  // reduce result back out of the invocation slot.
  Dataset input;
  Column x;
  x.field = "x";
  x.element = Type::Double();
  x.data = {Value::OfDouble(3.0)};
  input.AddColumn(x);
  kir::BufferMap buffers;
  SerializeBatch(plan, input, 0, 1, buffers);
  kir::Evaluator(k).Run({{"N", Value::OfInt(1)}}, buffers);
  Dataset out_ds = MakeOutputShell(plan, 1);
  DeserializeBatch(plan, buffers, 0, 1, out_ds);
  EXPECT_DOUBLE_EQ(out_ds.ColumnByField("ret").data[0].AsDouble(), 9.0);
}

TEST(SerializationTest, NarrowedColumnFallsBackToElementConversion) {
  // A double column feeding a float buffer takes the per-element
  // conversion path (the block-copy fast path requires matching kinds).
  jvm::ClassPool pool;
  Assembler a;
  a.Load(Type::Float(), 0).FConst(1.0f).FAdd().Ret(Type::Float());
  MethodSignature sig;
  sig.params = {Type::Float()};
  sig.ret = Type::Float();
  pool.Define("Inc").AddMethod(
      jvm::MakeMethod("call", sig, true, 1, a.Finish()));

  b2c::KernelSpec spec;
  spec.kernel_name = "inc";
  spec.klass = "Inc";
  spec.input.type = Type::Float();
  spec.input.fields = {{"x", Type::Float(), 1, false}};
  spec.output.type = Type::Float();
  spec.output.fields = {{"y", Type::Float(), 1, false}};
  spec.batch = 4;
  kir::Kernel k = b2c::CompileKernel(pool, spec);
  SerializationPlan plan = MakeSerializationPlan(k);

  Dataset input;
  Column x;
  x.field = "x";
  x.element = Type::Double();  // wider than the kernel's float buffer
  for (int i = 0; i < 4; ++i) x.data.push_back(Value::OfDouble(i + 0.25));
  input.AddColumn(x);
  kir::BufferMap buffers;
  SerializeBatch(plan, input, 0, 4, buffers);
  ASSERT_EQ(buffers["in_1"].size(), 4u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(buffers["in_1"][static_cast<std::size_t>(i)].is_float());
    EXPECT_FLOAT_EQ(buffers["in_1"][static_cast<std::size_t>(i)].AsFloat(),
                    static_cast<float>(i + 0.25));
  }

  // And back out: float kernel results land in a double output column.
  buffers["out_1"].assign(4, Value::OfFloat(2.5f));
  Dataset out_ds;
  Column y;
  y.field = "y";
  y.element = Type::Double();
  y.data.assign(4, Value::OfDouble(0.0));
  out_ds.AddColumn(y);
  DeserializeBatch(plan, buffers, 0, 4, out_ds);
  for (int i = 0; i < 4; ++i) {
    const Value& v = out_ds.ColumnByField("y").data[static_cast<std::size_t>(i)];
    ASSERT_TRUE(v.is_double());
    EXPECT_DOUBLE_EQ(v.AsDouble(), 2.5);
  }
}

TEST(SerializationTest, ScalaHelperMentionsBuffersAndReflection) {
  jvm::ClassPool pool = MakePool();
  kir::Kernel k = b2c::CompileKernel(pool, MakeSpec());
  SerializationPlan plan = MakeSerializationPlan(k);
  std::string scala = RenderScalaHelper(plan);
  EXPECT_NE(scala.find("object doublerSerde"), std::string::npos);
  EXPECT_NE(scala.find("in_1"), std::string::npos);
  EXPECT_NE(scala.find("reflect"), std::string::npos);
}

TEST(SerializationTest, MissingBroadcastThrows) {
  jvm::ClassPool pool;
  Assembler a;
  // call(P in) where P = {x: double, w: double broadcast}: return x * w.
  jvm::Klass& p = pool.Define("P");
  p.AddField({"x", Type::Double()});
  p.AddField({"w", Type::Double()});
  a.Load(Type::Class("P"), 0).GetField("P", "x");
  a.Load(Type::Class("P"), 0).GetField("P", "w");
  a.DMul().Ret(Type::Double());
  MethodSignature sig;
  sig.params = {Type::Class("P")};
  sig.ret = Type::Double();
  pool.Define("WMul").AddMethod(
      jvm::MakeMethod("call", sig, true, 1, a.Finish()));

  b2c::KernelSpec spec;
  spec.kernel_name = "wmul";
  spec.klass = "WMul";
  spec.input.type = Type::Class("P");
  b2c::FieldSpec fx{"x", Type::Double(), 1, false};
  b2c::FieldSpec fw{"w", Type::Double(), 1, false};
  fw.broadcast = true;
  spec.input.fields = {fx, fw};
  spec.output.type = Type::Double();
  spec.output.fields = {{"y", Type::Double(), 1, false}};
  spec.batch = 4;
  kir::Kernel k = b2c::CompileKernel(pool, spec);
  SerializationPlan plan = MakeSerializationPlan(k);

  Dataset input;
  Column x;
  x.field = "x";
  x.element = Type::Double();
  x.data.assign(4, Value::OfDouble(1.0));
  input.AddColumn(x);
  kir::BufferMap buffers;
  EXPECT_THROW(SerializeBatch(plan, input, 0, 4, buffers, nullptr),
               InvalidArgument);
}

// ---------------------------------------------------------------- runtime

TEST(RuntimeTest, MapAcrossMultipleBatches) {
  jvm::ClassPool pool = MakePool();
  Artifact artifact =
      BuildWithConfig(pool, MakeSpec(8), merlin::DesignConfig{});
  BlazeRuntime runtime;
  RegisterWithBlaze(runtime, "doubler", artifact);

  Dataset input;
  Column x;
  x.field = "x";
  x.element = Type::Double();
  for (int i = 0; i < 21; ++i) x.data.push_back(Value::OfDouble(i));
  input.AddColumn(x);

  ExecutionStats stats;
  Dataset out = runtime.Map("doubler", input, nullptr, &stats);
  EXPECT_EQ(stats.invocations, 3u);  // ceil(21 / 8)
  EXPECT_GT(stats.total_us, 0.0);
  for (int i = 0; i < 21; ++i) {
    EXPECT_DOUBLE_EQ(
        out.ColumnByField("y").data[static_cast<std::size_t>(i)].AsDouble(),
        2.0 * i);
  }
}

// Sum reduce over one integral column: call(acc, x) = acc + x, batch 4,
// registered as "sum". Each invocation's partial is folded on the host.
void RegisterSumReduce(BlazeRuntime& runtime, const Type& type) {
  jvm::ClassPool pool;
  Assembler a;
  const int width = type.is_wide() ? 2 : 1;
  a.Load(type, 0).Load(type, width).Bin(type, jvm::BinOp::kAdd).Ret(type);
  MethodSignature sig;
  sig.params = {type, type};
  sig.ret = type;
  pool.Define("Sum").AddMethod(
      jvm::MakeMethod("call", sig, true, 2 * width, a.Finish()));
  b2c::KernelSpec spec;
  spec.kernel_name = "sum";
  spec.klass = "Sum";
  spec.pattern = kir::ParallelPattern::kReduce;
  spec.input.type = type;
  spec.input.fields = {{"x", type, 1, false}};
  spec.output.type = type;
  spec.output.fields = {{"ret", type, 1, false}};
  spec.batch = 4;
  RegisterWithBlaze(runtime, "sum",
                    BuildWithConfig(pool, spec, merlin::DesignConfig{}));
}

TEST(RuntimeTest, ReduceFoldsIntegralPartialsExactlyWithJavaWrap) {
  // 12 records over 3 invocations. A long sum above 2^53 stays exact (a
  // fold through double would round the +12 away), and an int sum whose
  // partials fit but whose total overflows wraps like Java int addition.
  {
    BlazeRuntime runtime;
    RegisterSumReduce(runtime, Type::Long());
    const std::int64_t v = (std::int64_t{1} << 53) + 1;
    Dataset input;
    input.AddColumn({"x", Type::Long(), 1,
                     std::vector<Value>(12, Value::OfLong(v))});
    ExecutionStats stats;
    Dataset out = runtime.Reduce("sum", input, nullptr, &stats);
    EXPECT_EQ(stats.invocations, 3u);
    EXPECT_EQ(out.ColumnByField("ret").data[0].AsLong(), 12 * v);
  }
  {
    BlazeRuntime runtime;
    RegisterSumReduce(runtime, Type::Int());
    const std::int32_t v = (std::int32_t{1} << 28) + 1;  // 4v fits, 12v wraps
    Dataset input;
    input.AddColumn({"x", Type::Int(), 1,
                     std::vector<Value>(12, Value::OfInt(v))});
    Dataset out = runtime.Execute("sum", input);
    const auto wrapped = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(12) * static_cast<std::uint32_t>(v));
    EXPECT_EQ(wrapped, -1073741812);
    EXPECT_EQ(out.ColumnByField("ret").data[0].AsInt(), wrapped);
  }
}

TEST(RuntimeTest, UnknownAcceleratorThrows) {
  BlazeRuntime runtime;
  Dataset empty;
  EXPECT_THROW(runtime.Map("nope", empty), InvalidArgument);
}

TEST(RuntimeTest, DuplicateRegistrationThrows) {
  jvm::ClassPool pool = MakePool();
  Artifact artifact =
      BuildWithConfig(pool, MakeSpec(8), merlin::DesignConfig{});
  BlazeRuntime runtime;
  RegisterWithBlaze(runtime, "doubler", artifact);
  EXPECT_THROW(RegisterWithBlaze(runtime, "doubler", artifact),
               InvalidArgument);
  EXPECT_TRUE(runtime.manager().Has("doubler"));
  EXPECT_EQ(runtime.manager().size(), 1u);
}

TEST(RuntimeTest, StatsBreakdownSumsToTotal) {
  jvm::ClassPool pool = MakePool();
  Artifact artifact =
      BuildWithConfig(pool, MakeSpec(8), merlin::DesignConfig{});
  BlazeRuntime runtime;
  RegisterWithBlaze(runtime, "doubler", artifact);
  Dataset input;
  Column x;
  x.field = "x";
  x.element = Type::Double();
  x.data.assign(16, Value::OfDouble(1.0));
  input.AddColumn(x);
  ExecutionStats stats;
  runtime.Map("doubler", input, nullptr, &stats);
  EXPECT_NEAR(stats.total_us,
              stats.serialize_us + stats.transfer_us + stats.compute_us +
                  stats.overhead_us,
              1e-9);
}

// ------------------------------------------------------------ degradation

Dataset DoublerInput(int n) {
  Dataset input;
  Column x;
  x.field = "x";
  x.element = Type::Double();
  for (int i = 0; i < n; ++i) x.data.push_back(Value::OfDouble(i));
  input.AddColumn(x);
  return input;
}

TEST(RuntimeTest, TransientFaultIsRetriedTransparently) {
  jvm::ClassPool pool = MakePool();
  Artifact artifact =
      BuildWithConfig(pool, MakeSpec(8), merlin::DesignConfig{});
  BlazeRuntime runtime;
  RegisterWithBlaze(runtime, "doubler", artifact);
  // Invocation 1 fails its first attempt only; the retry succeeds.
  runtime.SetFaultInjector(
      [](const std::string&, std::size_t invocation, int attempt) {
        return invocation == 1 && attempt == 0;
      });

  ExecutionStats stats;
  Dataset out = runtime.Map("doubler", DoublerInput(21), nullptr, &stats);
  EXPECT_EQ(stats.accel_failures, 1u);
  EXPECT_EQ(stats.accel_retries, 1u);
  EXPECT_EQ(stats.host_fallbacks, 0u);
  EXPECT_FALSE(stats.degraded);
  EXPECT_EQ(stats.host_us, 0.0);
  for (int i = 0; i < 21; ++i) {
    EXPECT_DOUBLE_EQ(
        out.ColumnByField("y").data[static_cast<std::size_t>(i)].AsDouble(),
        2.0 * i);
  }
}

TEST(RuntimeTest, PersistentFaultFallsBackToHost) {
  jvm::ClassPool pool = MakePool();
  Artifact artifact =
      BuildWithConfig(pool, MakeSpec(8), merlin::DesignConfig{});
  BlazeRuntime runtime;
  RegisterWithBlaze(runtime, "doubler", artifact);
  // Invocation 0 fails both attempts: that batch degrades to the host
  // path, the rest stay on the accelerator — and the output is identical.
  runtime.SetFaultInjector(
      [](const std::string&, std::size_t invocation, int) {
        return invocation == 0;
      });

  ExecutionStats stats;
  Dataset out = runtime.Map("doubler", DoublerInput(21), nullptr, &stats);
  EXPECT_EQ(stats.accel_failures, 2u);
  EXPECT_EQ(stats.host_fallbacks, 1u);
  EXPECT_TRUE(stats.degraded);
  EXPECT_GT(stats.host_us, 0.0);
  // The host path is functionally identical, just slower.
  for (int i = 0; i < 21; ++i) {
    EXPECT_DOUBLE_EQ(
        out.ColumnByField("y").data[static_cast<std::size_t>(i)].AsDouble(),
        2.0 * i);
  }
  // Fallback compute is charged at the host slowdown and included in total.
  ExecutionStats clean_stats;
  runtime.SetFaultInjector(nullptr);
  runtime.Map("doubler", DoublerInput(21), nullptr, &clean_stats);
  EXPECT_GT(stats.total_us, clean_stats.total_us);
}

TEST(RuntimeTest, RandomFaultInjectorIsDeterministic) {
  EXPECT_EQ(MakeRandomFaultInjector(0.0, 1), nullptr);
  AccelFaultInjector a = MakeRandomFaultInjector(0.5, 42);
  AccelFaultInjector b = MakeRandomFaultInjector(0.5, 42);
  int failures = 0;
  for (std::size_t inv = 0; inv < 200; ++inv) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      EXPECT_EQ(a("id", inv, attempt), b("id", inv, attempt));
      if (a("id", inv, attempt)) ++failures;
    }
  }
  EXPECT_NEAR(failures / 400.0, 0.5, 0.1);
  EXPECT_THROW(MakeRandomFaultInjector(1.5, 1), InvalidArgument);
}

TEST(RuntimeTest, RandomFaultInjectorEdgeRates) {
  // Rate 0 is the no-injector fast path; rate 1 fails every attempt.
  EXPECT_EQ(MakeRandomFaultInjector(0.0, 99), nullptr);
  AccelFaultInjector always = MakeRandomFaultInjector(1.0, 99);
  ASSERT_NE(always, nullptr);
  for (std::size_t inv = 0; inv < 64; ++inv) {
    EXPECT_TRUE(always("id", inv, 0));
    EXPECT_TRUE(always("id", inv, 1));
  }
}

TEST(RuntimeTest, RandomFaultInjectorRollsIndependently) {
  // The (invocation, attempt) rolls are independent: at rate 0.5 all four
  // fail/ok combinations of (attempt 0, attempt 1) occur across
  // invocations, so a first-attempt failure says nothing about the retry.
  AccelFaultInjector injector = MakeRandomFaultInjector(0.5, 7);
  bool seen[2][2] = {};
  for (std::size_t inv = 0; inv < 200; ++inv) {
    seen[injector("id", inv, 0)][injector("id", inv, 1)] = true;
  }
  EXPECT_TRUE(seen[0][0]);
  EXPECT_TRUE(seen[0][1]);
  EXPECT_TRUE(seen[1][0]);
  EXPECT_TRUE(seen[1][1]);
  // Different accelerator ids draw from different streams.
  AccelFaultInjector other = MakeRandomFaultInjector(0.5, 7);
  bool differs = false;
  for (std::size_t inv = 0; inv < 200 && !differs; ++inv) {
    differs = injector("a", inv, 0) != other("b", inv, 0);
  }
  EXPECT_TRUE(differs);
}

TEST(RuntimeTest, UnknownAcceleratorErrorListsRegisteredIds) {
  AcceleratorManager manager;
  try {
    manager.Get("ghost");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("(none)"), std::string::npos);
  }

  jvm::ClassPool pool = MakePool();
  Artifact artifact = BuildWithConfig(pool, MakeSpec(8), merlin::DesignConfig{});
  BlazeRuntime runtime;
  RegisterWithBlaze(runtime, "doubler", artifact);
  RegisterWithBlaze(runtime, "tripler", artifact);
  try {
    runtime.manager().Get("ghost");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("doubler"), std::string::npos);
    EXPECT_NE(message.find("tripler"), std::string::npos);
  }
}

TEST(RuntimeTest, ExecutionStatsMergeAggregates) {
  ExecutionStats a;
  a.invocations = 2;
  a.serialize_us = 1;
  a.transfer_us = 2;
  a.compute_us = 3;
  a.overhead_us = 4;
  a.host_us = 5;
  a.total_us = 15;
  a.accel_failures = 1;
  a.accel_retries = 1;
  ExecutionStats b;
  b.invocations = 3;
  b.total_us = 7;
  b.host_fallbacks = 2;
  b.degraded = true;
  a.Merge(b);
  EXPECT_EQ(a.invocations, 5u);
  EXPECT_DOUBLE_EQ(a.total_us, 22.0);
  EXPECT_EQ(a.accel_failures, 1u);
  EXPECT_EQ(a.accel_retries, 1u);
  EXPECT_EQ(a.host_fallbacks, 2u);
  EXPECT_TRUE(a.degraded);
  // Merging a clean stats block never clears the degraded flag.
  a.Merge(ExecutionStats{});
  EXPECT_TRUE(a.degraded);
}

TEST(RuntimeTest, PerInvocationCostMatchesStatsBreakdown) {
  jvm::ClassPool pool = MakePool();
  Artifact artifact = BuildWithConfig(pool, MakeSpec(8), merlin::DesignConfig{});
  BlazeRuntime runtime;
  RegisterWithBlaze(runtime, "doubler", artifact);
  ExecutionStats per = runtime.PerInvocationCost("doubler");
  EXPECT_EQ(per.invocations, 1u);
  EXPECT_DOUBLE_EQ(per.total_us, per.serialize_us + per.transfer_us +
                                     per.compute_us + per.overhead_us);
  // Two clean invocations cost exactly twice the per-invocation charge.
  ExecutionStats stats;
  runtime.Map("doubler", DoublerInput(16), nullptr, &stats);
  EXPECT_EQ(stats.invocations, 2u);
  EXPECT_DOUBLE_EQ(stats.total_us, 2 * per.total_us);
  EXPECT_THROW(runtime.PerInvocationCost("ghost"), InvalidArgument);
}

// ------------------------------------------------------------ short batch

// 16 records in a 1024-task batch (the serving micro-batch shape): only
// the live tasks run, on inputs packed to their span.
constexpr std::size_t kShortRecords = 16;

struct ShortBatch {
  apps::App app;
  Artifact artifact;
  Dataset input;
  Dataset broadcast;

  const Dataset* bc() const {
    return app.make_broadcast ? &broadcast : nullptr;
  }
  bool reduce() const {
    return app.spec.pattern == kir::ParallelPattern::kReduce;
  }
};

// Builds `name` with no loop factors, or with its task loop tiled by
// `task_tile`, plus a short input.
ShortBatch MakeShortBatch(const std::string& name, std::int64_t task_tile) {
  ShortBatch sb{apps::FindApp(name), {}, {}, {}};
  merlin::DesignConfig cfg;
  if (task_tile > 1) {
    const kir::Kernel generated =
        b2c::CompileKernel(*sb.app.pool, sb.app.spec);
    cfg.loops[generated.task_loop_id] = {task_tile, 1,
                                         merlin::PipelineMode::kOff};
  }
  sb.artifact = BuildWithConfig(*sb.app.pool, sb.app.spec, cfg);
  Rng rng(77);
  sb.input = sb.app.make_input(kShortRecords, rng);
  if (sb.app.make_broadcast) sb.broadcast = sb.app.make_broadcast(rng);
  return sb;
}

struct BatchRun {
  kir::BufferMap buffers;
  std::uint64_t steps = 0;
  std::int64_t rows = 0;  // rows packed per per-task input
};

// Packs and evaluates all of `input` as one batch of `sb`'s design: the
// live tasks only (as the runtime does), or the zero-padded full batch.
BatchRun RunOneBatch(const ShortBatch& sb, const Dataset& input,
                     bool live_only) {
  kir::Evaluator evaluator(sb.artifact.best_design);
  const std::size_t count = input.num_records();
  const auto live = static_cast<std::int64_t>(count);
  BatchRun run;
  run.rows = live_only ? evaluator.LiveRows(live) : sb.artifact.plan.batch;
  SerializeBatch(sb.artifact.plan, input, 0, count, run.buffers, sb.bc(),
                 static_cast<std::size_t>(run.rows));
  evaluator.Run({{"N", Value::OfInt(static_cast<std::int32_t>(count))}},
                run.buffers,
                live_only ? std::optional<std::int64_t>(live) : std::nullopt);
  run.steps = evaluator.last_steps();
  return run;
}

double AsDouble(const Value& v) {
  if (v.is_double()) return v.AsDouble();
  if (v.is_float()) return v.AsFloat();
  if (v.is_long()) return static_cast<double>(v.AsLong());
  return v.AsInt();
}

class ShortBatchTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(ShortBatchTest, LiveTasksMatchReferenceAndFullBatch) {
  const auto& [name, tile] = GetParam();
  ShortBatch sb = MakeShortBatch(name, tile);
  BlazeRuntime runtime;
  RegisterWithBlaze(runtime, name, sb.artifact);
  Dataset got = sb.reduce() ? runtime.Reduce(name, sb.input, sb.bc())
                            : runtime.Map(name, sb.input, sb.bc());
  Dataset want = sb.app.reference(sb.input, sb.bc());
  ASSERT_EQ(got.num_columns(), want.num_columns());
  for (std::size_t c = 0; c < want.num_columns(); ++c) {
    const Column& w = want.column(c);
    const Column& g = got.ColumnByField(w.field);
    ASSERT_EQ(g.data.size(), w.data.size()) << w.field;
    for (std::size_t e = 0; e < w.data.size(); ++e) {
      const double expect = AsDouble(w.data[e]);
      EXPECT_NEAR(AsDouble(g.data[e]), expect,
                  1e-4 * std::max(1.0, std::fabs(expect)))
          << w.field << "[" << e << "]";
    }
  }

  // The live rows equal those of a zero-padded full-batch run.
  const BatchRun live = RunOneBatch(sb, sb.input, true);
  const BatchRun full = RunOneBatch(sb, sb.input, false);
  EXPECT_EQ(live.rows, std::max<std::int64_t>(tile, kShortRecords));
  for (const kir::Buffer* buf : sb.artifact.best_design.OutputBuffers()) {
    const auto rows = static_cast<std::size_t>(
        buf->per_task * (sb.reduce() ? 1 : std::int64_t{kShortRecords}));
    const auto& l = live.buffers.at(buf->name);
    const auto& f = full.buffers.at(buf->name);
    ASSERT_GE(l.size(), rows);
    EXPECT_TRUE(std::equal(l.begin(), l.begin() + rows, f.begin()))
        << buf->name;
  }
  EXPECT_LT(live.steps, full.steps);
  if (!sb.reduce()) {
    // Step-count pin: an SVM task costs the same steps live or padded, so
    // the live run costs its span's share of the full run plus the
    // statements outside the task loop (what a run with no live tasks
    // costs).
    kir::Evaluator outside(sb.artifact.best_design);
    kir::BufferMap empty;
    SerializeBatch(sb.artifact.plan, sb.input, 0, 0, empty, sb.bc(), 0);
    outside.Run({{"N", Value::OfInt(0)}}, empty, 0);
    const double share = static_cast<double>(live.rows) /
                         static_cast<double>(sb.artifact.plan.batch);
    EXPECT_LE(static_cast<double>(live.steps),
              share * static_cast<double>(full.steps) +
                  static_cast<double>(outside.last_steps()))
        << "live " << live.steps << " full " << full.steps << " outside "
        << outside.last_steps();
  }
}

INSTANTIATE_TEST_SUITE_P(
    SvmAndLls, ShortBatchTest,
    ::testing::Combine(::testing::Values("SVM", "LLS"),
                       ::testing::Values(1, 64)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_tile" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace s2fa::blaze
