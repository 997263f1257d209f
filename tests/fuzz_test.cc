// Differential fuzzing of the whole front end.
//
// A generator produces random *structured* kernels at the bytecode level —
// tuple inputs with array/scalar fields, canonical counted loops, if/else
// over float comparisons, arithmetic with guarded divisions, math
// intrinsics, and helper-method calls — exactly the shape the supported
// Scala subset lowers to. Each kernel is then pinned three ways:
//
//   1. the bytecode interpreter (JVM semantics),
//   2. the b2c-compiled kernel IR run through the IR evaluator,
//   3. the IR evaluator again after a random legal Merlin transform.
//
// All three must agree bit-for-bit on random inputs: the compiler's
// end-to-end correctness obligation (paper Challenge 1), probed over many
// random programs instead of hand-picked ones.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "b2c/compiler.h"
#include "jvm/assembler.h"
#include "jvm/interpreter.h"
#include "jvm/verifier.h"
#include "kir/eval.h"
#include "merlin/transform.h"
#include "support/rng.h"
#include "testlib/reference_eval.h"

namespace s2fa {
namespace {

using jvm::Assembler;
using jvm::Cond;
using jvm::MethodSignature;
using jvm::Type;
using jvm::Value;

constexpr int kNumArrays = 2;   // float-array fields of the input tuple
constexpr int kArrayLen = 8;    // per-task elements of each array field

// Local variable slots of the generated `call(FuzzIn in)` method:
//   0 = in (ref), 1..kNumArrays = array refs, 3 = scalar field,
//   4 = accumulator, 5 = loop index, 6 = scratch temp.
constexpr int kScalarSlot = 3;
constexpr int kAccSlot = 4;
constexpr int kLoopSlot = 5;
constexpr int kTempSlot = 6;

// Emits bytecode that leaves one float on the operand stack.
class ExprGen {
 public:
  ExprGen(Assembler& a, Rng& rng, bool allow_acc)
      : a_(a), rng_(rng), allow_acc_(allow_acc) {}

  void Emit(int depth) {
    const int max_choice = depth <= 0 ? 3 : 9;
    switch (rng_.NextInt(0, max_choice)) {
      case 0:
        a_.FConst(static_cast<float>(rng_.NextDouble(-2.0, 2.0)));
        break;
      case 1:
        a_.Load(Type::Float(), kScalarSlot);
        break;
      case 2: {
        int arr = 1 + static_cast<int>(rng_.NextIndex(kNumArrays));
        a_.Load(Type::Array(Type::Float()), arr);
        a_.Load(Type::Int(), kLoopSlot);
        a_.ALoadElem(Type::Float());
        break;
      }
      case 3:
        if (allow_acc_) {
          a_.Load(Type::Float(), kAccSlot);
        } else {
          a_.FConst(0.75f);
        }
        break;
      case 4:
      case 5: {
        Emit(depth - 1);
        Emit(depth - 1);
        switch (rng_.NextInt(0, 3)) {
          case 0: a_.FAdd(); break;
          case 1: a_.FSub(); break;
          case 2: a_.FMul(); break;
          default:
            // a / (|b| + 0.5): keeps the divisor away from zero.
            a_.Convert(Type::Float(), Type::Double());
            a_.InvokeStatic("java/lang/Math", "abs");
            a_.Convert(Type::Double(), Type::Float());
            a_.FConst(0.5f).FAdd();
            a_.FDiv();
            break;
        }
        break;
      }
      case 6:
        Emit(depth - 1);
        a_.Neg(Type::Float());
        break;
      case 7:
        Emit(depth - 1);
        Emit(depth - 1);
        a_.Bin(Type::Float(),
               rng_.NextBool() ? jvm::BinOp::kMin : jvm::BinOp::kMax);
        break;
      case 8:
        // sqrt(|x|) via Math intrinsics (domain stays valid).
        Emit(depth - 1);
        a_.Convert(Type::Float(), Type::Double());
        a_.InvokeStatic("java/lang/Math", "abs");
        a_.InvokeStatic("java/lang/Math", "sqrt");
        a_.Convert(Type::Double(), Type::Float());
        break;
      default:
        // Helper call (exercises the inliner).
        Emit(depth - 1);
        a_.InvokeStatic("FuzzKernel", "helper");
        break;
    }
  }

 private:
  Assembler& a_;
  Rng& rng_;
  bool allow_acc_;
};

// Emits one random statement updating the accumulator (inside the loop).
void EmitLoopStatement(Assembler& a, Rng& rng) {
  switch (rng.NextInt(0, 2)) {
    case 0: {
      // acc = acc + <expr>
      a.Load(Type::Float(), kAccSlot);
      ExprGen(a, rng, /*allow_acc=*/false).Emit(2);
      a.FAdd().Store(Type::Float(), kAccSlot);
      break;
    }
    case 1: {
      // t = <expr>; acc = acc + t * t   (private temp)
      ExprGen(a, rng, false).Emit(2);
      a.Store(Type::Float(), kTempSlot);
      a.Load(Type::Float(), kAccSlot);
      a.Load(Type::Float(), kTempSlot).Load(Type::Float(), kTempSlot).FMul();
      a.FAdd().Store(Type::Float(), kAccSlot);
      break;
    }
    default: {
      // if (<e1> < <e2>) acc = acc + <e3>  [else acc = acc - <e4>]
      auto skip = a.NewLabel();
      ExprGen(a, rng, false).Emit(1);
      ExprGen(a, rng, false).Emit(1);
      a.Cmp(Type::Float());
      const bool has_else = rng.NextBool();
      if (!has_else) {
        a.If(Cond::kGe, skip);
        a.Load(Type::Float(), kAccSlot);
        ExprGen(a, rng, false).Emit(1);
        a.FAdd().Store(Type::Float(), kAccSlot);
        a.Bind(skip);
      } else {
        auto done = a.NewLabel();
        a.If(Cond::kGe, skip);
        a.Load(Type::Float(), kAccSlot);
        ExprGen(a, rng, false).Emit(1);
        a.FAdd().Store(Type::Float(), kAccSlot);
        a.Goto(done);
        a.Bind(skip);
        a.Load(Type::Float(), kAccSlot);
        ExprGen(a, rng, false).Emit(1);
        a.FSub().Store(Type::Float(), kAccSlot);
        a.Bind(done);
      }
      break;
    }
  }
}

struct FuzzCase {
  std::shared_ptr<jvm::ClassPool> pool;
  b2c::KernelSpec spec;
};

FuzzCase GenerateKernel(std::uint64_t seed) {
  Rng rng(seed);
  FuzzCase fc;
  fc.pool = std::make_shared<jvm::ClassPool>();

  jvm::Klass& in = fc.pool->Define("FuzzIn");
  in.AddField({"_1", Type::Array(Type::Float())});
  in.AddField({"_2", Type::Array(Type::Float())});
  in.AddField({"_3", Type::Float()});

  jvm::Klass& k = fc.pool->Define("FuzzKernel");
  {
    // static float helper(float x) { return x * 0.5f + 1.0f; }
    Assembler a;
    a.Load(Type::Float(), 0).FConst(0.5f).FMul().FConst(1.0f).FAdd();
    a.Ret(Type::Float());
    MethodSignature sig;
    sig.params = {Type::Float()};
    sig.ret = Type::Float();
    k.AddMethod(jvm::MakeMethod("helper", sig, true, 1, a.Finish()));
  }
  {
    Assembler a;
    const Type fa = Type::Array(Type::Float());
    a.Load(Type::Class("FuzzIn"), 0).GetField("FuzzIn", "_1").Store(fa, 1);
    a.Load(Type::Class("FuzzIn"), 0).GetField("FuzzIn", "_2").Store(fa, 2);
    a.Load(Type::Class("FuzzIn"), 0).GetField("FuzzIn", "_3")
        .Store(Type::Float(), kScalarSlot);
    a.FConst(0.0f).Store(Type::Float(), kAccSlot);
    // One or two canonical counted loops, 1-3 statements each.
    const int loops = static_cast<int>(rng.NextInt(1, 2));
    for (int l = 0; l < loops; ++l) {
      a.IConst(0).Store(Type::Int(), kLoopSlot);
      auto head = a.NewLabel();
      auto exit = a.NewLabel();
      a.Bind(head);
      a.Load(Type::Int(), kLoopSlot).IConst(kArrayLen)
          .IfICmp(Cond::kGe, exit);
      const int stmts = static_cast<int>(rng.NextInt(1, 3));
      for (int s = 0; s < stmts; ++s) EmitLoopStatement(a, rng);
      a.IInc(kLoopSlot, 1);
      a.Goto(head);
      a.Bind(exit);
    }
    a.Load(Type::Float(), kAccSlot).Ret(Type::Float());
    MethodSignature sig;
    sig.params = {Type::Class("FuzzIn")};
    sig.ret = Type::Float();
    k.AddMethod(jvm::MakeMethod("call", sig, true, 7, a.Finish()));
  }

  fc.spec.kernel_name = "fuzz_kernel";
  fc.spec.klass = "FuzzKernel";
  fc.spec.input.type = Type::Class("FuzzIn");
  fc.spec.input.fields = {{"_1", Type::Float(), kArrayLen, true},
                          {"_2", Type::Float(), kArrayLen, true},
                          {"_3", Type::Float(), 1, false}};
  fc.spec.output.type = Type::Float();
  fc.spec.output.fields = {{"ret", Type::Float(), 1, false}};
  fc.spec.batch = 16;
  return fc;
}

// Draws a random legal Merlin config for `kernel`.
merlin::DesignConfig RandomLegalConfig(const kir::Kernel& kernel, Rng& rng) {
  merlin::DesignConfig cfg;
  for (const kir::Stmt* loop : kernel.Loops()) {
    merlin::LoopConfig lc;
    std::vector<std::int64_t> tiles{1};
    for (std::int64_t t = 2; t < loop->trip_count(); ++t) {
      if (loop->trip_count() % t == 0) tiles.push_back(t);
    }
    lc.tile = tiles[rng.NextIndex(tiles.size())];
    std::int64_t max_par = lc.tile > 1 ? lc.tile : loop->trip_count();
    lc.parallel = rng.NextInt(1, max_par);
    lc.pipeline = static_cast<merlin::PipelineMode>(rng.NextInt(0, 2));
    cfg.loops[loop->loop_id()] = lc;
  }
  for (const auto& buf : kernel.buffers) {
    if (buf.kind == kir::BufferKind::kLocal) continue;
    std::vector<int> widths;
    for (int w = 32; w <= 512; w *= 2) {
      if (w >= buf.element.bit_width()) widths.push_back(w);
    }
    cfg.buffer_bits[buf.name] = widths[rng.NextIndex(widths.size())];
  }
  return cfg;
}

// Discriminates Value kinds for bit-exact comparison.
int ValueKind(const Value& v) {
  if (v.is_int()) return 0;
  if (v.is_long()) return 1;
  if (v.is_float()) return 2;
  if (v.is_double()) return 3;
  return 4;
}

// Raw bit pattern of a numeric Value (NaN payloads preserved).
std::uint64_t ValueBits(const Value& v) {
  if (v.is_int()) return static_cast<std::uint32_t>(v.AsInt());
  if (v.is_long()) return static_cast<std::uint64_t>(v.AsLong());
  if (v.is_float()) {
    float f = v.AsFloat();
    std::uint32_t b = 0;
    std::memcpy(&b, &f, sizeof(b));
    return b;
  }
  double d = v.AsDouble();
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

// Asserts two buffers hold the same first `n` values, bit for bit (NaN
// payloads and Value kinds included).
void ExpectBitIdentical(const std::vector<Value>& got,
                        const std::vector<Value>& want, std::size_t n,
                        const std::string& label) {
  ASSERT_GE(got.size(), n) << label;
  ASSERT_GE(want.size(), n) << label;
  for (std::size_t e = 0; e < n; ++e) {
    ASSERT_EQ(ValueKind(got[e]), ValueKind(want[e]))
        << label << " element " << e;
    ASSERT_EQ(ValueBits(got[e]), ValueBits(want[e]))
        << label << " element " << e;
  }
}

// Requires the slot-resolved and reference evaluators to produce
// bit-identical buffer maps (every buffer, every element, including NaN
// bit patterns) and to charge the same step count on `kernel`. With
// `live_tasks`, both run only the live tasks on inputs cut to their
// LiveRows span (as the Blaze runtime packs a short batch), and the live
// output rows must also equal those of a full-batch run (the prefix
// property).
void ExpectEvaluatorsBitIdentical(
    const kir::Kernel& kernel, const kir::BufferMap& inputs,
    std::int64_t batch,
    std::optional<std::int64_t> live_tasks = std::nullopt) {
  SCOPED_TRACE("live_tasks=" +
               (live_tasks ? std::to_string(*live_tasks) : "full"));
  const std::map<std::string, Value> scalars = {
      {"N", Value::OfInt(static_cast<std::int32_t>(
                live_tasks.value_or(batch)))}};
  kir::Evaluator fast(kernel);
  kir::ReferenceEvaluator ref(kernel);
  kir::BufferMap fast_bufs = inputs;
  if (live_tasks) {
    const std::int64_t rows = fast.LiveRows(*live_tasks);
    ASSERT_EQ(rows, ref.LiveRows(*live_tasks));
    ASSERT_GE(rows, *live_tasks);
    ASSERT_LE(rows, batch);
    for (const auto& buf : kernel.buffers) {
      if (buf.kind != kir::BufferKind::kInput) continue;
      fast_bufs[buf.name].resize(static_cast<std::size_t>(rows * buf.per_task));
    }
  }
  kir::BufferMap ref_bufs = fast_bufs;
  fast.Run(scalars, fast_bufs, live_tasks);
  ref.Run(scalars, ref_bufs, live_tasks);
  ASSERT_EQ(fast.last_steps(), ref.last_steps());
  ASSERT_EQ(fast_bufs.size(), ref_bufs.size());
  for (const auto& [name, fast_data] : fast_bufs) {
    auto it = ref_bufs.find(name);
    ASSERT_NE(it, ref_bufs.end()) << "buffer " << name;
    ASSERT_EQ(fast_data.size(), it->second.size()) << "buffer " << name;
    ExpectBitIdentical(fast_data, it->second, fast_data.size(),
                       "buffer " + name);
  }
  if (!live_tasks) return;
  kir::BufferMap full_bufs = inputs;
  kir::Evaluator(kernel).Run(scalars, full_bufs);
  for (const auto* buf : kernel.OutputBuffers()) {
    ExpectBitIdentical(
        fast_bufs[buf->name], full_bufs[buf->name],
        static_cast<std::size_t>(*live_tasks * buf->per_task),
        "live rows of " + buf->name);
  }
}

// Runs one fuzz case: interpreter vs compiled IR vs transformed IR.
void RunDifferential(std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  FuzzCase fc = GenerateKernel(seed);

  // The generator must only produce verifiable bytecode.
  jvm::VerifyOrThrow(*fc.pool,
                     fc.pool->Get("FuzzKernel").GetMethod("call"));

  kir::Kernel kernel = b2c::CompileKernel(*fc.pool, fc.spec);

  // Random inputs for one batch.
  Rng drng(seed ^ 0xDA7AULL);
  const std::size_t batch = static_cast<std::size_t>(fc.spec.batch);
  std::vector<float> a1(batch * kArrayLen), a2(batch * kArrayLen);
  std::vector<float> s(batch);
  for (auto& v : a1) v = static_cast<float>(drng.NextDouble(-3, 3));
  for (auto& v : a2) v = static_cast<float>(drng.NextDouble(-3, 3));
  for (auto& v : s) v = static_cast<float>(drng.NextDouble(-3, 3));

  // 1. Interpreter, record by record.
  jvm::Heap heap;
  jvm::Interpreter interp(*fc.pool, heap);
  std::vector<float> expect(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    jvm::Ref v1 = heap.NewArray(Type::Array(Type::Float()), kArrayLen);
    jvm::Ref v2 = heap.NewArray(Type::Array(Type::Float()), kArrayLen);
    for (int e = 0; e < kArrayLen; ++e) {
      heap.Get(v1).slots[static_cast<std::size_t>(e)] =
          Value::OfFloat(a1[r * kArrayLen + static_cast<std::size_t>(e)]);
      heap.Get(v2).slots[static_cast<std::size_t>(e)] =
          Value::OfFloat(a2[r * kArrayLen + static_cast<std::size_t>(e)]);
    }
    jvm::Ref obj = heap.NewInstance(Type::Class("FuzzIn"), 3);
    heap.Get(obj).slots[0] = Value::OfRef(v1);
    heap.Get(obj).slots[1] = Value::OfRef(v2);
    heap.Get(obj).slots[2] = Value::OfFloat(s[r]);
    expect[r] = interp.Invoke("FuzzKernel", "call", {Value::OfRef(obj)})
                    .ret.AsFloat();
  }

  // 2. Compiled IR through the evaluator.
  auto run_ir = [&](const kir::Kernel& k) {
    kir::BufferMap buffers;
    for (float v : a1) buffers["in_1"].push_back(Value::OfFloat(v));
    for (float v : a2) buffers["in_2"].push_back(Value::OfFloat(v));
    for (float v : s) buffers["in_3"].push_back(Value::OfFloat(v));
    kir::Evaluator(k).Run(
        {{"N", Value::OfInt(static_cast<std::int32_t>(batch))}}, buffers);
    std::vector<float> out(batch);
    for (std::size_t r = 0; r < batch; ++r) {
      out[r] = buffers["out_1"][r].AsFloat();
    }
    return out;
  };

  std::vector<float> compiled = run_ir(kernel);
  for (std::size_t r = 0; r < batch; ++r) {
    ASSERT_EQ(compiled[r], expect[r]) << "record " << r;
  }

  // 3. Three random Merlin transforms of the same kernel.
  Rng crng(seed ^ 0xC0F1ULL);
  for (int t = 0; t < 3; ++t) {
    merlin::DesignConfig cfg = RandomLegalConfig(kernel, crng);
    ASSERT_TRUE(merlin::ValidateConfig(kernel, cfg).empty())
        << cfg.ToString();
    kir::Kernel transformed = merlin::ApplyDesign(kernel, cfg).kernel;
    std::vector<float> got = run_ir(transformed);
    for (std::size_t r = 0; r < batch; ++r) {
      ASSERT_EQ(got[r], expect[r])
          << "record " << r << " config " << cfg.ToString();
    }
  }

  // 4. Slot-resolved vs reference evaluator must agree bit-for-bit on
  //    every buffer (and on step counts) — on the compiled kernel and on
  //    a random transform of it, over the full batch and over a random
  //    count of live tasks.
  kir::BufferMap inputs;
  for (float v : a1) inputs["in_1"].push_back(Value::OfFloat(v));
  for (float v : a2) inputs["in_2"].push_back(Value::OfFloat(v));
  for (float v : s) inputs["in_3"].push_back(Value::OfFloat(v));
  const auto full = static_cast<std::int64_t>(batch);
  Rng trng(seed ^ 0x51D3ULL);
  kir::Kernel transformed =
      merlin::ApplyDesign(kernel, RandomLegalConfig(kernel, trng)).kernel;
  for (const kir::Kernel* k : {&kernel, &transformed}) {
    ExpectEvaluatorsBitIdentical(*k, inputs, full);
    ExpectEvaluatorsBitIdentical(*k, inputs, full, trng.NextInt(1, full));
  }
  // A task loop tiled by 2, 4 or 8 with a live count the tile does not
  // divide: the last live tile runs padded tasks.
  merlin::DesignConfig tiled = RandomLegalConfig(kernel, trng);
  const std::int64_t tile = std::int64_t{2} << trng.NextInt(0, 2);
  tiled.loops[kernel.task_loop_id].tile = tile;
  tiled.loops[kernel.task_loop_id].parallel = trng.NextInt(1, tile);
  const std::int64_t live = tile * trng.NextInt(0, full / tile - 1) +
                            trng.NextInt(1, tile - 1);
  const kir::Kernel tiled_kernel = merlin::ApplyDesign(kernel, tiled).kernel;
  ASSERT_EQ(kir::Evaluator(tiled_kernel).LiveRows(live),
            (live / tile + 1) * tile);
  ExpectEvaluatorsBitIdentical(tiled_kernel, inputs, full, live);
}

// ------------------------------------------------- integer kernel family
//
// The float family above never exercises int/long arithmetic. This one
// generates kernels over int and long tuple fields: wrap-around add/sub/
// mul/neg, shifts by arbitrary (unmasked) counts, div/rem by divisors kept
// non-zero (but including -1, so MIN / -1 and MIN % -1 occur), min/max,
// l2i/i2l and the byte/char/short narrowings, and int and long compares.
// Its float->int variant mixes in Java's saturating conversions (f2i,
// d2i, f2l, d2l, and double to byte/char/short) over NaN, infinities,
// out-of-range constants and scaled ints and longs.

// Local slots of `static long call(IntIn in)`: 0 = in, 1 = int[], 2 =
// long[], 3 = int field, 4-5 = long field, 6-7 = accumulator, 8 = loop
// index, 9 = int temp.
constexpr int kIntScalarSlot = 3;
constexpr int kLongScalarSlot = 4;
constexpr int kLongAccSlot = 6;
constexpr int kIntLoopSlot = 8;
constexpr int kIntTempSlot = 9;

std::int32_t RandomInt(Rng& rng) {
  static constexpr std::int32_t kEdges[] = {INT32_MIN, INT32_MAX, -1, 0, 1};
  if (rng.NextBool(0.25)) return kEdges[rng.NextIndex(5)];
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(rng.Next()));
}

std::int64_t RandomLong(Rng& rng) {
  static constexpr std::int64_t kEdges[] = {INT64_MIN, INT64_MAX, -1, 0, 1};
  if (rng.NextBool(0.25)) return kEdges[rng.NextIndex(5)];
  return static_cast<std::int64_t>(rng.Next());
}

class IntExprGen {
 public:
  IntExprGen(Assembler& a, Rng& rng, bool float_to_int)
      : a_(a), rng_(rng), float_to_int_(float_to_int) {}

  // Leaves one int on the operand stack.
  void EmitInt(int depth) {
    if (float_to_int_ && depth > 0 && rng_.NextBool(0.3)) {
      static const Type kTargets[] = {Type::Int(), Type::Int(), Type::Byte(),
                                      Type::Char(), Type::Short()};
      EmitFloatToInt(kTargets[rng_.NextIndex(5)], depth - 1);
      return;
    }
    switch (rng_.NextInt(0, depth <= 0 ? 3 : 11)) {
      case 0:
        a_.IConst(rng_.NextBool() ? RandomInt(rng_)
                                  : static_cast<std::int32_t>(
                                        rng_.NextInt(-1000, 1000)));
        break;
      case 1:
        a_.Load(Type::Int(), kIntScalarSlot);
        break;
      case 2:
        a_.Load(Type::Array(Type::Int()), 1);
        a_.Load(Type::Int(), kIntLoopSlot);
        a_.ALoadElem(Type::Int());
        break;
      case 3:
        a_.Load(Type::Int(), kIntLoopSlot);
        break;
      case 4:
      case 5:
        EmitInt(depth - 1);
        EmitInt(depth - 1);
        a_.Bin(Type::Int(), kArith[rng_.NextIndex(8)]);
        break;
      case 6:
        EmitInt(depth - 1);
        EmitInt(depth - 1);  // any count: the JVM masks it to 5 bits
        a_.Bin(Type::Int(), kShifts[rng_.NextIndex(3)]);
        break;
      case 7:
        // MIN / -1 and MIN % -1 must come up, not just be possible.
        if (rng_.NextInt(0, 2) == 0) {
          a_.IConst(INT32_MIN);
        } else {
          EmitInt(depth - 1);
        }
        EmitIntDivisor(depth - 1);
        a_.Bin(Type::Int(), rng_.NextBool() ? jvm::BinOp::kDiv
                                            : jvm::BinOp::kRem);
        break;
      case 8:
        EmitInt(depth - 1);
        a_.Neg(Type::Int());
        break;
      case 9:
        EmitLong(depth - 1);
        a_.Convert(Type::Long(), Type::Int());
        break;
      case 10: {
        static const Type kNarrow[] = {Type::Byte(), Type::Char(),
                                       Type::Short()};
        EmitInt(depth - 1);
        a_.Convert(Type::Int(), kNarrow[rng_.NextIndex(3)]);
        break;
      }
      default:
        EmitInt(depth - 1);
        a_.IConst(RandomInt(rng_)).Bin(Type::Int(), jvm::BinOp::kMul);
        break;
    }
  }

  // Leaves one long on the operand stack.
  void EmitLong(int depth) {
    if (float_to_int_ && depth > 0 && rng_.NextBool(0.3)) {
      EmitFloatToInt(Type::Long(), depth - 1);
      return;
    }
    switch (rng_.NextInt(0, depth <= 0 ? 3 : 9)) {
      case 0:
        a_.LConst(rng_.NextBool() ? RandomLong(rng_)
                                  : rng_.NextInt(-1000, 1000));
        break;
      case 1:
        a_.Load(Type::Long(), kLongScalarSlot);
        break;
      case 2:
        a_.Load(Type::Array(Type::Long()), 2);
        a_.Load(Type::Int(), kIntLoopSlot);
        a_.ALoadElem(Type::Long());
        break;
      case 3:
        EmitInt(depth - 1);
        a_.Convert(Type::Int(), Type::Long());
        break;
      case 4:
      case 5:
        EmitLong(depth - 1);
        EmitLong(depth - 1);
        a_.Bin(Type::Long(), kArith[rng_.NextIndex(8)]);
        break;
      case 6:
        EmitLong(depth - 1);
        EmitInt(depth - 1);  // lshl/lshr/lushr take an int count
        a_.Bin(Type::Long(), kShifts[rng_.NextIndex(3)]);
        break;
      case 7:
        if (rng_.NextInt(0, 2) == 0) {
          a_.LConst(INT64_MIN);
        } else {
          EmitLong(depth - 1);
        }
        EmitLongDivisor(depth - 1);
        a_.Bin(Type::Long(), rng_.NextBool() ? jvm::BinOp::kDiv
                                             : jvm::BinOp::kRem);
        break;
      case 8:
        EmitLong(depth - 1);
        a_.Neg(Type::Long());
        break;
      default:
        EmitLong(depth - 1);
        a_.LConst(RandomLong(rng_)).Bin(Type::Long(), jvm::BinOp::kMul);
        break;
    }
  }

 private:
  static constexpr jvm::BinOp kArith[] = {
      jvm::BinOp::kAdd, jvm::BinOp::kSub, jvm::BinOp::kMul, jvm::BinOp::kAnd,
      jvm::BinOp::kOr,  jvm::BinOp::kXor, jvm::BinOp::kMin, jvm::BinOp::kMax};
  static constexpr jvm::BinOp kShifts[] = {
      jvm::BinOp::kShl, jvm::BinOp::kShr, jvm::BinOp::kUShr};

  // Converts a double (or, half the time, float) operand to `target`: an
  // edge constant the conversion must saturate or zero, or a scaled int
  // or long. Scaled values stay inside float range, where d2f is defined.
  void EmitFloatToInt(const Type& target, int depth) {
    static constexpr double kEdges[] = {
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        3e9, -3e9, 1e19, -1e19, -0.75, 2147483647.5};
    static constexpr double kScales[] = {1.5, -1e6, 1e12, 1e-3};
    if (rng_.NextBool()) {
      a_.DConst(kEdges[rng_.NextIndex(9)]);
    } else {
      if (rng_.NextBool()) {
        EmitInt(depth);
        a_.Convert(Type::Int(), Type::Double());
      } else {
        EmitLong(depth);
        a_.Convert(Type::Long(), Type::Double());
      }
      a_.DConst(kScales[rng_.NextIndex(4)]).Bin(Type::Double(),
                                                jvm::BinOp::kMul);
    }
    Type from = Type::Double();
    if (rng_.NextBool()) {
      a_.Convert(Type::Double(), Type::Float());
      from = Type::Float();
    }
    a_.Convert(from, target);
  }

  // A divisor that cannot be zero: -1, another constant, or x | 1.
  void EmitIntDivisor(int depth) {
    static constexpr std::int32_t kDivisors[] = {1, 3, -7, INT32_MIN,
                                                 INT32_MAX};
    switch (rng_.NextInt(0, 2)) {
      case 0:
        a_.IConst(-1);
        break;
      case 1:
        a_.IConst(kDivisors[rng_.NextIndex(5)]);
        break;
      default:
        EmitInt(depth);
        a_.IConst(1).Bin(Type::Int(), jvm::BinOp::kOr);
        break;
    }
  }

  void EmitLongDivisor(int depth) {
    static constexpr std::int64_t kDivisors[] = {1, 3, -7, INT64_MIN,
                                                 INT64_MAX};
    switch (rng_.NextInt(0, 2)) {
      case 0:
        a_.LConst(-1);
        break;
      case 1:
        a_.LConst(kDivisors[rng_.NextIndex(5)]);
        break;
      default:
        EmitLong(depth);
        a_.LConst(1).Bin(Type::Long(), jvm::BinOp::kOr);
        break;
    }
  }

  Assembler& a_;
  Rng& rng_;
  bool float_to_int_;
};

// Emits one random statement updating the long accumulator.
void EmitIntLoopStatement(Assembler& a, Rng& rng, bool float_to_int) {
  IntExprGen gen(a, rng, float_to_int);
  auto add_to_acc = [&](jvm::BinOp op, int depth) {
    a.Load(Type::Long(), kLongAccSlot);
    gen.EmitLong(depth);
    a.Bin(Type::Long(), op).Store(Type::Long(), kLongAccSlot);
  };
  switch (rng.NextInt(0, 3)) {
    case 0:
      add_to_acc(jvm::BinOp::kAdd, 2);
      break;
    case 1:
      // t = <int expr>; acc = acc * 31 + t
      gen.EmitInt(2);
      a.Store(Type::Int(), kIntTempSlot);
      a.Load(Type::Long(), kLongAccSlot).LConst(31);
      a.Bin(Type::Long(), jvm::BinOp::kMul);
      a.Load(Type::Int(), kIntTempSlot).Convert(Type::Int(), Type::Long());
      a.Bin(Type::Long(), jvm::BinOp::kAdd).Store(Type::Long(), kLongAccSlot);
      break;
    case 2: {
      // if (<int> < <int>) acc ^= <long> [else acc -= <long>]
      auto skip = a.NewLabel();
      gen.EmitInt(1);
      gen.EmitInt(1);
      if (!rng.NextBool()) {
        a.IfICmp(Cond::kGe, skip);
        add_to_acc(jvm::BinOp::kXor, 1);
        a.Bind(skip);
        break;
      }
      auto done = a.NewLabel();
      a.IfICmp(Cond::kGe, skip);
      add_to_acc(jvm::BinOp::kXor, 1);
      a.Goto(done);
      a.Bind(skip);
      add_to_acc(jvm::BinOp::kSub, 1);
      a.Bind(done);
      break;
    }
    default: {
      // if (<long> > <long>) acc = acc + (long) <int>
      auto skip = a.NewLabel();
      gen.EmitLong(1);
      gen.EmitLong(1);
      a.Cmp(Type::Long()).If(Cond::kLe, skip);
      a.Load(Type::Long(), kLongAccSlot);
      gen.EmitInt(1);
      a.Convert(Type::Int(), Type::Long()).Bin(Type::Long(), jvm::BinOp::kAdd);
      a.Store(Type::Long(), kLongAccSlot);
      a.Bind(skip);
      break;
    }
  }
}

FuzzCase GenerateIntKernel(std::uint64_t seed, bool float_to_int = false) {
  Rng rng(seed);
  FuzzCase fc;
  fc.pool = std::make_shared<jvm::ClassPool>();

  jvm::Klass& in = fc.pool->Define("IntIn");
  in.AddField({"_1", Type::Array(Type::Int())});
  in.AddField({"_2", Type::Array(Type::Long())});
  in.AddField({"_3", Type::Int()});
  in.AddField({"_4", Type::Long()});

  jvm::Klass& k = fc.pool->Define("IntKernel");
  Assembler a;
  const Type in_type = Type::Class("IntIn");
  a.Load(in_type, 0).GetField("IntIn", "_1").Store(Type::Array(Type::Int()), 1);
  a.Load(in_type, 0).GetField("IntIn", "_2")
      .Store(Type::Array(Type::Long()), 2);
  a.Load(in_type, 0).GetField("IntIn", "_3")
      .Store(Type::Int(), kIntScalarSlot);
  a.Load(in_type, 0).GetField("IntIn", "_4")
      .Store(Type::Long(), kLongScalarSlot);
  a.LConst(0).Store(Type::Long(), kLongAccSlot);
  const int loops = static_cast<int>(rng.NextInt(1, 2));
  for (int l = 0; l < loops; ++l) {
    a.IConst(0).Store(Type::Int(), kIntLoopSlot);
    auto head = a.NewLabel();
    auto exit = a.NewLabel();
    a.Bind(head);
    a.Load(Type::Int(), kIntLoopSlot).IConst(kArrayLen)
        .IfICmp(Cond::kGe, exit);
    const int stmts = static_cast<int>(rng.NextInt(1, 3));
    for (int s = 0; s < stmts; ++s) {
      EmitIntLoopStatement(a, rng, float_to_int);
    }
    a.IInc(kIntLoopSlot, 1);
    a.Goto(head);
    a.Bind(exit);
  }
  a.Load(Type::Long(), kLongAccSlot).Ret(Type::Long());
  MethodSignature sig;
  sig.params = {in_type};
  sig.ret = Type::Long();
  k.AddMethod(jvm::MakeMethod("call", sig, true, 10, a.Finish()));

  fc.spec.kernel_name = "int_fuzz_kernel";
  fc.spec.klass = "IntKernel";
  fc.spec.input.type = in_type;
  auto field = [](const char* name, Type element, std::int64_t length) {
    b2c::FieldSpec f;
    f.name = name;
    f.element = element;
    f.length = length;
    f.is_array = length > 1;
    return f;
  };
  fc.spec.input.fields = {field("_1", Type::Int(), kArrayLen),
                          field("_2", Type::Long(), kArrayLen),
                          field("_3", Type::Int(), 1),
                          field("_4", Type::Long(), 1)};
  fc.spec.output.type = Type::Long();
  fc.spec.output.fields = {field("ret", Type::Long(), 1)};
  fc.spec.batch = 16;
  return fc;
}

// Interpreter vs compiled IR (typed evaluator) vs the reference walker on
// one integer kernel, bit for bit, with equal evaluator step counts.
void RunIntDifferential(std::uint64_t seed, bool float_to_int = false) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  FuzzCase fc = GenerateIntKernel(seed, float_to_int);
  jvm::VerifyOrThrow(*fc.pool, fc.pool->Get("IntKernel").GetMethod("call"));
  kir::Kernel kernel = b2c::CompileKernel(*fc.pool, fc.spec);

  Rng drng(seed ^ 0x1A7EULL);
  const std::size_t batch = static_cast<std::size_t>(fc.spec.batch);
  std::vector<std::int32_t> ints(batch * kArrayLen), int_field(batch);
  std::vector<std::int64_t> longs(batch * kArrayLen), long_field(batch);
  for (auto& v : ints) v = RandomInt(drng);
  for (auto& v : longs) v = RandomLong(drng);
  for (auto& v : int_field) v = RandomInt(drng);
  for (auto& v : long_field) v = RandomLong(drng);

  jvm::Heap heap;
  jvm::Interpreter interp(*fc.pool, heap);
  std::vector<std::int64_t> expect(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    jvm::Ref vi = heap.NewArray(Type::Array(Type::Int()), kArrayLen);
    jvm::Ref vl = heap.NewArray(Type::Array(Type::Long()), kArrayLen);
    for (std::size_t e = 0; e < static_cast<std::size_t>(kArrayLen); ++e) {
      heap.Get(vi).slots[e] = Value::OfInt(ints[r * kArrayLen + e]);
      heap.Get(vl).slots[e] = Value::OfLong(longs[r * kArrayLen + e]);
    }
    jvm::Ref obj = heap.NewInstance(Type::Class("IntIn"), 4);
    heap.Get(obj).slots[0] = Value::OfRef(vi);
    heap.Get(obj).slots[1] = Value::OfRef(vl);
    heap.Get(obj).slots[2] = Value::OfInt(int_field[r]);
    heap.Get(obj).slots[3] = Value::OfLong(long_field[r]);
    expect[r] =
        interp.Invoke("IntKernel", "call", {Value::OfRef(obj)}).ret.AsLong();
  }

  kir::BufferMap inputs;
  for (std::int32_t v : ints) inputs["in_1"].push_back(Value::OfInt(v));
  for (std::int64_t v : longs) inputs["in_2"].push_back(Value::OfLong(v));
  for (std::int32_t v : int_field) inputs["in_3"].push_back(Value::OfInt(v));
  for (std::int64_t v : long_field) {
    inputs["in_4"].push_back(Value::OfLong(v));
  }
  kir::BufferMap buffers = inputs;
  kir::Evaluator(kernel).Run(
      {{"N", Value::OfInt(static_cast<std::int32_t>(batch))}}, buffers);
  for (std::size_t r = 0; r < batch; ++r) {
    ASSERT_EQ(buffers["out_1"][r].AsLong(), expect[r]) << "record " << r;
  }

  const auto full = static_cast<std::int64_t>(batch);
  Rng trng(seed ^ 0x17D3ULL);
  kir::Kernel transformed =
      merlin::ApplyDesign(kernel, RandomLegalConfig(kernel, trng)).kernel;
  for (const kir::Kernel* k : {&kernel, &transformed}) {
    ExpectEvaluatorsBitIdentical(*k, inputs, full);
    ExpectEvaluatorsBitIdentical(*k, inputs, full, trng.NextInt(1, full));
  }
}

class IntegerDifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(IntegerDifferentialFuzz, InterpreterAndBothEvaluatorsAgree) {
  for (int k = 0; k < 8; ++k) {
    RunIntDifferential(static_cast<std::uint64_t>(GetParam()) * 1000 +
                       static_cast<std::uint64_t>(k));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegerDifferentialFuzz,
                         ::testing::Range(0, 8));

class FloatToIntDifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FloatToIntDifferentialFuzz, InterpreterAndBothEvaluatorsAgree) {
  for (int k = 0; k < 8; ++k) {
    RunIntDifferential(static_cast<std::uint64_t>(GetParam()) * 1000 +
                           static_cast<std::uint64_t>(k),
                       /*float_to_int=*/true);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FloatToIntDifferentialFuzz,
                         ::testing::Range(0, 4));

// Instruction texts the pinned seeds of one int-kernel family emit.
std::map<std::string, int> IntKernelInsns(bool float_to_int, int params) {
  std::map<std::string, int> seen;
  for (int p = 0; p < params; ++p) {
    for (int k = 0; k < 8; ++k) {
      FuzzCase fc = GenerateIntKernel(static_cast<std::uint64_t>(p) * 1000 +
                                          static_cast<std::uint64_t>(k),
                                      float_to_int);
      for (const jvm::Insn& insn :
           fc.pool->Get("IntKernel").GetMethod("call").code) {
        ++seen[insn.ToString()];
      }
    }
  }
  return seen;
}

int CountMatching(const std::map<std::string, int>& seen,
                  const std::string& needle) {
  int n = 0;
  for (const auto& [text, c] : seen) {
    if (text.find(needle) != std::string::npos) n += c;
  }
  return n;
}

TEST(FuzzGeneratorTest, FloatToIntKernelsCoverEveryConversion) {
  const std::map<std::string, int> seen = IntKernelInsns(true, 4);
  for (const char* op :
       {"convert double->int", "convert double->long", "convert float->int",
        "convert float->long", "convert double->byte", "convert float->char",
        "convert double->short"}) {
    EXPECT_GT(CountMatching(seen, op), 0) << op;
  }
}

TEST(FuzzGeneratorTest, IntKernelsCoverTheIntegerEdgeCases) {
  // Over the pinned seeds the generator must emit every integer op the
  // family exists for, so a generator change cannot silently drop one.
  const std::map<std::string, int> seen = IntKernelInsns(false, 8);
  auto count = [&](const std::string& needle) {
    return CountMatching(seen, needle);
  };
  for (const char* op :
       {"binop long div", "binop long rem", "binop int div", "binop int rem",
        "binop long shl", "binop long ushr", "binop int shl",
        "binop int ushr", "neg long", "neg int", "convert long->int",
        "convert int->long", "convert int->short", "cmp long"}) {
    EXPECT_GT(count(op), 0) << op;
  }
}

class DifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialFuzz, InterpreterCompilerAndMerlinAgree) {
  // 8 random kernels per gtest parameter.
  for (int k = 0; k < 8; ++k) {
    RunDifferential(static_cast<std::uint64_t>(GetParam()) * 1000 +
                    static_cast<std::uint64_t>(k));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz, ::testing::Range(0, 12));

TEST(FuzzGeneratorTest, ProducesVerifiableKernels) {
  for (std::uint64_t seed = 500; seed < 540; ++seed) {
    FuzzCase fc = GenerateKernel(seed);
    jvm::VerifyResult r = jvm::Verify(
        *fc.pool, fc.pool->Get("FuzzKernel").GetMethod("call"));
    EXPECT_TRUE(r.ok) << "seed " << seed << ": "
                      << (r.errors.empty() ? "" : r.errors[0]);
  }
}

// Negative fuzzing: corrupting structural invariants of valid bytecode
// (branch targets, local slots) must be caught by the verifier — never
// silently mis-verified.
class CorruptionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CorruptionFuzz, VerifierRejectsStructuralCorruption) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 37 + 5);
  for (int k = 0; k < 10; ++k) {
    FuzzCase fc = GenerateKernel(800 + static_cast<std::uint64_t>(
                                           GetParam() * 10 + k));
    jvm::Method method = fc.pool->Get("FuzzKernel").GetMethod("call");
    // Corrupt one instruction structurally.
    std::size_t pc = rng.NextIndex(method.code.size());
    jvm::Insn& insn = method.code[pc];
    switch (rng.NextInt(0, 2)) {
      case 0:  // branch target out of range
        if (!jvm::IsBranch(insn.op)) continue;
        insn.target = method.code.size() + 17;
        break;
      case 1:  // local slot out of range
        if (insn.op != jvm::Opcode::kLoad &&
            insn.op != jvm::Opcode::kStore) {
          continue;
        }
        insn.slot = method.max_locals + 3;
        break;
      default:  // truncate the method (drops the return / splits blocks)
        if (method.code.size() < 4) continue;
        method.code.resize(method.code.size() / 2);
        break;
    }
    jvm::VerifyResult r = jvm::Verify(*fc.pool, method);
    EXPECT_FALSE(r.ok) << "seed " << GetParam() << " case " << k
                       << " pc " << pc;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionFuzz, ::testing::Range(0, 6));

TEST(FuzzGeneratorTest, KernelsAreDeterministicPerSeed) {
  FuzzCase a = GenerateKernel(42);
  FuzzCase b = GenerateKernel(42);
  const auto& ca = a.pool->Get("FuzzKernel").GetMethod("call").code;
  const auto& cb = b.pool->Get("FuzzKernel").GetMethod("call").code;
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].ToString(), cb[i].ToString()) << i;
  }
}

}  // namespace
}  // namespace s2fa
