// Kernel IR functional evaluator.
//
// Executes a kernel on concrete data with the same numeric semantics as the
// bytecode it was compiled from (Java semantics: exact integral compares,
// NaN-propagating signed-zero-aware min/max). Used to prove functional
// equivalence: interpreted bytecode == compiled IR == Merlin-transformed
// IR, the end-to-end correctness obligation of the bytecode-to-C compiler.
//
// Two implementations share that contract:
//
//  - Evaluator (the hot path): a resolution pass at construction compiles
//    the kernel into flat vectors of resolved nodes — every scalar, local,
//    and loop variable gets a dense integer slot, every buffer a dense
//    buffer index, literals are pre-materialized, and binary ops are
//    pre-classified by numeric domain — so evaluation never touches a
//    string-keyed map. This is what the DSE loop and the Blaze runtime run
//    thousands of times per exploration.
//
//  - ReferenceEvaluator: the original map-keyed tree walker, retained as
//    executable reference semantics. The differential fuzz harness runs
//    every random kernel through both and requires bit-identical buffers,
//    so the fast path can never silently diverge.
//
// Both count one step per IR node visited (same runaway budget), and both
// keep the map-keyed Run signature, so they are drop-in interchangeable.
//
// Live tasks. A template kernel processes a fixed batch of tasks in its
// task loop (Kernel::task_loop_id, the outer loop after Merlin tiling, so
// one iteration may cover a whole tile of tasks), and the host zero-pads
// short batches. Run(scalars, buffers, live_tasks) executes only the first
// ceil(live_tasks / tasks-per-iteration) task-loop iterations; every
// statement outside the task loop (a reduce kernel's flush) runs as usual.
// The task loop is sequential and a task writes only its own rows, so the
// live rows come out exactly as in a full-batch run. LiveRows(live_tasks)
// is the padded span those iterations touch: per-task inputs need only that
// many rows, and a task that reads beyond them fails the bounds check
// instead of reading padding. Without live_tasks (or when the task loop's
// shape cannot be resolved) the whole batch runs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "jvm/value.h"
#include "kir/kernel.h"

namespace s2fa::kir {

using jvm::Value;

// Buffer contents keyed by buffer name. Inputs must be pre-sized to the
// buffer's declared length (per-task inputs: LiveRows x per_task rows when
// Run is given live_tasks); outputs and locals are zero-initialized by Run
// if absent.
using BufferMap = std::map<std::string, std::vector<Value>>;

// How a kernel's task loop covers its batch; resolved once per kernel and
// shared by both evaluators (see "Live tasks" above).
class TaskSpan {
 public:
  explicit TaskSpan(const Kernel& kernel);

  const Stmt* loop() const { return loop_; }
  // Task-loop iterations that cover the first `live_tasks` tasks (the full
  // trip count when absent).
  std::int64_t Iterations(std::optional<std::int64_t> live_tasks) const;
  // Tasks those iterations can touch.
  std::int64_t LiveRows(std::int64_t live_tasks) const;

 private:
  const Stmt* loop_ = nullptr;
  std::int64_t batch_ = 0;           // template tasks per invocation
  std::int64_t tasks_per_iter_ = 0;  // 0: shape unresolved, run in full
};

// Slot-resolved evaluator: name lookups are compiled away at construction.
// Not thread-safe; each thread should own its own instance (construction
// cost amortizes over the batches of a run).
class Evaluator {
 public:
  explicit Evaluator(const Kernel& kernel);

  // Runs the kernel. `scalars` provides values for every declared scalar
  // parameter. `buffers` provides inputs and receives outputs. Missing
  // output/local entries are created zero-filled with the declared length;
  // off-chip buffers may be larger than declared (task-batched). With
  // `live_tasks`, only the task-loop iterations covering the first
  // `live_tasks` tasks run, and per-task inputs need only LiveRows rows.
  void Run(const std::map<std::string, Value>& scalars, BufferMap& buffers,
           std::optional<std::int64_t> live_tasks = std::nullopt);

  // Tasks a Run with `live_tasks` can touch (see file comment).
  std::int64_t LiveRows(std::int64_t live_tasks) const {
    return span_.LiveRows(live_tasks);
  }

  // Instruction-ish step count of the last Run (sanity/runaway guard).
  std::uint64_t last_steps() const { return steps_; }

 private:
  // Numeric domain of a binary op, pre-classified at resolution time so
  // evaluation switches on a dense enum instead of re-deriving it from
  // Type objects per node.
  enum class BinForm : std::uint8_t {
    kCmpInt,    // comparison, integral operands (exact int64 compare)
    kCmpFloat,  // comparison, floating operands (double compare)
    kLogical,   // kLAnd / kLOr
    kFloat32,   // float arithmetic (computed in float)
    kFloat64,   // double arithmetic
    kInt32,     // int-family arithmetic (computed in int64, narrowed)
    kInt64,     // long arithmetic
  };

  // One resolved expression node; operands are indices into rexprs_.
  struct RExpr {
    ExprKind kind = ExprKind::kIntLit;
    BinForm form = BinForm::kInt32;
    BinaryOp bop = BinaryOp::kAdd;
    UnaryOp uop = UnaryOp::kNeg;
    Intrinsic fn = Intrinsic::kExp;
    TypeKind type = TypeKind::kInt;  // node result type
    TypeKind opnd = TypeKind::kInt;  // first operand's type (unary/binary)
    std::int32_t slot = -1;          // var slot (kVar) / buffer id (kArrayRef)
    std::int32_t a = -1;
    std::int32_t b = -1;
    std::int32_t c = -1;
    Value lit;  // pre-materialized literal (kIntLit / kFloatLit)
  };

  // One resolved statement node; children are indices into rstmts_.
  struct RStmt {
    StmtKind kind = StmtKind::kBlock;
    std::int32_t a = -1;          // rhs / init / cond expression
    std::int32_t index = -1;      // assign-to-array index expression
    std::int32_t slot = -1;       // var slot or buffer id of the target
    bool lhs_is_var = true;       // kAssign: variable vs array element
    TypeKind store = TypeKind::kInt;  // narrow-to type for assign/decl
    Value dflt;                   // decl default (no initializer)
    std::int64_t trip = 0;        // kFor trip count
    std::int32_t body = -1;       // for body / if then
    std::int32_t els = -1;        // if else
    std::vector<std::int32_t> stmts;  // kBlock children
  };

  std::int32_t VarSlot(const std::string& name);
  std::int32_t CompileExpr(const ExprPtr& expr);
  std::int32_t CompileStmt(const Stmt& stmt);
  Value EvalExpr(std::int32_t idx);
  void ExecStmt(std::int32_t idx);

  const Kernel& kernel_;
  TaskSpan span_;

  // Resolved program (built once at construction).
  std::vector<RExpr> rexprs_;
  std::vector<RStmt> rstmts_;
  std::int32_t root_ = -1;
  std::int32_t task_stmt_ = -1;  // rstmts_ index of the task loop
  std::vector<std::string> var_names_;     // slot -> name (diagnostics)
  std::map<std::string, std::int32_t> var_slots_;
  std::vector<std::int32_t> scalar_slots_;  // kernel_.scalars[i] -> slot
  std::vector<std::int32_t> buffer_ids_;    // kernel_.buffers[i] -> id
  std::map<std::string, std::int32_t> buffer_id_by_name_;

  // Flat runtime environment (reset per Run).
  std::vector<Value> slots_;
  std::vector<std::uint8_t> bound_;
  std::vector<std::vector<Value>*> bufs_;
  std::int64_t task_trip_ = 0;  // task-loop iterations of this Run

  std::uint64_t steps_ = 0;
  std::uint64_t max_steps_ = 2'000'000'000ULL;
};

// The legacy map-keyed tree walker (reference semantics; see file comment).
class ReferenceEvaluator {
 public:
  explicit ReferenceEvaluator(const Kernel& kernel);

  void Run(const std::map<std::string, Value>& scalars, BufferMap& buffers,
           std::optional<std::int64_t> live_tasks = std::nullopt);

  std::int64_t LiveRows(std::int64_t live_tasks) const {
    return span_.LiveRows(live_tasks);
  }

  std::uint64_t last_steps() const { return steps_; }

 private:
  struct Env {
    std::map<std::string, Value> vars;
    BufferMap* buffers = nullptr;
  };

  Value Eval(const ExprPtr& expr, Env& env);
  void Exec(const Stmt& stmt, Env& env);

  const Kernel& kernel_;
  TaskSpan span_;
  std::int64_t task_trip_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t max_steps_ = 2'000'000'000ULL;
};

}  // namespace s2fa::kir
