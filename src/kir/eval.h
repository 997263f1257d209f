// Kernel IR functional evaluator.
//
// Executes a kernel on concrete data with the same numeric semantics as the
// bytecode it was compiled from (Java semantics: exact integral compares,
// wrapping int/long arithmetic, MIN / -1 == MIN, NaN-propagating
// signed-zero-aware min/max). Used to prove functional equivalence:
// interpreted bytecode == compiled IR == Merlin-transformed IR, the
// end-to-end correctness obligation of the bytecode-to-C compiler. It is
// also the functional engine behind every Blaze Map/Reduce and the host
// path an invocation degrades to when its accelerator fails.
//
// Typed closure compilation. A Program compiles a kernel once: every IR
// node becomes a node holding a function pointer specialised on its
// (node kind, numeric form, op, store kind) — e.g. a float add, an int
// store into a short buffer, a cast to char — plus pointers to its operand
// nodes. Every variable gets a dense slot and every buffer a dense index.
// Each node's value kind (int, long, float or double: the Value
// alternative the node produces) is static, so a node returns an unboxed
// 8-byte word and evaluation never switches on an op or inspects a Value
// alternative. A variable or buffer must therefore have a single static
// kind: its declaration, every store to it and (for scalars) its parameter
// type must agree, or construction throws MalformedInput naming it.
//
// Program and frame. A Program is immutable after construction, so one
// Program can back any number of Evaluators on any number of threads (the
// Blaze runtime compiles one per registered accelerator). An Evaluator is
// the per-run frame over a Program: the variable words and bound flags,
// the buffer pointers and the step counter. It is not thread-safe; each
// thread owns its own.
//
// Checks. Evaluation charges one step per IR node visited against a
// runaway budget; a statement charges itself and the expression nodes it
// will visit up front (a select charges the arm it takes), so a completed
// run counts every node exactly and a run that throws may include the rest
// of the statement it threw in. Reads of unbound variables fail, buffer
// reads and writes are bounds-checked, integral division and remainder by
// zero fail, and Run rejects a scalar argument or buffer element whose
// Value kind differs from the declared kind.
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
#include <memory>
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

// How a kernel's task loop covers its batch; resolved once per kernel (see
// "Live tasks" above).
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
  std::int64_t trip_ = 0;            // task-loop trip count
  std::int64_t batch_ = 0;           // template tasks per invocation
  std::int64_t tasks_per_iter_ = 0;  // 0: shape unresolved, run in full
};

// A kernel compiled into typed closures (see file comment). Immutable and
// self-contained: it keeps no reference to the kernel it came from.
class Program {
 public:
  // Validates and compiles `kernel`; throws MalformedInput when a variable
  // or buffer has no single static kind.
  explicit Program(const Kernel& kernel);
  ~Program();
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  std::int64_t LiveRows(std::int64_t live_tasks) const {
    return span_.LiveRows(live_tasks);
  }

  struct Code;  // the compiled node graph (eval.cc)

 private:
  friend class Evaluator;

  TaskSpan span_;
  std::unique_ptr<const Code> code_;
};

// The per-run frame over a Program.
class Evaluator {
 public:
  // Compiles a private Program for `kernel`.
  explicit Evaluator(const Kernel& kernel);
  // Runs an already compiled (possibly shared) Program.
  explicit Evaluator(std::shared_ptr<const Program> program);
  ~Evaluator();
  Evaluator(Evaluator&&) noexcept;
  Evaluator& operator=(Evaluator&&) noexcept;

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
    return program_->LiveRows(live_tasks);
  }

  // Instruction-ish step count of the last Run (sanity/runaway guard).
  std::uint64_t last_steps() const;

  struct Frame;  // variable words, bound flags, buffer pointers, steps

 private:
  std::shared_ptr<const Program> program_;
  std::unique_ptr<Frame> frame_;
};

}  // namespace s2fa::kir
