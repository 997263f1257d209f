// The reference KIR semantics: a map-keyed tree walker over the kernel IR.
//
// Test-only. Every node returns a dynamically typed jvm::Value and every
// operator re-derives its numeric domain from the IR types, the plainest
// reading of the IR's Java semantics. The differential tests run kernels
// through this walker and through kir::Evaluator and require bit-identical
// buffers and equal step counts, so the compiled evaluator can never
// silently diverge from it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "kir/eval.h"

namespace s2fa::kir {

class ReferenceEvaluator {
 public:
  explicit ReferenceEvaluator(const Kernel& kernel);

  // Same contract as Evaluator::Run, including live tasks and the step
  // count, but with no static-kind rule: any Value flows anywhere.
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
