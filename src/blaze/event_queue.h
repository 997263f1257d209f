// EventQueue: the one discrete-event priority queue of the serving layer.
//
// BlazeService (health samples and the dispatch planner), BlazeCluster and
// StreamSession all advance their simulated clocks by popping events from
// this queue, so the tie-break policy lives here and nowhere else. Events
// pop in (time, rank, push order) order:
//
//   * time  — the simulated instant, microseconds;
//   * rank  — a caller-chosen class order at equal times (the stream pops
//             arrivals before batch timers); callers that need none push
//             rank 0;
//   * push order — a per-queue counter, so events equal in (time, rank)
//             pop FIFO.
//
// Every key is unique, so the pop order is a total order fixed by the push
// sequence alone — the same on every platform and heap implementation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace s2fa::blaze {

template <typename Payload>
class EventQueue {
 public:
  struct Event {
    double time_us = 0;
    int rank = 0;
    std::size_t order = 0;  // push order
    Payload payload;
  };

  void Push(double time_us, Payload payload, int rank = 0) {
    heap_.push_back({time_us, rank, pushed_++, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }
  bool empty() const { return heap_.empty(); }
  // Time of the next event to pop; the queue must not be empty.
  double NextTime() const { return heap_.front().time_us; }
  // Removes and returns the next event; the queue must not be empty.
  Event Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    Event event = std::move(heap_.back());
    heap_.pop_back();
    return event;
  }

 private:
  // Max-heap comparator: `a` pops after `b`.
  static bool Later(const Event& a, const Event& b) {
    if (a.time_us != b.time_us) return a.time_us > b.time_us;
    if (a.rank != b.rank) return a.rank > b.rank;
    return a.order > b.order;
  }

  std::vector<Event> heap_;
  std::size_t pushed_ = 0;
};

}  // namespace s2fa::blaze
