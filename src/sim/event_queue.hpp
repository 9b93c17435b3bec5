// Deterministic discrete-event queue: events at equal times fire in the
// order they were scheduled (a monotone sequence number breaks ties), so a
// simulation run is a pure function of its inputs.
//
// The queue is a k-way merge of FIFO lanes. Every push names a lane, and
// the times pushed to one lane must never decrease (an always-on check
// aborts otherwise), so each lane is already sorted by (time, seq) and
// only the lanes' heads need ordering. A push appends to its lane and
// touches the head heap only when the lane was empty; a pop takes the
// front of the earliest lane and sifts a heap of non-empty lanes, not of
// events. The dynamic engine's events are one node's clock plus a fixed
// delay, one lane per (node, delay) (balance/engine.hpp): on 32 nodes
// that is ~64 heads where a heap of events held ~14K.
//
// (time, seq) is a total order, so the pop sequence is the one any correct
// priority queue over the same events would give.
//
// A lane is a chain of fixed-size chunks drawn from one pool shared by all
// lanes; a chunk goes back to the pool as soon as the lane has read past
// it. Lanes peak at different times (on the 32-node Gradient rows the sum
// of per-lane peaks is ~4x the queue's peak), so the shared pool keeps
// storage at the queue's live size plus at most two part-filled chunks per
// non-empty lane. clear() keeps the pool, so a re-run allocates nothing.
#pragma once

#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/types.hpp"

namespace rips::sim {

template <typename Payload>
class EventQueue {
 public:
  struct Event {
    SimTime time;
    u64 seq;
    Payload payload;
  };

  explicit EventQueue(size_t num_lanes = 0) : lanes_(num_lanes) {}

  /// Adds an empty lane and returns its index. Lanes live as long as the
  /// queue; clear() empties them but keeps them.
  size_t add_lane() {
    lanes_.emplace_back();
    return lanes_.size() - 1;
  }

  /// Schedules `payload` at `time` on `lane`. `time` must not be earlier
  /// than the last time pushed to that lane since clear().
  void push(size_t lane, SimTime time, Payload payload) {
    Lane& l = lanes_[lane];
    RIPS_CHECK_MSG(time >= l.tail,
                   "EventQueue: push earlier than its lane's tail");
    l.tail = time;
    const u64 seq = next_seq_++;
    const bool was_empty = l.back == nullptr;
    if (was_empty) {
      l.front = l.back = take_chunk();
      l.first = l.end = 0;
    } else if (l.end == kChunk) {
      l.back = l.back->next = take_chunk();
      l.end = 0;
    }
    l.back->events[l.end++] = Event{time, seq, std::move(payload)};
    if (was_empty) push_head(Head{time, seq, static_cast<u32>(lane)});
    ++size_;
  }

  bool empty() const { return heads_.empty(); }
  size_t size() const { return size_; }

  /// Time of the earliest pending event (undefined when empty).
  SimTime next_time() const { return heads_.front().time; }

  /// Removes and returns the earliest event; the payload is moved out.
  Event pop() {
    Head& top = heads_.front();
    Lane& l = lanes_[top.lane];
    Event out = std::move(l.front->events[l.first++]);
    --size_;
    if (l.front == l.back && l.first == l.end) {  // lane drained
      give_chunk(l.front);
      l.front = l.back = nullptr;
      top = heads_.back();
      heads_.pop_back();
      if (!heads_.empty()) sift_down();
      return out;
    }
    if (l.first == kChunk) {
      Chunk* done = l.front;
      l.front = done->next;
      l.first = 0;
      give_chunk(done);
    }
    // The lane's next event is no earlier than the one just taken, so its
    // heap entry only moves down.
    const Event& next = l.front->events[l.first];
    top.time = next.time;
    top.seq = next.seq;
    sift_down();
    return out;
  }

  /// Drops all pending events, restarts the tie-break sequence and lifts
  /// every lane's time floor. Chunks return to the pool for the next run.
  void clear() {
    for (Lane& l : lanes_) {
      while (l.front != nullptr) {
        Chunk* done = l.front;
        l.front = done == l.back ? nullptr : done->next;
        give_chunk(done);
      }
      l = Lane{};
    }
    heads_.clear();
    size_ = 0;
    next_seq_ = 0;
  }

 private:
  static constexpr u32 kChunk = 32;  // events per chunk
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::min();

  struct Chunk {
    Event events[kChunk];
    Chunk* next = nullptr;
  };

  struct Lane {
    Chunk* front = nullptr;  // chunk of the oldest pending event
    Chunk* back = nullptr;   // chunk the next push writes to
    u32 first = 0;           // index of the oldest pending event in front
    u32 end = 0;             // one past the newest pending event in back
    SimTime tail = kNever;   // last time pushed: the lane's floor
  };

  /// A non-empty lane, keyed by its front event.
  struct Head {
    SimTime time;
    u64 seq;
    u32 lane;
  };

  static bool earlier(const Head& a, const Head& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  Chunk* take_chunk() {
    if (free_ == nullptr) {
      chunks_.push_back(std::make_unique<Chunk>());
      return chunks_.back().get();
    }
    Chunk* c = free_;
    free_ = c->next;
    return c;
  }

  void give_chunk(Chunk* c) {
    c->next = free_;
    free_ = c;
  }

  void push_head(Head h) {
    size_t i = heads_.size();
    heads_.push_back(h);
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!earlier(h, heads_[parent])) break;
      heads_[i] = heads_[parent];
      i = parent;
    }
    heads_[i] = h;
  }

  /// Restores the heap after the root's key grew.
  void sift_down() {
    const size_t n = heads_.size();
    const Head h = heads_.front();
    size_t i = 0;
    while (true) {
      size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && earlier(heads_[child + 1], heads_[child])) ++child;
      if (!earlier(heads_[child], h)) break;
      heads_[i] = heads_[child];
      i = child;
    }
    heads_[i] = h;
  }

  std::vector<Lane> lanes_;
  std::vector<Head> heads_;  // binary min-heap of the non-empty lanes
  std::vector<std::unique_ptr<Chunk>> chunks_;  // the pool (owner)
  Chunk* free_ = nullptr;                       // unused chunks, linked
  size_t size_ = 0;
  u64 next_seq_ = 0;
};

}  // namespace rips::sim
