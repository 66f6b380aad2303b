#include "fhg/obs/trace.hpp"

#include <algorithm>

namespace fhg::obs {
namespace {

// Min-heap order: the fastest (smallest total_us) sample sits at the front.
bool slower(const TraceSample& a, const TraceSample& b) noexcept {
  return a.total_us > b.total_us;
}

}  // namespace

void TraceRing::offer(const TraceSample& sample) {
  if (capacity_ == 0) {
    return;
  }
  // Fast reject: once the ring is full, samples below the floor (one past
  // the fastest kept sample) cannot displace anything.  floor_ only ever
  // rises, so a stale read can cause a useless lock acquisition but never a
  // missed qualifying sample.  While the ring has room the floor is 0 and
  // every sample qualifies, a sub-microsecond (total_us == 0) one included.
  if (sample.total_us < floor_.load(std::memory_order_relaxed)) {
    return;
  }
  const std::lock_guard lock(mutex_);
  if (entries_.size() < capacity_) {
    entries_.push_back(sample);
    std::push_heap(entries_.begin(), entries_.end(), slower);
    if (entries_.size() == capacity_) {
      floor_.store(entries_.front().total_us + 1, std::memory_order_relaxed);
    }
    return;
  }
  if (sample.total_us <= entries_.front().total_us) {
    return;  // raced with another displacement; no longer qualifies
  }
  std::pop_heap(entries_.begin(), entries_.end(), slower);
  entries_.back() = sample;
  std::push_heap(entries_.begin(), entries_.end(), slower);
  floor_.store(entries_.front().total_us + 1, std::memory_order_relaxed);
}

std::vector<TraceSample> TraceRing::snapshot() const {
  std::vector<TraceSample> out;
  {
    const std::lock_guard lock(mutex_);
    out = entries_;
  }
  std::sort(out.begin(), out.end(), [](const TraceSample& a, const TraceSample& b) {
    if (a.total_us != b.total_us) {
      return a.total_us > b.total_us;
    }
    return a.trace_id < b.trace_id;
  });
  return out;
}

void TraceRing::clear() {
  const std::lock_guard lock(mutex_);
  entries_.clear();
  floor_.store(0, std::memory_order_relaxed);
}

}  // namespace fhg::obs
