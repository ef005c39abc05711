#include "src/serve/request_queue.h"

#include <algorithm>

#include "src/common/check.h"

namespace pmemsim {

RequestQueue::RequestQueue(size_t depth) : depth_(depth) { PMEMSIM_CHECK(depth > 0); }

bool RequestQueue::Offer(const Request& r, Cycles now) {
  ++offered_;
  if (q_.size() >= depth_) {
    ++rejected_;
    return false;
  }
  q_.push_back(r);
  q_.back().admit = now;
  max_occupancy_ = std::max<uint64_t>(max_occupancy_, q_.size());
  return true;
}

size_t RequestQueue::ClaimBatch(size_t max, std::vector<Request>* out) {
  const size_t n = std::min(max, q_.size());
  for (size_t i = 0; i < n; ++i) {
    out->push_back(q_.front());
    q_.pop_front();
  }
  return n;
}

}  // namespace pmemsim
