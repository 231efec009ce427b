#include "runtime/buffer_pool.hpp"

#include "sim/trace.hpp"

namespace hipacc::runtime {

BufferPool::ImagePtr BufferPool::Acquire(int width, int height,
                                         sim::TraceSink* trace) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = free_.find({width, height});
    if (it != free_.end() && !it->second.empty()) {
      ImagePtr image = std::move(it->second.back());
      it->second.pop_back();
      ++reuses_;
      ++live_;
      if (trace != nullptr) trace->IncrementCounter("bufpool.reuse");
      return image;
    }
  }
  auto image = std::make_unique<dsl::Image<float>>(width, height);
  const long long bytes = static_cast<long long>(image->stride()) * height *
                          static_cast<long long>(sizeof(float));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++allocs_;
    ++live_;
    peak_bytes_ += bytes;
  }
  if (trace != nullptr) {
    trace->IncrementCounter("bufpool.alloc");
    trace->IncrementCounter("bufpool.peak_bytes", bytes);
  }
  return image;
}

void BufferPool::Release(ImagePtr image) {
  if (!image) return;
  const std::pair<int, int> key{image->width(), image->height()};
  std::lock_guard<std::mutex> lock(mutex_);
  --live_;
  free_[key].push_back(std::move(image));
}

long long BufferPool::alloc_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return allocs_;
}

long long BufferPool::reuse_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reuses_;
}

long long BufferPool::live_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_;
}

long long BufferPool::peak_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_bytes_;
}

}  // namespace hipacc::runtime
