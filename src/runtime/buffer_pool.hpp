// Extent-keyed free-list pool of device images. The pipeline graph runtime
// allocates every intermediate (virtual) image here and returns it as soon
// as its last consumer has run, so a deep pipeline's footprint is bounded by
// the widest cut of the DAG, not by its total number of stages — multires
// pyramids re-run whole levels inside buffers freed by earlier levels.
//
// Thread-safe: the graph scheduler acquires and releases from worker
// threads. Buffers are only ever handed out with matching extent, never
// resized, and live until the pool is destroyed.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "dsl/image.hpp"

namespace hipacc::sim {
class TraceSink;
}  // namespace hipacc::sim

namespace hipacc::runtime {

class BufferPool {
 public:
  using ImagePtr = std::unique_ptr<dsl::Image<float>>;

  /// Returns a width x height image: recycled from the free list when one
  /// of that exact extent is available, freshly allocated otherwise. Pixel
  /// contents of recycled buffers are stale — callers overwrite them.
  /// When `trace` is set, bumps "bufpool.alloc" or "bufpool.reuse", and
  /// grows "bufpool.peak_bytes" on fresh allocations.
  ImagePtr Acquire(int width, int height, sim::TraceSink* trace = nullptr);

  /// Returns an image to the free list for later reuse.
  void Release(ImagePtr image);

  /// Buffers created / handed out from the free list since construction.
  long long alloc_count() const;
  long long reuse_count() const;
  /// Buffers handed out and not yet returned: 0 once every owner released.
  long long live_count() const;
  /// High-water memory footprint in bytes. The pool never shrinks, so this
  /// equals the padded bytes of every image ever allocated — what a pool-less
  /// runtime would hold live simultaneously at its peak.
  long long peak_bytes() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::pair<int, int>, std::vector<ImagePtr>> free_;
  long long allocs_ = 0;
  long long reuses_ = 0;
  long long live_ = 0;
  long long peak_bytes_ = 0;
};

}  // namespace hipacc::runtime
