// DSL `Image` class (paper Section II): data storage for image pixels on the
// (simulated) device. Assigning a raw host pointer uploads pixels; getData()
// downloads them — mirroring Listing 2's `IN = host_in` / `OUT.getData()`.
//
// The backing store is host memory laid out with a device-specific padded
// stride: the runtime queries `stride()` exactly like HIPAcc's generated
// host code passes the padded stride to kernels for coalesced accesses. It
// comes from calloc, so its pixels read zero but its pages are not touched
// until written: an image that is only sampled (a Measure reads a few
// blocks) costs no page faults beyond those blocks.
#pragma once

#include <cstdlib>
#include <cstring>
#include <memory>

#include "image/host_image.hpp"
#include "support/span2d.hpp"
#include "support/status.hpp"

namespace hipacc::dsl {

/// Alignment (in elements) the global-memory padding pass rounds strides up
/// to; 128 bytes / 4-byte pixels, the transaction size of the modelled GPUs.
inline constexpr int kStrideAlignElems = 32;

/// Rounds `width` up to the padding alignment.
constexpr int PaddedStride(int width) noexcept {
  return (width + kStrideAlignElems - 1) / kStrideAlignElems *
         kStrideAlignElems;
}

template <typename T>
class Image {
 public:
  /// Allocates a zero-filled width x height image with padded stride on
  /// the device.
  Image(int width, int height)
      : width_(width), height_(height), stride_(PaddedStride(width)) {
    HIPACC_CHECK(width > 0 && height > 0);
    pixels_.reset(static_cast<T*>(
        std::calloc(static_cast<size_t>(stride_) * height, sizeof(T))));
    HIPACC_CHECK(pixels_ != nullptr);
  }

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  int stride() const noexcept { return stride_; }

  /// Uploads from a dense row-major host array of width*height elements.
  Image& operator=(const T* host_data) {
    CopyFrom(host_data);
    return *this;
  }

  void CopyFrom(const T* host_data) {
    HIPACC_CHECK(host_data != nullptr);
    for (int y = 0; y < height_; ++y)
      std::memcpy(pixels_.get() + static_cast<size_t>(y) * stride_,
                  host_data + static_cast<size_t>(y) * width_,
                  sizeof(T) * static_cast<size_t>(width_));
  }

  void CopyFrom(const HostImage<T>& host) {
    HIPACC_CHECK(host.width() == width_ && host.height() == height_);
    CopyFrom(host.data());
  }

  /// Downloads into a dense row-major host array of width*height elements.
  void CopyTo(T* host_data) const {
    HIPACC_CHECK(host_data != nullptr);
    for (int y = 0; y < height_; ++y)
      std::memcpy(host_data + static_cast<size_t>(y) * width_,
                  pixels_.get() + static_cast<size_t>(y) * stride_,
                  sizeof(T) * static_cast<size_t>(width_));
  }

  /// Downloads into a freshly allocated HostImage (the paper's getData()).
  HostImage<T> getData() const {
    HostImage<T> host(width_, height_);
    CopyTo(host.data());
    return host;
  }

  /// Device-side view including the padded stride.
  Span2D<T> span() { return Span2D<T>(pixels_.get(), width_, height_, stride_); }
  Span2D<const T> span() const {
    return Span2D<const T>(pixels_.get(), width_, height_, stride_);
  }

  /// Direct pixel access used by the executor and the simulator.
  T& at(int x, int y) { return pixels_[static_cast<size_t>(y) * stride_ + x]; }
  const T& at(int x, int y) const {
    return pixels_[static_cast<size_t>(y) * stride_ + x];
  }

 private:
  struct Free {
    void operator()(T* p) const noexcept { std::free(p); }
  };

  int width_;
  int height_;
  int stride_;
  std::unique_ptr<T[], Free> pixels_;
};

}  // namespace hipacc::dsl
