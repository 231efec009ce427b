// Hand-written single-thread C++ loops for every camera-ISP stage
// (ops::BuildCameraIspGraph): the correctness reference for isp_stream and
// its speed-of-light baseline. Written from the graph's documented
// arithmetic — vignetting multiply, 3x3 parity-averaged demosaic masks with
// Clamp borders, BT.601 colour matrix, 3x3 Gaussian (sigma 0.8) denoise —
// without calling the compiler, the DSL or any ops factory.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// One planar float image, row-major.
struct Plane {
  int width = 0;
  int height = 0;
  std::vector<float> px;

  Plane() = default;
  Plane(int w, int h) : width(w), height(h), px(static_cast<std::size_t>(w) * h) {}
};

/// The ISP's logical operations, in graph order. Plan stages of the
/// compiled graph are named after one of these and may cover several
/// (horizontal or halo fusion).
enum class IspOp { kRawIn, kGainIn, kShade, kDebayerR, kDebayerG, kDebayerB,
                   kRgb2Y, kRgb2U, kRgb2V, kDenoise };

/// Logical op producing the graph image `image` ("raw", "shaded", "g",
/// "y_dn", ...); false when the name is not an ISP image.
bool IspOpForImage(const std::string& image, IspOp* op);

class IspReference {
 public:
  IspReference(int width, int height);

  /// Runs one logical op on the state's planes (inputs must be filled).
  void RunOp(IspOp op);

  /// All ops in order: raw/gain -> y_dn, u, v.
  void RunAll();

  Plane raw_src, gain_src;  ///< the frame's inputs
  Plane raw, gain;          ///< copied-in sources (the graph's source stages)
  Plane shaded, r, g, b, y, u, v, y_dn;

 private:
  void Debayer(const std::vector<float>& mask, Plane& out) const;
  void ColorRow(float cr, float cg, float cb, float bias, Plane& out) const;

  std::vector<float> mask_rb_, mask_g_, gauss_;
};

}  // namespace perfbench
