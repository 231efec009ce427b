#include "isp_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

bool IspOpForImage(const std::string& image, IspOp* op) {
  static const std::pair<const char*, IspOp> kImages[] = {
      {"raw", IspOp::kRawIn},    {"gain", IspOp::kGainIn},
      {"shaded", IspOp::kShade}, {"r", IspOp::kDebayerR},
      {"g", IspOp::kDebayerG},   {"b", IspOp::kDebayerB},
      {"y", IspOp::kRgb2Y},      {"u", IspOp::kRgb2U},
      {"v", IspOp::kRgb2V},      {"y_dn", IspOp::kDenoise}};
  for (const auto& [name, value] : kImages)
    if (image == name) {
      *op = value;
      return true;
    }
  return false;
}

IspReference::IspReference(int width, int height)
    : raw_src(width, height), gain_src(width, height), raw(width, height),
      gain(width, height), shaded(width, height), r(width, height),
      g(width, height), b(width, height), y(width, height), u(width, height),
      v(width, height), y_dn(width, height) {
  // Bilinear Bayer interpolation averaged over the four RGGB phases: the
  // tent for the once-per-tile R and B sites, the diamond for G.
  mask_rb_ = {0.0625f, 0.125f, 0.0625f, 0.125f, 0.25f,
              0.125f,  0.0625f, 0.125f, 0.0625f};
  mask_g_ = {0.0f, 0.125f, 0.0f, 0.125f, 0.5f, 0.125f, 0.0f, 0.125f, 0.0f};
  // Normalised 3x3 Gaussian, sigma 0.8, weights in double then rounded.
  const double sigma = 0.8;
  double w[9], sum = 0.0;
  for (int j = -1; j <= 1; ++j)
    for (int i = -1; i <= 1; ++i) {
      w[(j + 1) * 3 + (i + 1)] = std::exp(-(i * i + j * j) / (2.0 * sigma * sigma));
      sum += w[(j + 1) * 3 + (i + 1)];
    }
  gauss_.resize(9);
  for (int k = 0; k < 9; ++k) gauss_[k] = static_cast<float>(w[k] / sum);
}

void IspReference::Debayer(const std::vector<float>& mask, Plane& out) const {
  const int w = out.width, h = out.height;
  const float* in = shaded.px.data();
  for (int yy = 0; yy < h; ++yy)
    for (int xx = 0; xx < w; ++xx) {
      float sum = 0.0f;
      for (int j = -1; j <= 1; ++j) {
        const int sy = std::clamp(yy + j, 0, h - 1);
        for (int i = -1; i <= 1; ++i) {
          const int sx = std::clamp(xx + i, 0, w - 1);
          sum += mask[static_cast<std::size_t>((j + 1) * 3 + (i + 1))] *
                 in[static_cast<std::size_t>(sy) * w + sx];
        }
      }
      out.px[static_cast<std::size_t>(yy) * w + xx] = sum;
    }
}

void IspReference::ColorRow(float cr, float cg, float cb, float bias,
                            Plane& out) const {
  const std::size_t n = out.px.size();
  for (std::size_t k = 0; k < n; ++k)
    out.px[k] = cr * r.px[k] + cg * g.px[k] + cb * b.px[k] + bias;
}

void IspReference::RunOp(IspOp op) {
  const std::size_t n = raw.px.size();
  switch (op) {
    case IspOp::kRawIn:
      std::memcpy(raw.px.data(), raw_src.px.data(), n * sizeof(float));
      break;
    case IspOp::kGainIn:
      std::memcpy(gain.px.data(), gain_src.px.data(), n * sizeof(float));
      break;
    case IspOp::kShade:
      for (std::size_t k = 0; k < n; ++k) shaded.px[k] = raw.px[k] * gain.px[k];
      break;
    case IspOp::kDebayerR: Debayer(mask_rb_, r); break;
    case IspOp::kDebayerG: Debayer(mask_g_, g); break;
    case IspOp::kDebayerB: Debayer(mask_rb_, b); break;
    // BT.601 full range; U and V biased to mid-grey.
    case IspOp::kRgb2Y: ColorRow(0.299f, 0.587f, 0.114f, 0.0f, y); break;
    case IspOp::kRgb2U:
      ColorRow(-0.168736f, -0.331264f, 0.5f, 0.5f, u);
      break;
    case IspOp::kRgb2V:
      ColorRow(0.5f, -0.418688f, -0.081312f, 0.5f, v);
      break;
    case IspOp::kDenoise: {
      const int w = y.width, h = y.height;
      for (int yy = 0; yy < h; ++yy)
        for (int xx = 0; xx < w; ++xx) {
          float sum = 0.0f;
          for (int j = -1; j <= 1; ++j) {
            const int sy = std::clamp(yy + j, 0, h - 1);
            for (int i = -1; i <= 1; ++i) {
              const int sx = std::clamp(xx + i, 0, w - 1);
              sum += gauss_[static_cast<std::size_t>((j + 1) * 3 + (i + 1))] *
                     y.px[static_cast<std::size_t>(sy) * w + sx];
            }
          }
          y_dn.px[static_cast<std::size_t>(yy) * w + xx] = sum;
        }
      break;
    }
  }
}

void IspReference::RunAll() {
  for (const IspOp op :
       {IspOp::kRawIn, IspOp::kGainIn, IspOp::kShade, IspOp::kDebayerR,
        IspOp::kDebayerG, IspOp::kDebayerB, IspOp::kRgb2Y, IspOp::kRgb2U,
        IspOp::kRgb2V, IspOp::kDenoise})
    RunOp(op);
}

}  // namespace perfbench
