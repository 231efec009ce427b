#include "compiler/disk_cache.hpp"

#include "sim/bytecode.hpp"
#include "support/serial.hpp"

namespace hipacc::compiler {
namespace {

using support::BinaryReader;
using support::BinaryWriter;

// Per-artifact payload tags, distinct from the DiskStore frame header: the
// frame proves "this file belongs to this key"; the tag proves "this payload
// is the artifact type the caller expects".
constexpr std::uint32_t kFrontendTag = 0x48504631;  // "HPF1"
constexpr std::uint32_t kTargetTag = 0x48505431;    // "HPT1"

// ---- Expr / Stmt trees ----------------------------------------------------
//
// Trees are encoded pre-order with a nullable marker per child pointer. The
// reader carries an explicit depth budget: a hostile payload cannot recurse
// the decoder off the stack, it just fails decode.
constexpr int kMaxTreeDepth = 512;

void PutExpr(BinaryWriter& w, const ast::ExprPtr& expr);

void PutExprBody(BinaryWriter& w, const ast::Expr& e) {
  w.U32(static_cast<std::uint32_t>(e.kind));
  w.U32(static_cast<std::uint32_t>(e.type));
  w.I64(e.int_value);
  w.F64(e.float_value);
  w.Bool(e.bool_value);
  w.Str(e.name);
  w.U32(static_cast<std::uint32_t>(e.unary_op));
  w.U32(static_cast<std::uint32_t>(e.binary_op));
  w.U64(e.args.size());
  for (const ast::ExprPtr& arg : e.args) PutExpr(w, arg);
  w.U32(static_cast<std::uint32_t>(e.thread_index));
  w.Bool(e.is_y);
  w.U32(static_cast<std::uint32_t>(e.space));
  w.U32(static_cast<std::uint32_t>(e.boundary));
  w.Bool(e.checks.lo_x);
  w.Bool(e.checks.hi_x);
  w.Bool(e.checks.lo_y);
  w.Bool(e.checks.hi_y);
  w.F64(static_cast<double>(e.constant_value));
}

void PutExpr(BinaryWriter& w, const ast::ExprPtr& expr) {
  w.Bool(expr != nullptr);
  if (expr) PutExprBody(w, *expr);
}

ast::ExprPtr GetExpr(BinaryReader& r, int depth);

ast::ExprPtr GetExprBody(BinaryReader& r, int depth) {
  if (depth > kMaxTreeDepth) return nullptr;
  ast::Expr e;
  e.kind = static_cast<ast::ExprKind>(r.U32());
  e.type = static_cast<ast::ScalarType>(r.U32());
  e.int_value = r.I64();
  e.float_value = r.F64();
  e.bool_value = r.Bool();
  e.name = r.Str();
  e.unary_op = static_cast<ast::UnaryOp>(r.U32());
  e.binary_op = static_cast<ast::BinaryOp>(r.U32());
  const std::uint64_t n_args = r.U64();
  if (!r.ok() || n_args > (1u << 20)) return nullptr;
  e.args.reserve(n_args);
  for (std::uint64_t i = 0; i < n_args; ++i) {
    ast::ExprPtr arg = GetExpr(r, depth + 1);
    if (!r.ok()) return nullptr;
    e.args.push_back(std::move(arg));
  }
  e.thread_index = static_cast<ast::ThreadIndexKind>(r.U32());
  e.is_y = r.Bool();
  e.space = static_cast<ast::MemSpace>(r.U32());
  e.boundary = static_cast<ast::BoundaryMode>(r.U32());
  e.checks.lo_x = r.Bool();
  e.checks.hi_x = r.Bool();
  e.checks.lo_y = r.Bool();
  e.checks.hi_y = r.Bool();
  e.constant_value = static_cast<float>(r.F64());
  if (!r.ok()) return nullptr;
  return std::make_shared<const ast::Expr>(std::move(e));
}

ast::ExprPtr GetExpr(BinaryReader& r, int depth) {
  if (!r.Bool()) return nullptr;
  return GetExprBody(r, depth);
}

void PutStmt(BinaryWriter& w, const ast::StmtPtr& stmt);

void PutStmtBody(BinaryWriter& w, const ast::Stmt& s) {
  w.U32(static_cast<std::uint32_t>(s.kind));
  w.Str(s.name);
  w.U32(static_cast<std::uint32_t>(s.decl_type));
  w.U32(static_cast<std::uint32_t>(s.assign_op));
  PutExpr(w, s.value);
  PutExpr(w, s.cond);
  PutExpr(w, s.lo);
  PutExpr(w, s.hi);
  w.I32(s.step);
  PutExpr(w, s.x);
  PutExpr(w, s.y);
  w.U32(static_cast<std::uint32_t>(s.space));
  w.U64(s.body.size());
  for (const ast::StmtPtr& child : s.body) PutStmt(w, child);
}

void PutStmt(BinaryWriter& w, const ast::StmtPtr& stmt) {
  w.Bool(stmt != nullptr);
  if (stmt) PutStmtBody(w, *stmt);
}

ast::StmtPtr GetStmt(BinaryReader& r, int depth);

ast::StmtPtr GetStmtBody(BinaryReader& r, int depth) {
  if (depth > kMaxTreeDepth) return nullptr;
  ast::Stmt s;
  s.kind = static_cast<ast::StmtKind>(r.U32());
  s.name = r.Str();
  s.decl_type = static_cast<ast::ScalarType>(r.U32());
  s.assign_op = static_cast<ast::AssignOp>(r.U32());
  s.value = GetExpr(r, depth + 1);
  s.cond = GetExpr(r, depth + 1);
  s.lo = GetExpr(r, depth + 1);
  s.hi = GetExpr(r, depth + 1);
  s.step = r.I32();
  s.x = GetExpr(r, depth + 1);
  s.y = GetExpr(r, depth + 1);
  s.space = static_cast<ast::MemSpace>(r.U32());
  const std::uint64_t n_body = r.U64();
  if (!r.ok() || n_body > (1u << 20)) return nullptr;
  s.body.reserve(n_body);
  for (std::uint64_t i = 0; i < n_body; ++i) {
    ast::StmtPtr child = GetStmt(r, depth + 1);
    if (!r.ok()) return nullptr;
    s.body.push_back(std::move(child));
  }
  if (!r.ok()) return nullptr;
  return std::make_shared<const ast::Stmt>(std::move(s));
}

ast::StmtPtr GetStmt(BinaryReader& r, int depth) {
  if (!r.Bool()) return nullptr;
  return GetStmtBody(r, depth);
}

// ---- Metadata structs -----------------------------------------------------

void PutWindow(BinaryWriter& w, const ast::WindowExtent& window) {
  w.I32(window.half_x);
  w.I32(window.half_y);
}

ast::WindowExtent GetWindow(BinaryReader& r) {
  ast::WindowExtent window;
  window.half_x = r.I32();
  window.half_y = r.I32();
  return window;
}

void PutParams(BinaryWriter& w, const std::vector<ast::ParamInfo>& params) {
  w.U64(params.size());
  for (const ast::ParamInfo& p : params) {
    w.Str(p.name);
    w.U32(static_cast<std::uint32_t>(p.type));
  }
}

bool GetParams(BinaryReader& r, std::vector<ast::ParamInfo>* params) {
  const std::uint64_t n = r.U64();
  if (!r.ok() || n > (1u << 16)) return false;
  params->reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ast::ParamInfo p;
    p.name = r.Str();
    p.type = static_cast<ast::ScalarType>(r.U32());
    params->push_back(std::move(p));
  }
  return r.ok();
}

void PutMasks(BinaryWriter& w, const std::vector<ast::MaskInfo>& masks) {
  w.U64(masks.size());
  for (const ast::MaskInfo& m : masks) {
    w.Str(m.name);
    w.I32(m.size_x);
    w.I32(m.size_y);
    w.U64(m.static_values.size());
    for (const float v : m.static_values) w.F64(static_cast<double>(v));
  }
}

bool GetMasks(BinaryReader& r, std::vector<ast::MaskInfo>* masks) {
  const std::uint64_t n = r.U64();
  if (!r.ok() || n > (1u << 16)) return false;
  masks->reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ast::MaskInfo m;
    m.name = r.Str();
    m.size_x = r.I32();
    m.size_y = r.I32();
    const std::uint64_t n_values = r.U64();
    if (!r.ok() || n_values > (1u << 20)) return false;
    m.static_values.reserve(n_values);
    for (std::uint64_t j = 0; j < n_values; ++j)
      m.static_values.push_back(static_cast<float>(r.F64()));
    masks->push_back(std::move(m));
  }
  return r.ok();
}

void PutDecl(BinaryWriter& w, const ast::KernelDecl& decl) {
  w.Str(decl.name);
  PutParams(w, decl.params);
  w.U64(decl.accessors.size());
  for (const ast::AccessorInfo& a : decl.accessors) {
    w.Str(a.name);
    PutWindow(w, a.window);
    w.U32(static_cast<std::uint32_t>(a.boundary));
    w.F64(static_cast<double>(a.constant_value));
  }
  PutMasks(w, decl.masks);
  w.U64(decl.extra_outputs.size());
  for (const std::string& name : decl.extra_outputs) w.Str(name);
  PutStmt(w, decl.body);
}

bool GetDecl(BinaryReader& r, ast::KernelDecl* decl) {
  decl->name = r.Str();
  if (!GetParams(r, &decl->params)) return false;
  const std::uint64_t n_acc = r.U64();
  if (!r.ok() || n_acc > (1u << 16)) return false;
  decl->accessors.reserve(n_acc);
  for (std::uint64_t i = 0; i < n_acc; ++i) {
    ast::AccessorInfo a;
    a.name = r.Str();
    a.window = GetWindow(r);
    a.boundary = static_cast<ast::BoundaryMode>(r.U32());
    a.constant_value = static_cast<float>(r.F64());
    decl->accessors.push_back(std::move(a));
  }
  if (!GetMasks(r, &decl->masks)) return false;
  const std::uint64_t n_extra = r.U64();
  if (!r.ok() || n_extra > (1u << 16)) return false;
  decl->extra_outputs.reserve(n_extra);
  for (std::uint64_t i = 0; i < n_extra; ++i)
    decl->extra_outputs.push_back(r.Str());
  decl->body = GetStmt(r, 0);
  return r.ok();
}

void PutDeviceKernel(BinaryWriter& w, const ast::DeviceKernel& k) {
  w.Str(k.name);
  w.U32(static_cast<std::uint32_t>(k.backend));
  PutParams(w, k.params);
  w.U64(k.buffers.size());
  for (const ast::BufferParam& b : k.buffers) {
    w.Str(b.name);
    w.U32(static_cast<std::uint32_t>(b.space));
    w.Bool(b.is_output);
    w.Bool(b.texture_2d_array);
  }
  PutMasks(w, k.const_masks);
  PutMasks(w, k.global_masks);
  w.Bool(k.smem.has_value());
  if (k.smem) {
    w.Str(k.smem->accessor);
    w.Str(k.smem->smem_name);
    PutWindow(w, k.smem->window);
    w.U32(static_cast<std::uint32_t>(k.smem->boundary));
    w.F64(static_cast<double>(k.smem->constant_value));
  }
  w.U64(k.variants.size());
  for (const ast::RegionVariant& v : k.variants) {
    w.U32(static_cast<std::uint32_t>(v.region));
    PutStmt(w, v.body);
  }
  PutWindow(w, k.bh_window);
  w.U32(static_cast<std::uint32_t>(k.boundary));
  w.Bool(k.vliw_vectorized);
  w.I32(k.ppt);
}

bool GetDeviceKernel(BinaryReader& r, ast::DeviceKernel* k) {
  k->name = r.Str();
  k->backend = static_cast<ast::Backend>(r.U32());
  if (!GetParams(r, &k->params)) return false;
  const std::uint64_t n_buffers = r.U64();
  if (!r.ok() || n_buffers > (1u << 16)) return false;
  k->buffers.reserve(n_buffers);
  for (std::uint64_t i = 0; i < n_buffers; ++i) {
    ast::BufferParam b;
    b.name = r.Str();
    b.space = static_cast<ast::MemSpace>(r.U32());
    b.is_output = r.Bool();
    b.texture_2d_array = r.Bool();
    k->buffers.push_back(std::move(b));
  }
  if (!GetMasks(r, &k->const_masks)) return false;
  if (!GetMasks(r, &k->global_masks)) return false;
  if (r.Bool()) {
    ast::SmemPlan plan;
    plan.accessor = r.Str();
    plan.smem_name = r.Str();
    plan.window = GetWindow(r);
    plan.boundary = static_cast<ast::BoundaryMode>(r.U32());
    plan.constant_value = static_cast<float>(r.F64());
    k->smem = std::move(plan);
  }
  const std::uint64_t n_variants = r.U64();
  if (!r.ok() || n_variants > 16) return false;
  k->variants.reserve(n_variants);
  for (std::uint64_t i = 0; i < n_variants; ++i) {
    ast::RegionVariant v;
    v.region = static_cast<ast::Region>(r.U32());
    v.body = GetStmt(r, 0);
    if (!r.ok()) return false;
    k->variants.push_back(std::move(v));
  }
  k->bh_window = GetWindow(r);
  k->boundary = static_cast<ast::BoundaryMode>(r.U32());
  k->vliw_vectorized = r.Bool();
  k->ppt = r.I32();
  return r.ok();
}

void PutResources(BinaryWriter& w, const hw::KernelResources& res) {
  w.I32(res.regs_per_thread);
  w.I32(res.smem_static_bytes);
  w.Bool(res.smem_tile);
  w.I32(res.smem_halo_x);
  w.I32(res.smem_halo_y);
  w.I32(res.elem_bytes);
  w.I32(res.ppt);
  w.I64(res.approx_ops);
}

hw::KernelResources GetResources(BinaryReader& r) {
  hw::KernelResources res;
  res.regs_per_thread = r.I32();
  res.smem_static_bytes = r.I32();
  res.smem_tile = r.Bool();
  res.smem_halo_x = r.I32();
  res.smem_halo_y = r.I32();
  res.elem_bytes = r.I32();
  res.ppt = r.I32();
  res.approx_ops = r.I64();
  return res;
}

void PutCodegen(BinaryWriter& w, const codegen::CodegenOptions& o) {
  w.U32(static_cast<std::uint32_t>(o.backend));
  w.U32(static_cast<std::uint32_t>(o.texture));
  w.U32(static_cast<std::uint32_t>(o.border));
  w.Bool(o.use_scratchpad);
  w.Bool(o.masks_in_constant_memory);
  w.Bool(o.use_fast_intrinsics);
  w.Bool(o.scalar_optimizer);
  w.Bool(o.vectorize_vliw);
  w.I32(o.pixels_per_thread);
}

codegen::CodegenOptions GetCodegen(BinaryReader& r) {
  codegen::CodegenOptions o;
  o.backend = static_cast<ast::Backend>(r.U32());
  o.texture = static_cast<codegen::TexturePolicy>(r.U32());
  o.border = static_cast<codegen::BorderPolicy>(r.U32());
  o.use_scratchpad = r.Bool();
  o.masks_in_constant_memory = r.Bool();
  o.use_fast_intrinsics = r.Bool();
  o.scalar_optimizer = r.Bool();
  o.vectorize_vliw = r.Bool();
  o.pixels_per_thread = r.I32();
  return o;
}

void PutChoice(BinaryWriter& w, const hw::HeuristicChoice& c) {
  w.I32(c.config.block_x);
  w.I32(c.config.block_y);
  w.Bool(c.occupancy.valid);
  w.Str(c.occupancy.reason);
  w.I32(c.occupancy.blocks_per_sm);
  w.I32(c.occupancy.active_warps);
  w.F64(c.occupancy.occupancy);
  w.U32(static_cast<std::uint32_t>(c.occupancy.limiter));
  w.I64(c.border_threads);
}

hw::HeuristicChoice GetChoice(BinaryReader& r) {
  hw::HeuristicChoice c;
  c.config.block_x = r.I32();
  c.config.block_y = r.I32();
  c.occupancy.valid = r.Bool();
  c.occupancy.reason = r.Str();
  c.occupancy.blocks_per_sm = r.I32();
  c.occupancy.active_warps = r.I32();
  c.occupancy.occupancy = r.F64();
  c.occupancy.limiter = static_cast<hw::OccupancyLimiter>(r.U32());
  c.border_threads = r.I64();
  return c;
}

}  // namespace

std::string EncodeFrontendArtifacts(const FrontendArtifacts& artifacts) {
  BinaryWriter w;
  w.U32(kFrontendTag);
  PutDecl(w, artifacts.decl);
  PutDeviceKernel(w, artifacts.device_ir);
  PutResources(w, artifacts.resources);
  PutCodegen(w, artifacts.codegen);
  w.Str(artifacts.source_fingerprint);
  w.U64(artifacts.source_hash);
  return w.Take();
}

std::optional<FrontendArtifacts> DecodeFrontendArtifacts(
    const std::string& payload) {
  BinaryReader r(payload);
  if (r.U32() != kFrontendTag) return std::nullopt;
  FrontendArtifacts artifacts;
  if (!GetDecl(r, &artifacts.decl)) return std::nullopt;
  if (!GetDeviceKernel(r, &artifacts.device_ir)) return std::nullopt;
  artifacts.resources = GetResources(r);
  artifacts.codegen = GetCodegen(r);
  artifacts.source_fingerprint = r.Str();
  artifacts.source_hash = r.U64();
  if (!r.AtEnd()) return std::nullopt;
  return artifacts;
}

std::string EncodeCompiledKernel(const CompiledKernel& kernel) {
  BinaryWriter w;
  w.U32(kTargetTag);
  PutDecl(w, kernel.decl);
  PutDeviceKernel(w, kernel.device_ir);
  w.Str(kernel.source);
  PutResources(w, kernel.resources);
  PutChoice(w, kernel.config);
  PutCodegen(w, kernel.codegen);
  w.Str(kernel.source_fingerprint);
  w.U64(kernel.source_hash);
  return w.Take();
}

std::optional<CompiledKernel> DecodeCompiledKernel(const std::string& payload) {
  BinaryReader r(payload);
  if (r.U32() != kTargetTag) return std::nullopt;
  CompiledKernel kernel;
  if (!GetDecl(r, &kernel.decl)) return std::nullopt;
  if (!GetDeviceKernel(r, &kernel.device_ir)) return std::nullopt;
  kernel.source = r.Str();
  kernel.resources = GetResources(r);
  kernel.config = GetChoice(r);
  kernel.codegen = GetCodegen(r);
  kernel.source_fingerprint = r.Str();
  kernel.source_hash = r.U64();
  if (!r.AtEnd()) return std::nullopt;
  // Re-attach the simulator bytecode: it is derived state, cheap to
  // rebuild, and pinning it to the IR here keeps the disk format small and
  // the VM free to evolve without schema bumps. Every compiled kernel
  // carries programs, so an entry whose IR no longer compiles is a miss.
  Result<std::shared_ptr<const sim::ProgramSet>> bytecode =
      sim::CompileToBytecode(kernel.device_ir);
  if (!bytecode.ok()) return std::nullopt;
  kernel.bytecode = std::move(bytecode).take();
  return kernel;
}

}  // namespace hipacc::compiler
