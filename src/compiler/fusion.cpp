#include "compiler/fusion.hpp"

#include <cctype>
#include <cmath>
#include <functional>

#include "support/string_utils.hpp"

namespace hipacc::compiler {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when body[pos, pos+len) is a whole identifier (not a substring of a
/// longer one).
bool IsWholeIdent(const std::string& body, std::size_t pos, std::size_t len) {
  if (pos > 0 && IsIdentChar(body[pos - 1])) return false;
  const std::size_t end = pos + len;
  return end >= body.size() || !IsIdentChar(body[end]);
}

std::size_t SkipSpace(const std::string& body, std::size_t pos) {
  while (pos < body.size() &&
         std::isspace(static_cast<unsigned char>(body[pos])) != 0)
    ++pos;
  return pos;
}

/// Local variables declared in a kernel body: identifiers introduced by
/// `float x`, `int i`, `bool b` (including for-init declarations).
std::vector<std::string> DeclaredLocals(const std::string& body) {
  static const char* kTypes[] = {"float", "int", "bool"};
  std::vector<std::string> names;
  for (const char* type : kTypes) {
    const std::size_t tlen = std::char_traits<char>::length(type);
    for (std::size_t pos = body.find(type); pos != std::string::npos;
         pos = body.find(type, pos + 1)) {
      if (!IsWholeIdent(body, pos, tlen)) continue;
      std::size_t p = SkipSpace(body, pos + tlen);
      std::size_t end = p;
      while (end < body.size() && IsIdentChar(body[end])) ++end;
      if (end > p) names.push_back(body.substr(p, end - p));
    }
  }
  return names;
}

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  for (const std::string& n : names)
    if (n == name) return true;
  return false;
}

/// True when `name` whole-word occurs anywhere in `text`.
bool MentionsIdent(const std::string& text, const std::string& name) {
  for (std::size_t pos = text.find(name); pos != std::string::npos;
       pos = text.find(name, pos + 1))
    if (IsWholeIdent(text, pos, name.size())) return true;
  return false;
}

/// Position one past the matching ')' for the '(' at `open`; npos when
/// unbalanced.
std::size_t MatchParen(const std::string& body, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < body.size(); ++i) {
    if (body[i] == '(') ++depth;
    if (body[i] == ')' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

/// Splits a balanced argument list (the text between a call's parentheses)
/// at top-level commas.
std::vector<std::string> SplitTopLevelArgs(const std::string& args) {
  std::vector<std::string> out;
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == '(') ++depth;
    if (args[i] == ')') --depth;
    if (args[i] == ',' && depth == 0) {
      out.push_back(args.substr(start, i - start));
      start = i + 1;
    }
  }
  const std::string last = args.substr(start);
  if (!out.empty() || SkipSpace(last, 0) != last.size()) out.push_back(last);
  return out;
}

/// Replaces every read `name(...)` (balanced argument list) with `local`.
/// Returns the number of replacements.
int ReplaceReads(std::string* body, const std::string& name,
                 const std::string& local) {
  int replaced = 0;
  std::size_t pos = 0;
  while ((pos = body->find(name, pos)) != std::string::npos) {
    if (!IsWholeIdent(*body, pos, name.size())) {
      pos += name.size();
      continue;
    }
    std::size_t open = SkipSpace(*body, pos + name.size());
    if (open >= body->size() || (*body)[open] != '(') {
      pos += name.size();
      continue;
    }
    const std::size_t close = MatchParen(*body, open);
    if (close == std::string::npos) return -1;  // unbalanced; parser rejects
    body->replace(pos, close - pos, local);
    pos += local.size();
    ++replaced;
  }
  return replaced;
}

/// Rewrites every read of `name` with the string `fn(args)` returns. Args
/// are the top-level-comma-split argument texts. Returns the replacement
/// count or an error from `fn` / on unbalanced parentheses.
Result<int> RewriteReads(
    std::string* body, const std::string& name,
    const std::function<Result<std::string>(const std::vector<std::string>&)>&
        fn) {
  int replaced = 0;
  std::size_t pos = 0;
  while ((pos = body->find(name, pos)) != std::string::npos) {
    if (!IsWholeIdent(*body, pos, name.size())) {
      pos += name.size();
      continue;
    }
    const std::size_t open = SkipSpace(*body, pos + name.size());
    if (open >= body->size() || (*body)[open] != '(') {
      pos += name.size();
      continue;
    }
    const std::size_t close = MatchParen(*body, open);
    if (close == std::string::npos)
      return Status::Invalid("unbalanced parentheses near '" + name + "'");
    const std::string args = body->substr(open + 1, close - open - 2);
    Result<std::string> repl = fn(SplitTopLevelArgs(args));
    if (!repl.ok()) return repl.status();
    body->replace(pos, close - pos, repl.value());
    pos += repl.value().size();
    ++replaced;
  }
  return replaced;
}

/// Renames call sites `from(...)` to `to(...)`, keeping the argument list.
/// Returns the number of renamed sites.
int RenameCalls(std::string* body, const std::string& from,
                const std::string& to) {
  int renamed = 0;
  std::size_t pos = 0;
  while ((pos = body->find(from, pos)) != std::string::npos) {
    if (!IsWholeIdent(*body, pos, from.size())) {
      pos += from.size();
      continue;
    }
    const std::size_t open = SkipSpace(*body, pos + from.size());
    if (open >= body->size() || (*body)[open] != '(') {
      pos += from.size();
      continue;
    }
    body->replace(pos, from.size(), to);
    pos += to.size();
    ++renamed;
  }
  return renamed;
}

/// Rewrites every bare `output()` target to `output(<name>)`. Fails (-1)
/// when a named output write is present — chained horizontal fusion always
/// folds a fresh (single-output) sibling into the accumulated kernel.
int RewriteOutputTargets(std::string* body, const std::string& name) {
  int rewritten = 0;
  std::size_t pos = 0;
  while ((pos = body->find("output", pos)) != std::string::npos) {
    if (!IsWholeIdent(*body, pos, 6)) {
      pos += 6;
      continue;
    }
    const std::size_t open = SkipSpace(*body, pos + 6);
    if (open >= body->size() || (*body)[open] != '(') {
      pos += 6;
      continue;
    }
    const std::size_t inner = SkipSpace(*body, open + 1);
    if (inner >= body->size()) return -1;
    if ((*body)[inner] != ')') return -1;  // already a named output
    body->replace(pos, inner + 1 - pos, "output(" + name + ")");
    pos += 7 + name.size() + 1;
    ++rewritten;
  }
  return rewritten;
}

/// Rewrites the producer's single top-level `output() = expr;` into
/// `float <local> = expr;`. Fails when there is no write, several writes,
/// or the write sits inside a nested block (its value would go out of
/// scope before the consumer body runs).
Status RewriteProducerOutput(std::string* body, const std::string& local,
                             const std::string& producer_name) {
  std::size_t found = std::string::npos;
  int count = 0;
  for (std::size_t pos = body->find("output"); pos != std::string::npos;
       pos = body->find("output", pos + 1)) {
    if (!IsWholeIdent(*body, pos, 6)) continue;
    ++count;
    found = pos;
  }
  if (count != 1)
    return Status::Invalid(StrFormat(
        "cannot fuse into kernel '%s': expected exactly one output() write, "
        "found %d",
        producer_name.c_str(), count));
  int depth = 0;
  for (std::size_t i = 0; i < found; ++i) {
    if ((*body)[i] == '{') ++depth;
    if ((*body)[i] == '}') --depth;
  }
  if (depth != 0)
    return Status::Invalid(
        "cannot fuse into kernel '" + producer_name +
        "': its output() write is inside a nested block, so the fused "
        "value would not be in scope for the consumer body");
  std::size_t open = SkipSpace(*body, found + 6);
  if (open >= body->size() || (*body)[open] != '(')
    return Status::Invalid("cannot fuse into kernel '" + producer_name +
                           "': malformed output() write");
  std::size_t close = SkipSpace(*body, open + 1);
  if (close >= body->size() || (*body)[close] != ')')
    return Status::Invalid("cannot fuse into kernel '" + producer_name +
                           "': malformed output() write");
  std::size_t eq = SkipSpace(*body, close + 1);
  if (eq >= body->size() || (*body)[eq] != '=' ||
      (eq + 1 < body->size() && (*body)[eq + 1] == '='))
    return Status::Invalid("cannot fuse into kernel '" + producer_name +
                           "': output() is not written by a plain assignment");
  body->replace(found, close + 1 - found, "float " + local);
  return Status::Ok();
}

/// All identifier-like names a kernel introduces: params, accessors, masks,
/// declared body locals, extra-output names.
std::vector<std::string> KernelNames(const frontend::KernelSource& k) {
  std::vector<std::string> names;
  for (const ast::ParamInfo& p : k.params) names.push_back(p.name);
  for (const ast::AccessorInfo& a : k.accessors) names.push_back(a.name);
  for (const ast::MaskInfo& m : k.masks) names.push_back(m.name);
  for (const std::string& o : k.extra_outputs) names.push_back(o);
  for (std::string& l : DeclaredLocals(k.body)) names.push_back(std::move(l));
  return names;
}

/// Checks that every name `b` introduces (optionally skipping `exempt`) is
/// absent from `a_names`.
Status CheckDisjoint(const std::vector<std::string>& a_names,
                     const frontend::KernelSource& b,
                     const std::string& exempt) {
  for (const std::string& name : KernelNames(b)) {
    if (name == exempt) continue;
    if (Contains(a_names, name))
      return Status::Invalid("cannot fuse: name '" + name +
                             "' exists in both kernels");
  }
  return Status::Ok();
}

// ---- halo fusion helpers ---------------------------------------------------

/// A float literal whose parsed double is exactly double(v): %.17g
/// round-trips any double through strtod, so the inlined coefficient equals
/// the one convolve() unrolling would have produced (every engine op casts
/// operands through float, making the two paths bit-identical).
Result<std::string> FloatLiteral(float v) {
  if (!std::isfinite(v))
    return Status::Invalid("non-finite mask coefficient in convolve()");
  std::string text = StrFormat("%.17g", static_cast<double>(v));
  if (text.find('.') == std::string::npos &&
      text.find('e') == std::string::npos &&
      text.find('E') == std::string::npos)
    text += ".0";
  text += "f";
  // The DSL has no negative literals; let unary minus (exact) rebuild one.
  if (text[0] == '-') return "(" + text + ")";
  return text;
}

/// Extracts `expr` from a producer whose whole body is one top-level
/// `output() = expr;` — the only producer shape halo fusion can inline at
/// every consumer tap (locals would need per-tap re-evaluation, loops a
/// statement context).
Result<std::string> ExtractProducerExpr(const frontend::KernelSource& p) {
  const std::string& body = p.body;
  std::size_t pos = SkipSpace(body, 0);
  if (body.compare(pos, 6, "output") != 0 || !IsWholeIdent(body, pos, 6))
    return Status::Invalid(
        "halo fusion requires an expression-bodied producer (a single "
        "'output() = expr;'), but kernel '" +
        p.name + "' does not start with output()");
  pos = SkipSpace(body, pos + 6);
  if (pos >= body.size() || body[pos] != '(')
    return Status::Invalid("malformed output() in kernel '" + p.name + "'");
  pos = SkipSpace(body, pos + 1);
  if (pos >= body.size() || body[pos] != ')')
    return Status::Invalid("halo fusion cannot inline multi-output producer '" +
                           p.name + "'");
  pos = SkipSpace(body, pos + 1);
  if (pos >= body.size() || body[pos] != '=')
    return Status::Invalid("malformed output() write in kernel '" + p.name +
                           "'");
  ++pos;
  const std::size_t semi = body.find(';', pos);
  if (semi == std::string::npos)
    return Status::Invalid("missing ';' in kernel '" + p.name + "'");
  if (SkipSpace(body, semi + 1) != body.size())
    return Status::Invalid(
        "halo fusion requires an expression-bodied producer (a single "
        "'output() = expr;'), but kernel '" +
        p.name + "' has further statements");
  return body.substr(pos, semi - pos);
}

/// Unrolls `convolve(M, RED, expr)` calls in a producer expression into the
/// reduction over all taps, with `M()` replaced by the coefficient literal
/// and single-argument accessor reads `In(M)` by literal offsets — the
/// textual equivalent of the parser's constant-propagating unrolling, so
/// the inlined producer folds to the same device IR the standalone kernel
/// would.
Result<std::string> ExpandConvolve(std::string expr,
                                   const frontend::KernelSource& p) {
  for (int guard = 0; guard < 8; ++guard) {
    std::size_t pos = std::string::npos;
    for (std::size_t i = expr.find("convolve"); i != std::string::npos;
         i = expr.find("convolve", i + 1)) {
      if (IsWholeIdent(expr, i, 8)) {
        pos = i;
        break;
      }
    }
    if (pos == std::string::npos) return expr;
    const std::size_t open = SkipSpace(expr, pos + 8);
    if (open >= expr.size() || expr[open] != '(')
      return Status::Invalid("malformed convolve() in kernel '" + p.name + "'");
    const std::size_t close = MatchParen(expr, open);
    if (close == std::string::npos)
      return Status::Invalid("unbalanced convolve() in kernel '" + p.name +
                             "'");
    const std::vector<std::string> args =
        SplitTopLevelArgs(expr.substr(open + 1, close - open - 2));
    if (args.size() != 3)
      return Status::Invalid("convolve() expects 3 arguments in kernel '" +
                             p.name + "'");
    std::string mask_name = args[0];
    mask_name = mask_name.substr(SkipSpace(mask_name, 0));
    while (!mask_name.empty() &&
           std::isspace(static_cast<unsigned char>(mask_name.back())) != 0)
      mask_name.pop_back();
    std::string reduce = args[1];
    reduce = reduce.substr(SkipSpace(reduce, 0));
    while (!reduce.empty() &&
           std::isspace(static_cast<unsigned char>(reduce.back())) != 0)
      reduce.pop_back();
    if (reduce != "SUM" && reduce != "MIN" && reduce != "MAX" &&
        reduce != "PROD")
      return Status::Invalid("unknown convolve reduction '" + reduce + "'");
    const ast::MaskInfo* mask = nullptr;
    for (const ast::MaskInfo& m : p.masks)
      if (m.name == mask_name) mask = &m;
    if (mask == nullptr || !mask->is_static())
      return Status::Invalid(
          "convolve() needs a compile-time-constant mask for halo fusion");

    const int hx = mask->size_x / 2;
    const int hy = mask->size_y / 2;
    // One term per tap, in the parser's unrolling order (yf outer, xf
    // inner), with M() folded to the coefficient literal and In(M) to the
    // literal tap offset.
    std::vector<std::string> terms;
    for (int yf = -hy; yf <= hy; ++yf) {
      for (int xf = -hx; xf <= hx; ++xf) {
        const float coeff =
            mask->static_values[static_cast<std::size_t>(yf + hy) *
                                    mask->size_x +
                                (xf + hx)];
        Result<std::string> lit = FloatLiteral(coeff);
        if (!lit.ok()) return lit.status();
        std::string term = args[2];
        if (ReplaceReads(&term, mask_name, lit.value()) < 0)
          return Status::Invalid("unbalanced mask read in convolve()");
        for (const ast::AccessorInfo& acc : p.accessors) {
          Result<int> r = RewriteReads(
              &term, acc.name,
              [&](const std::vector<std::string>& rargs)
                  -> Result<std::string> {
                if (rargs.size() == 1) {
                  std::string only = rargs[0];
                  only = only.substr(SkipSpace(only, 0));
                  while (!only.empty() &&
                         std::isspace(
                             static_cast<unsigned char>(only.back())) != 0)
                    only.pop_back();
                  if (only != mask_name)
                    return Status::Invalid(
                        "accessor '" + acc.name +
                        "' with one argument expects the convolve mask");
                  return StrFormat("%s(%d, %d)", acc.name.c_str(), xf, yf);
                }
                // 0- or 2-argument reads pass through untouched.
                std::string original = acc.name + "(";
                for (std::size_t i = 0; i < rargs.size(); ++i) {
                  if (i > 0) original += ",";
                  original += rargs[i];
                }
                return original + ")";
              });
          if (!r.ok()) return r.status();
        }
        if (MentionsIdent(term, mask_name))
          return Status::Invalid(
              "halo fusion cannot expand convolve(): mask '" + mask_name +
              "' is used outside M() / In(M)");
        terms.push_back(std::move(term));
      }
    }
    // Combine left-associatively, exactly like the parser: SUM/PROD as an
    // operator chain, MIN/MAX as nested fmin/fmax calls.
    std::string combined;
    for (const std::string& term : terms) {
      if (combined.empty()) {
        combined = "(" + term + ")";
      } else if (reduce == "SUM") {
        combined += " + (" + term + ")";
      } else if (reduce == "PROD") {
        combined += " * (" + term + ")";
      } else {
        const char* fn = reduce == "MIN" ? "fmin" : "fmax";
        combined = std::string(fn) + "(" + combined + ", (" + term + "))";
      }
    }
    expr.replace(pos, close - pos, "(" + combined + ")");
  }
  return Status::Invalid("too many convolve() calls to expand");
}

/// DSL arithmetic that reproduces dsl::ResolveBoundaryIndex for coordinate
/// expression `v` over extent `n` — evaluated by the engines in exact int
/// arithmetic, so the fused read coordinate equals the index the unfused
/// intermediate image would have been read at.
std::string RemapIndexExpr(const std::string& v, int n,
                           ast::BoundaryMode mode) {
  const std::string V = "(" + v + ")";
  if (mode == ast::BoundaryMode::kClamp) {
    // clamp: in-range identity, else nearest edge.
    return StrFormat("(%s < 0 ? 0 : (%s > %d ? %d : %s))", V.c_str(),
                     V.c_str(), n - 1, n - 1, V.c_str());
  }
  // mirror: reflect with period 2n (closed form of the iterative
  // reflection): r = ((v % 2n) + 2n) % 2n; r < n ? r : 2n-1-r.
  const int two_n = 2 * n;
  const std::string r = StrFormat("(((%s %% %d) + %d) %% %d)", V.c_str(),
                                  two_n, two_n, two_n);
  return StrFormat("(%s < %d ? %s : %d - %s)", r.c_str(), n, r.c_str(),
                   two_n - 1, r.c_str());
}

/// Replaces nullary calls `name()` with `repl`.
int ReplaceNullaryCalls(std::string* body, const std::string& name,
                        const std::string& repl) {
  int replaced = 0;
  std::size_t pos = 0;
  while ((pos = body->find(name, pos)) != std::string::npos) {
    if (!IsWholeIdent(*body, pos, name.size())) {
      pos += name.size();
      continue;
    }
    const std::size_t open = SkipSpace(*body, pos + name.size());
    if (open >= body->size() || (*body)[open] != '(') {
      pos += name.size();
      continue;
    }
    const std::size_t close = SkipSpace(*body, open + 1);
    if (close >= body->size() || (*body)[close] != ')') {
      pos += name.size();
      continue;
    }
    body->replace(pos, close + 1 - pos, repl);
    pos += repl.size();
    ++replaced;
  }
  return replaced;
}

/// Replaces every whole-identifier occurrence of `from` with `to`
/// (alpha-renaming of kernel-internal names: masks, body locals).
void ReplaceIdent(std::string* body, const std::string& from,
                  const std::string& to) {
  std::size_t pos = 0;
  while ((pos = body->find(from, pos)) != std::string::npos) {
    if (!IsWholeIdent(*body, pos, from.size())) {
      pos += from.size();
      continue;
    }
    body->replace(pos, from.size(), to);
    pos += to.size();
  }
}

/// Replaces plain textual occurrences of a placeholder token.
void ReplaceToken(std::string* body, const std::string& token,
                  const std::string& repl) {
  std::size_t pos = 0;
  while ((pos = body->find(token, pos)) != std::string::npos) {
    body->replace(pos, token.size(), repl);
    pos += repl.size();
  }
}

}  // namespace

const char* to_string(FuseKind kind) noexcept {
  switch (kind) {
    case FuseKind::kPoint: return "point";
    case FuseKind::kHorizontal: return "horizontal";
    case FuseKind::kHalo: return "halo";
  }
  return "?";
}

const char* to_string(FusionMode mode) noexcept {
  switch (mode) {
    case FusionMode::kOff: return "off";
    case FusionMode::kPoint: return "point";
    case FusionMode::kHorizontal: return "horizontal";
    case FusionMode::kHalo: return "halo";
    case FusionMode::kAll: return "all";
  }
  return "?";
}

Result<FusionMode> ParseFusionMode(const std::string& text) {
  if (text == "off") return FusionMode::kOff;
  if (text == "point") return FusionMode::kPoint;
  if (text == "horizontal") return FusionMode::kHorizontal;
  if (text == "halo") return FusionMode::kHalo;
  if (text == "all") return FusionMode::kAll;
  return Status::Invalid("unknown fusion mode '" + text +
                         "' (expected off|point|horizontal|halo|all)");
}

bool FusionModeAllows(FusionMode mode, FuseKind kind) noexcept {
  switch (mode) {
    case FusionMode::kOff: return false;
    case FusionMode::kAll: return true;
    case FusionMode::kPoint: return kind == FuseKind::kPoint;
    case FusionMode::kHorizontal: return kind == FuseKind::kHorizontal;
    case FusionMode::kHalo: return kind == FuseKind::kHalo;
  }
  return false;
}

Result<frontend::KernelSource> FusePointwise(
    const frontend::KernelSource& producer,
    const frontend::KernelSource& consumer, const std::string& accessor) {
  // The consumed accessor must exist and the consumer must be a pure point
  // operator: every accessor window 1x1, so all its reads are offset (0,0).
  const ast::AccessorInfo* consumed = nullptr;
  for (const ast::AccessorInfo& acc : consumer.accessors) {
    if (acc.window.half_x != 0 || acc.window.half_y != 0)
      return Status::Invalid(StrFormat(
          "cannot fuse kernel '%s' into '%s': accessor '%s' has a %dx%d "
          "window — only point operators (all windows 1x1) are fusable",
          consumer.name.c_str(), producer.name.c_str(), acc.name.c_str(),
          acc.window.size_x(), acc.window.size_y()));
    if (acc.name == accessor) consumed = &acc;
  }
  if (consumed == nullptr)
    return Status::Invalid(StrFormat(
        "cannot fuse kernel '%s' into '%s': it has no accessor named '%s'",
        consumer.name.c_str(), producer.name.c_str(), accessor.c_str()));

  // Merging must not capture names: params, accessors, masks, and declared
  // body locals of the two kernels have to be disjoint. Producer locals
  // matter too — a consumer param shadowed by a producer body variable
  // would silently read the wrong value in the merged body. The consumed
  // accessor is exempt: its reads are substituted away and its name does
  // not survive into the fused kernel.
  const std::vector<std::string> producer_names = KernelNames(producer);
  HIPACC_RETURN_IF_ERROR(CheckDisjoint(producer_names, consumer, accessor));

  // Pick a fresh name for the producer's pixel value.
  const std::vector<std::string> consumer_names = KernelNames(consumer);
  std::string local = "fused_" + accessor;
  while (Contains(producer_names, local) || Contains(consumer_names, local))
    local += "_";

  std::string producer_body = producer.body;
  HIPACC_RETURN_IF_ERROR(
      RewriteProducerOutput(&producer_body, local, producer.name));

  std::string consumer_body = consumer.body;
  const int replaced = ReplaceReads(&consumer_body, accessor, local);
  if (replaced < 0)
    return Status::Invalid("cannot fuse kernel '" + consumer.name +
                           "': unbalanced parentheses in its body");
  if (replaced == 0)
    return Status::Invalid(StrFormat(
        "cannot fuse kernel '%s' into '%s': its body never reads "
        "accessor '%s'",
        consumer.name.c_str(), producer.name.c_str(), accessor.c_str()));

  frontend::KernelSource fused;
  fused.name = producer.name + "_" + consumer.name;
  fused.params = producer.params;
  fused.params.insert(fused.params.end(), consumer.params.begin(),
                      consumer.params.end());
  // Producer accessors first: the front accessor (the windowed one) keeps
  // driving the boundary-handling region layout of the fused kernel.
  fused.accessors = producer.accessors;
  for (const ast::AccessorInfo& acc : consumer.accessors)
    if (acc.name != accessor) fused.accessors.push_back(acc);
  fused.masks = producer.masks;
  fused.masks.insert(fused.masks.end(), consumer.masks.begin(),
                     consumer.masks.end());
  fused.extra_outputs = producer.extra_outputs;
  for (const std::string& o : consumer.extra_outputs)
    fused.extra_outputs.push_back(o);
  fused.body = producer_body + "\n" + consumer_body;
  return fused;
}

Result<frontend::KernelSource> FuseHorizontal(
    const frontend::KernelSource& a, const std::string& a_accessor,
    const frontend::KernelSource& b, const std::string& b_accessor,
    const std::string& output_name) {
  if (!b.extra_outputs.empty())
    return Status::Invalid(
        "cannot fuse sibling '" + b.name +
        "': it already carries extra outputs (fold fresh siblings into the "
        "accumulated kernel instead)");
  if (output_name.empty())
    return Status::Invalid("horizontal fusion needs an extra-output name");
  for (const std::string& o : a.extra_outputs)
    if (o == output_name)
      return Status::Invalid("extra-output name '" + output_name +
                             "' already used");

  const ast::AccessorInfo* a_acc = nullptr;
  for (const ast::AccessorInfo& acc : a.accessors)
    if (acc.name == a_accessor) a_acc = &acc;
  const ast::AccessorInfo* b_acc = nullptr;
  for (const ast::AccessorInfo& acc : b.accessors)
    if (acc.name == b_accessor) b_acc = &acc;
  if (a_acc == nullptr || b_acc == nullptr)
    return Status::Invalid(StrFormat(
        "cannot fuse siblings '%s' and '%s': shared-input accessor '%s' / "
        "'%s' not found",
        a.name.c_str(), b.name.c_str(), a_accessor.c_str(),
        b_accessor.c_str()));

  // The shared input collapses into one accessor when the boundary
  // semantics agree — a 1x1 window never reads out of bounds, so its mode
  // is irrelevant; two windowed accessors must match exactly.
  const bool a_windowed =
      a_acc->window.half_x != 0 || a_acc->window.half_y != 0;
  const bool b_windowed =
      b_acc->window.half_x != 0 || b_acc->window.half_y != 0;
  bool merge = true;
  if (a_windowed && b_windowed) {
    merge = a_acc->boundary == b_acc->boundary &&
            (a_acc->boundary != ast::BoundaryMode::kConstant ||
             a_acc->constant_value == b_acc->constant_value);
    if (!merge)
      return Status::Invalid(StrFormat(
          "cannot fuse siblings '%s' and '%s': their windowed reads of the "
          "shared input use different boundary handling",
          a.name.c_str(), b.name.c_str()));
  }

  // Alpha-rename b-internal names (mask names, declared body locals) that
  // collide with a's: they are invisible outside the kernel, unlike params
  // and accessors, which the runtime binds by name (a collision there stays
  // a hard reject — two siblings binding different values under one name
  // have no correct merge).
  const std::vector<std::string> a_names = KernelNames(a);
  frontend::KernelSource b_renamed = b;
  {
    std::vector<std::string> taken = a_names;
    for (const std::string& n : KernelNames(b)) taken.push_back(n);
    auto fresh = [&taken](const std::string& base) {
      std::string name = base;
      while (Contains(taken, name)) name += "_";
      taken.push_back(name);
      return name;
    };
    for (ast::MaskInfo& mask : b_renamed.masks) {
      if (!Contains(a_names, mask.name)) continue;
      const std::string renamed = fresh(mask.name + "_" + output_name);
      ReplaceIdent(&b_renamed.body, mask.name, renamed);
      mask.name = renamed;
    }
    for (const std::string& local : DeclaredLocals(b_renamed.body)) {
      if (!Contains(a_names, local)) continue;
      ReplaceIdent(&b_renamed.body, local, fresh(local + "_" + output_name));
    }
  }
  HIPACC_RETURN_IF_ERROR(CheckDisjoint(a_names, b_renamed, b_accessor));
  if (Contains(a_names, output_name) ||
      Contains(KernelNames(b_renamed), output_name))
    return Status::Invalid("extra-output name '" + output_name +
                           "' collides with a kernel name");

  std::string b_body = b_renamed.body;
  if (b_accessor != a_accessor) {
    if (RenameCalls(&b_body, b_accessor, a_accessor) == 0)
      return Status::Invalid(StrFormat(
          "cannot fuse siblings '%s' and '%s': '%s' never reads accessor "
          "'%s'",
          a.name.c_str(), b.name.c_str(), b.name.c_str(),
          b_accessor.c_str()));
  }
  if (RewriteOutputTargets(&b_body, output_name) <= 0)
    return Status::Invalid("cannot fuse sibling '" + b.name +
                           "': no rewritable output() write");

  frontend::KernelSource fused;
  fused.name = a.name + "_" + b.name;
  fused.params = a.params;
  fused.params.insert(fused.params.end(), b.params.begin(), b.params.end());
  fused.accessors = a.accessors;
  for (ast::AccessorInfo& acc : fused.accessors) {
    if (acc.name != a_accessor) continue;
    // Merged accessor: element-wise max window; the windowed side's
    // boundary handling wins (a point read never needs any).
    acc.window.half_x = std::max(acc.window.half_x, b_acc->window.half_x);
    acc.window.half_y = std::max(acc.window.half_y, b_acc->window.half_y);
    if (!a_windowed && b_windowed) {
      acc.boundary = b_acc->boundary;
      acc.constant_value = b_acc->constant_value;
    }
  }
  for (const ast::AccessorInfo& acc : b.accessors)
    if (acc.name != b_accessor) fused.accessors.push_back(acc);
  fused.masks = a.masks;
  fused.masks.insert(fused.masks.end(), b_renamed.masks.begin(),
                     b_renamed.masks.end());
  fused.extra_outputs = a.extra_outputs;
  fused.extra_outputs.push_back(output_name);
  fused.body = a.body + "\n" + b_body;
  return fused;
}

Result<frontend::KernelSource> FuseHalo(const frontend::KernelSource& producer,
                                        const frontend::KernelSource& consumer,
                                        const std::string& accessor,
                                        int image_width, int image_height) {
  if (!producer.extra_outputs.empty())
    return Status::Invalid("halo fusion cannot inline multi-output producer '" +
                           producer.name + "'");
  if (image_width <= 0 || image_height <= 0)
    return Status::Invalid("halo fusion needs the iteration-space extents");

  const ast::AccessorInfo* consumed = nullptr;
  for (const ast::AccessorInfo& acc : consumer.accessors)
    if (acc.name == accessor) consumed = &acc;
  if (consumed == nullptr)
    return Status::Invalid(StrFormat(
        "cannot fuse kernel '%s' into '%s': it has no accessor named '%s'",
        consumer.name.c_str(), producer.name.c_str(), accessor.c_str()));
  if (consumed->boundary != ast::BoundaryMode::kClamp &&
      consumed->boundary != ast::BoundaryMode::kMirror)
    return Status::Invalid(StrFormat(
        "halo fusion requires clamp or mirror boundary handling on the "
        "consumed accessor, got %s (repeat breaks scratchpad tile locality; "
        "constant would need f(c) != c; undefined has no defined remap)",
        to_string(consumed->boundary)));

  // Producer shape: a single top-level `output() = expr;`, with convolve()
  // unrolled textually so only literal-offset accessor reads remain.
  Result<std::string> expr = ExtractProducerExpr(producer);
  if (!expr.ok()) return expr.status();
  Result<std::string> expanded = ExpandConvolve(expr.value(), producer);
  if (!expanded.ok()) return expanded.status();
  std::string proto = std::move(expanded).take();

  // Producer masks whose reads were all constant-propagated away by the
  // convolve() expansion do not survive into the fused kernel (and are
  // exempt from name-disjointness — Gaussian→Laplacian both call their
  // mask "M").
  std::vector<ast::MaskInfo> surviving_masks;
  for (const ast::MaskInfo& m : producer.masks)
    if (MentionsIdent(proto, m.name)) surviving_masks.push_back(m);

  frontend::KernelSource producer_view = producer;
  producer_view.masks = surviving_masks;
  const std::vector<std::string> producer_names = KernelNames(producer_view);
  HIPACC_RETURN_IF_ERROR(CheckDisjoint(producer_names, consumer, accessor));

  // Placeholders for the remapped producer-iteration coordinate; chosen
  // fresh so no kernel text can capture them.
  std::string cxp = "__halo_cx";
  std::string cyp = "__halo_cy";
  while (proto.find(cxp) != std::string::npos ||
         consumer.body.find(cxp) != std::string::npos)
    cxp += "_";
  while (proto.find(cyp) != std::string::npos ||
         consumer.body.find(cyp) != std::string::npos)
    cyp += "_";

  // Producer x()/y() evaluate at the remapped coordinate.
  ReplaceNullaryCalls(&proto, "x", cxp);
  ReplaceNullaryCalls(&proto, "y", cyp);

  // Producer reads In(a, b) happen at (remapped + offset): express them as
  // consumer-level reads In((a) + cx - x(), (b) + cy - y()) so the fused
  // accessor applies the *producer's* boundary mode to the same absolute
  // coordinate the standalone producer would have resolved.
  for (const ast::AccessorInfo& acc : producer.accessors) {
    Result<int> r = RewriteReads(
        &proto, acc.name,
        [&](const std::vector<std::string>& args) -> Result<std::string> {
          std::string dx = "0";
          std::string dy = "0";
          if (args.size() == 2) {
            dx = args[0];
            dy = args[1];
          } else if (!args.empty()) {
            return Status::Invalid(
                "halo fusion: unsupported single-argument read of '" +
                acc.name + "' outside convolve()");
          }
          return StrFormat("%s((%s) + %s - x(), (%s) + %s - y())",
                           acc.name.c_str(), dx.c_str(), cxp.c_str(),
                           dy.c_str(), cyp.c_str());
        });
    if (!r.ok()) return r.status();
  }

  // Substitute the producer expression at every consumer tap, remapping the
  // tap coordinate with the consumed accessor's boundary mode (extents as
  // literals — known at plan time, exactly like the paper's baked kernels).
  std::string consumer_body = consumer.body;
  Result<int> replaced = RewriteReads(
      &consumer_body, accessor,
      [&](const std::vector<std::string>& args) -> Result<std::string> {
        std::string dx = "0";
        std::string dy = "0";
        if (args.size() == 2) {
          dx = args[0];
          dy = args[1];
        } else if (!args.empty()) {
          return Status::Invalid(
              "halo fusion: consumer reads '" + accessor +
              "' at a convolve mask position — unsupported");
        }
        if (MentionsIdent(dx, accessor) || MentionsIdent(dy, accessor))
          return Status::Invalid("halo fusion: nested reads of '" + accessor +
                                 "' in an offset expression");
        const std::string cx = RemapIndexExpr("x() + (" + dx + ")",
                                              image_width, consumed->boundary);
        const std::string cy = RemapIndexExpr("y() + (" + dy + ")",
                                              image_height, consumed->boundary);
        std::string inst = proto;
        ReplaceToken(&inst, cxp, "(" + cx + ")");
        ReplaceToken(&inst, cyp, "(" + cy + ")");
        // The float cast reproduces the store-then-load rounding of the
        // eliminated intermediate image.
        return "((float)(" + inst + "))";
      });
  if (!replaced.ok()) return replaced.status();
  if (replaced.value() == 0)
    return Status::Invalid(StrFormat(
        "cannot fuse kernel '%s' into '%s': its body never reads "
        "accessor '%s'",
        consumer.name.c_str(), producer.name.c_str(), accessor.c_str()));

  frontend::KernelSource fused;
  fused.name = producer.name + "_" + consumer.name;
  fused.params = producer.params;
  fused.params.insert(fused.params.end(), consumer.params.begin(),
                      consumer.params.end());
  // Producer accessors first, windows extended by the consumer's window of
  // the consumed accessor — the extended tile+halo region the scratchpad
  // stages and the boundary-region bands are sized from.
  fused.accessors = producer.accessors;
  for (ast::AccessorInfo& acc : fused.accessors) {
    acc.window.half_x += consumed->window.half_x;
    acc.window.half_y += consumed->window.half_y;
  }
  for (const ast::AccessorInfo& acc : consumer.accessors)
    if (acc.name != accessor) fused.accessors.push_back(acc);
  fused.masks = surviving_masks;
  fused.masks.insert(fused.masks.end(), consumer.masks.begin(),
                     consumer.masks.end());
  fused.extra_outputs = consumer.extra_outputs;
  fused.body = consumer_body;
  return fused;
}

}  // namespace hipacc::compiler
