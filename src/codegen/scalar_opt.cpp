#include "codegen/scalar_opt.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "ast/printer.hpp"
#include "ast/visitor.hpp"
#include "support/string_utils.hpp"

namespace hipacc::codegen {
namespace {

using namespace hipacc::ast;

/// Variable names assigned or declared anywhere in a statement tree
/// (including loop variables).
void CollectAssigned(const StmtPtr& stmt, std::set<std::string>* names) {
  VisitStmts(stmt, [names](const Stmt& s) {
    if (s.kind == StmtKind::kAssign || s.kind == StmtKind::kDecl ||
        s.kind == StmtKind::kFor)
      names->insert(s.name);
  });
}

void CollectFreeVars(const ExprPtr& expr, std::set<std::string>* names) {
  VisitExprs(expr, [names](const Expr& e) {
    if (e.kind == ExprKind::kVarRef) names->insert(e.name);
  });
}

/// Worth materialising in a temporary: contains a memory read or a call.
bool IsHoistworthy(const ExprPtr& expr) {
  bool found = false;
  VisitExprs(expr, [&found](const Expr& e) {
    if (e.kind == ExprKind::kMemRead || e.kind == ExprKind::kCall)
      found = true;
  });
  return found;
}

/// Operator-node weight of a pure-arithmetic expression (no memory reads or
/// calls). Halo-fused kernels inline the producer's boundary remap at every
/// tap, so the same clamp chain shows up many times per iteration; a chain
/// heavy and frequent enough is worth a register even without a memory read.
int ArithWeight(const ExprPtr& expr) {
  int ops = 0;
  VisitExprs(expr, [&ops](const Expr& e) {
    if (e.kind == ExprKind::kUnary || e.kind == ExprKind::kBinary ||
        e.kind == ExprKind::kConditional || e.kind == ExprKind::kCast)
      ++ops;
  });
  return ops;
}

bool Disjoint(const std::set<std::string>& a, const std::set<std::string>& b) {
  for (const auto& name : a)
    if (b.count(name)) return false;
  return true;
}

/// Enumerates candidate subexpressions of a statement (top-level expression
/// slots and every nested subexpression).
void ForEachSubexpr(const StmtPtr& stmt,
                    const std::function<void(const ExprPtr&)>& fn) {
  const auto walk = [&fn](const ExprPtr& e) {
    if (!e) return;
    std::function<void(const ExprPtr&)> rec = [&](const ExprPtr& node) {
      fn(node);
      for (const auto& arg : node->args) rec(arg);
    };
    rec(e);
  };
  // Only this statement's own expressions; children are processed on their
  // own so temporaries land in the tightest enclosing block.
  walk(stmt->value);
  walk(stmt->cond);
  walk(stmt->lo);
  walk(stmt->hi);
  walk(stmt->x);
  walk(stmt->y);
}

class ScalarOptimizer {
 public:
  StmtPtr Run(const StmtPtr& body) { return Optimize(body); }

 private:
  /// Recursively optimizes a statement; blocks get CSE, loops get LICM.
  StmtPtr Optimize(const StmtPtr& stmt) {
    if (!stmt) return nullptr;
    switch (stmt->kind) {
      case StmtKind::kBlock:
        return OptimizeBlock(stmt);
      case StmtKind::kIf:
      case StmtKind::kFor: {
        auto copy = std::make_shared<Stmt>(*stmt);
        for (auto& child : copy->body) child = Optimize(child);
        return copy;
      }
      default:
        return stmt;
    }
  }

  StmtPtr OptimizeBlock(const StmtPtr& block) {
    // Children first so nested blocks/loops already carry their temporaries.
    std::vector<StmtPtr> stmts;
    stmts.reserve(block->body.size());
    for (const auto& child : block->body) stmts.push_back(Optimize(child));

    stmts = ApplyCse(std::move(stmts));
    stmts = ApplyLicm(std::move(stmts));
    auto copy = std::make_shared<Stmt>(*block);
    copy->body = std::move(stmts);
    return copy;
  }

  /// CSE across the direct statements of one block.
  std::vector<StmtPtr> ApplyCse(std::vector<StmtPtr> stmts) {
    std::set<std::string> assigned;
    for (const auto& s : stmts) CollectAssigned(s, &assigned);

    // Count hoistworthy subexpressions by structural key. Pure arithmetic
    // only qualifies when the chain is heavy and repeated (>= 4 operator
    // nodes, >= 3 occurrences) — one register spent on e.g. a boundary
    // clamp repeated per producer tap in a halo-fused kernel.
    std::map<std::string, std::pair<ExprPtr, int>> counts;
    for (const auto& s : stmts) {
      ForEachSubexpr(s, [&](const ExprPtr& e) {
        if (!IsHoistworthy(e) && ArithWeight(e) < 4) return;
        const std::string key = PrintExpr(e);
        auto& entry = counts[key];
        if (!entry.first) entry.first = e;
        ++entry.second;
      });
    }

    std::map<std::string, std::string> replacements;  // key -> temp name
    std::vector<StmtPtr> prologue;
    for (const auto& [key, entry] : counts) {
      const int min_uses = IsHoistworthy(entry.first) ? 2 : 3;
      if (entry.second < min_uses) continue;
      std::set<std::string> free_vars;
      CollectFreeVars(entry.first, &free_vars);
      if (!Disjoint(free_vars, assigned)) continue;
      // Nested duplicates: if a larger duplicate contains this one, the
      // larger replacement subsumes it; allowing both is still correct
      // because replacement runs bottom-up, so prefer the larger (skip keys
      // that are sub-strings of an already accepted key's expression).
      const std::string temp = StrFormat("_cse%d", counter_++);
      replacements[key] = temp;
      prologue.push_back(
          Decl(entry.first->type, temp, entry.first));
    }
    if (replacements.empty()) return stmts;

    // Smaller expressions first, so larger initialisers can reference the
    // temporaries of their own subexpressions (defined before use).
    std::sort(prologue.begin(), prologue.end(),
              [](const StmtPtr& a, const StmtPtr& b) {
                return PrintExpr(a->value).size() < PrintExpr(b->value).size();
              });

    // Rewrite temp initialisers against previously defined temps too, so
    // nested duplicate subexpressions collapse into chains.
    const ExprRewriteFn rewrite = [&replacements](const Expr& e) -> ExprPtr {
      // Never rewrite the whole initialiser into its own temp; handled by
      // key comparison at the call sites below.
      const std::string key = PrintExpr(std::make_shared<Expr>(e));
      const auto it = replacements.find(key);
      if (it == replacements.end()) return nullptr;
      return VarRef(it->second, e.type);
    };
    for (size_t i = 0; i < prologue.size(); ++i) {
      auto decl = std::make_shared<Stmt>(*prologue[i]);
      // Only rewrite strict subexpressions of the initialiser.
      std::vector<ExprPtr> new_args;
      bool changed = false;
      for (const auto& arg : decl->value->args) {
        ExprPtr rewritten = RewriteExpr(arg, rewrite);
        changed = changed || rewritten != arg;
        new_args.push_back(rewritten);
      }
      if (changed) decl->value = WithArgs(*decl->value, std::move(new_args));
      prologue[i] = decl;
      // Statements are rewritten bottom-up, so by the time a larger
      // duplicate is visited its inner occurrences already read from their
      // temporaries; register the rewritten spelling as a key too so the
      // outer chain still collapses.
      replacements[PrintExpr(decl->value)] = decl->name;
    }
    for (auto& s : stmts) s = RewriteStmtExprs(s, rewrite);

    // Nested duplicates can stop matching once their inner occurrence was
    // rewritten; drop any temporary that ended up unused so its (costly)
    // initialiser is not evaluated for nothing.
    std::set<std::string> used;
    auto count_uses = [&used](const StmtPtr& s) {
      VisitExprs(s, [&used](const Expr& e) {
        if (e.kind == ExprKind::kVarRef) used.insert(e.name);
      });
    };
    for (const auto& s : stmts) count_uses(s);
    for (const auto& d : prologue) count_uses(d);

    std::vector<StmtPtr> out;
    out.reserve(prologue.size() + stmts.size());
    for (auto& d : prologue)
      if (used.count(d->name)) out.push_back(std::move(d));
    for (auto& s : stmts) out.push_back(std::move(s));
    return out;
  }

  /// LICM: hoists invariant hoistworthy subexpressions (and optimizer
  /// temporaries) out of directly nested counted loops.
  std::vector<StmtPtr> ApplyLicm(std::vector<StmtPtr> stmts) {
    std::vector<StmtPtr> out;
    for (const auto& stmt : stmts) {
      if (stmt->kind != StmtKind::kFor) {
        out.push_back(stmt);
        continue;
      }
      StmtPtr body = stmt->body[0];
      std::set<std::string> forbidden;
      CollectAssigned(body, &forbidden);
      forbidden.insert(stmt->name);  // the loop variable

      // 1. Hoist invariant optimizer temporaries declared at body top level.
      std::vector<StmtPtr> hoisted;
      if (body->kind == StmtKind::kBlock) {
        std::vector<StmtPtr> remaining;
        for (const auto& child : body->body) {
          bool can_hoist = false;
          if (child->kind == StmtKind::kDecl && child->value &&
              StartsWith(child->name, "_")) {
            std::set<std::string> free_vars;
            CollectFreeVars(child->value, &free_vars);
            std::set<std::string> forbidden_minus_self = forbidden;
            forbidden_minus_self.erase(child->name);
            can_hoist = Disjoint(free_vars, forbidden_minus_self);
          }
          if (can_hoist) {
            hoisted.push_back(child);
            forbidden.erase(child->name);
          } else {
            remaining.push_back(child);
          }
        }
        if (!hoisted.empty()) {
          auto new_body = std::make_shared<Stmt>(*body);
          new_body->body = std::move(remaining);
          body = new_body;
        }
      }

      // 2. Hoist fresh invariant subexpressions. They may read the
      // temporaries hoisted in step 1, so those are declared first.
      for (auto& d : hoisted) out.push_back(std::move(d));
      std::map<std::string, ExprPtr> candidates;
      VisitStmts(body, [&](const Stmt& s) {
        auto sp = std::make_shared<Stmt>(s);
        ForEachSubexpr(sp, [&](const ExprPtr& e) {
          if (!IsHoistworthy(e)) return;
          std::set<std::string> free_vars;
          CollectFreeVars(e, &free_vars);
          if (!Disjoint(free_vars, forbidden)) return;
          candidates[PrintExpr(e)] = e;
        });
      });
      std::map<std::string, std::string> replacements;
      for (const auto& [key, expr] : candidates) {
        const std::string temp = StrFormat("_licm%d", counter_++);
        replacements[key] = temp;
        out.push_back(Decl(expr->type, temp, expr));
      }
      if (!replacements.empty()) {
        const ExprRewriteFn rewrite = [&replacements](const Expr& e) -> ExprPtr {
          const std::string key = PrintExpr(std::make_shared<Expr>(e));
          const auto it = replacements.find(key);
          if (it == replacements.end()) return nullptr;
          return VarRef(it->second, e.type);
        };
        body = RewriteStmtExprs(body, rewrite);
      }

      auto new_for = std::make_shared<Stmt>(*stmt);
      new_for->body = {body};
      out.push_back(std::move(new_for));
    }
    return out;
  }

  int counter_ = 0;
};

}  // namespace

ast::StmtPtr OptimizeScalars(const ast::StmtPtr& body) {
  return ScalarOptimizer().Run(body);
}

}  // namespace hipacc::codegen
