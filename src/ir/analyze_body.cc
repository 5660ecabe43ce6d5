#include "src/ir/analyze_body.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

namespace orion {

namespace {

// ---------------------------------------------------------------------------
// Subscript classification over scalar expressions

// Linear form coeff * index_dim + constant, or taint flags.
struct SLinear {
  bool has_runtime = false;   // variables / iteration values
  bool has_array_read = false;
  bool nonlinear = false;
  f64 constant = 0.0;
  std::vector<std::pair<int, f64>> coeffs;  // (loop_dim, coeff)

  void AddCoeff(int dim, f64 c) {
    for (auto& [d, existing] : coeffs) {
      if (d == dim) {
        existing += c;
        return;
      }
    }
    coeffs.push_back({dim, c});
  }
  void PruneZeros() {
    std::erase_if(coeffs, [](const auto& p) { return p.second == 0.0; });
  }
};

SLinear AnalyzeLinear(const SExpr& e) {
  SLinear f;
  switch (e.op()) {
    case SOp::kConst:
      f.constant = e.constant();
      return f;
    case SOp::kIndexVar:
      f.AddCoeff(e.loop_dim(), 1.0);
      return f;
    case SOp::kVar:
    case SOp::kIterValueAt:
      f.has_runtime = true;
      // IterValueAt's offset may itself read arrays; propagate.
      for (const auto& c : e.children()) {
        const SLinear sub = AnalyzeLinear(*c);
        f.has_array_read |= sub.has_array_read;
      }
      return f;
    case SOp::kArrayElem:
      f.has_runtime = true;
      f.has_array_read = true;
      return f;
    case SOp::kFloor: {
      SLinear a = AnalyzeLinear(*e.children()[0]);
      // floor() of a pure-integer linear form is the form itself; treat any
      // other shape conservatively.
      return a;
    }
    case SOp::kAdd:
    case SOp::kSub: {
      SLinear a = AnalyzeLinear(*e.children()[0]);
      SLinear b = AnalyzeLinear(*e.children()[1]);
      f.has_runtime = a.has_runtime || b.has_runtime;
      f.has_array_read = a.has_array_read || b.has_array_read;
      f.nonlinear = a.nonlinear || b.nonlinear;
      const f64 sign = e.op() == SOp::kAdd ? 1.0 : -1.0;
      f.constant = a.constant + sign * b.constant;
      f.coeffs = a.coeffs;
      for (const auto& [d, c] : b.coeffs) {
        f.AddCoeff(d, sign * c);
      }
      f.PruneZeros();
      return f;
    }
    case SOp::kMul:
    case SOp::kDiv: {
      SLinear a = AnalyzeLinear(*e.children()[0]);
      SLinear b = AnalyzeLinear(*e.children()[1]);
      f.has_runtime = a.has_runtime || b.has_runtime;
      f.has_array_read = a.has_array_read || b.has_array_read;
      if (a.coeffs.empty() && b.coeffs.empty()) {
        f.constant = e.op() == SOp::kMul ? a.constant * b.constant
                                         : a.constant / b.constant;
        f.nonlinear = a.nonlinear || b.nonlinear;
        return f;
      }
      if (e.op() == SOp::kMul && (a.coeffs.empty() || b.coeffs.empty())) {
        const SLinear& lin = a.coeffs.empty() ? b : a;
        const f64 k = a.coeffs.empty() ? a.constant : b.constant;
        f.constant = lin.constant * k;
        for (const auto& [d, c] : lin.coeffs) {
          f.AddCoeff(d, c * k);
        }
        f.PruneZeros();
        f.nonlinear = a.nonlinear || b.nonlinear;
        return f;
      }
      f.nonlinear = true;
      return f;
    }
  }
  f.nonlinear = true;
  return f;
}

// Collects every kArrayElem read in an expression tree (including nested
// reads inside subscripts).
void CollectReads(const SExprPtr& e, std::vector<const SExpr*>* out) {
  if (e == nullptr) {
    return;
  }
  if (e->op() == SOp::kArrayElem) {
    out->push_back(e.get());
  }
  for (const auto& c : e->children()) {
    CollectReads(c, out);
  }
}

// Collects scalar variable ids referenced by an expression.
void CollectVars(const SExprPtr& e, std::set<int>* out) {
  if (e == nullptr) {
    return;
  }
  if (e->op() == SOp::kVar) {
    out->insert(e->var());
  }
  for (const auto& c : e->children()) {
    CollectVars(c, out);
  }
}

bool ContainsArrayRead(const SExprPtr& e) {
  if (e == nullptr) {
    return false;
  }
  if (e->op() == SOp::kArrayElem) {
    return true;
  }
  for (const auto& c : e->children()) {
    if (ContainsArrayRead(c)) {
      return true;
    }
  }
  return false;
}

}  // namespace

Subscript ClassifySubscriptExpr(const SExprPtr& e) {
  const SLinear f = AnalyzeLinear(*e);
  if (f.has_runtime) {
    return Subscript::MakeRuntime();
  }
  if (f.nonlinear) {
    return Subscript::MakeRange();
  }
  if (f.coeffs.empty()) {
    return Subscript::MakeConstant(static_cast<i64>(f.constant));
  }
  if (f.coeffs.size() == 1 && f.coeffs[0].second == 1.0) {
    return Subscript::MakeLoopIndex(f.coeffs[0].first, static_cast<i64>(f.constant));
  }
  return Subscript::MakeRange();
}

// ---------------------------------------------------------------------------
// Access extraction

namespace {

void AddAccessIfNew(std::vector<ArrayAccess>* out, ArrayAccess access) {
  for (const auto& existing : *out) {
    if (existing.array == access.array && existing.is_write == access.is_write &&
        existing.buffered == access.buffered && existing.subscripts == access.subscripts) {
      return;
    }
  }
  out->push_back(std::move(access));
}

ArrayAccess MakeAccess(DistArrayId array, std::string name,
                       const std::vector<SExprPtr>& subs, bool is_write, bool buffered) {
  ArrayAccess a;
  a.array = array;
  a.array_name = std::move(name);
  a.subscripts.reserve(subs.size());
  for (const auto& s : subs) {
    a.subscripts.push_back(ClassifySubscriptExpr(s));
  }
  a.is_write = is_write;
  a.buffered = buffered;
  return a;
}

void ExtractFromExpr(const SExprPtr& e, std::vector<ArrayAccess>* out) {
  std::vector<const SExpr*> reads;
  CollectReads(e, &reads);
  for (const SExpr* r : reads) {
    std::vector<SExprPtr> subs(r->children().begin(), r->children().end() - 1);
    AddAccessIfNew(out, MakeAccess(r->array(), "array" + std::to_string(r->array()), subs,
                                   /*is_write=*/false, /*buffered=*/false));
  }
}

void ExtractFromStmts(const std::vector<StmtPtr>& stmts, std::vector<ArrayAccess>* out) {
  for (const auto& s : stmts) {
    switch (s->kind) {
      case StmtKind::kAssign:
        ExtractFromExpr(s->value, out);
        break;
      case StmtKind::kStore: {
        ExtractFromExpr(s->value, out);
        ExtractFromExpr(s->elem_offset, out);
        for (const auto& sub : s->subscripts) {
          ExtractFromExpr(sub, out);
        }
        AddAccessIfNew(out, MakeAccess(s->array, s->array_name, s->subscripts,
                                       /*is_write=*/true, /*buffered=*/false));
        // A += store also reads the cell.
        if (s->accumulate) {
          AddAccessIfNew(out, MakeAccess(s->array, s->array_name, s->subscripts,
                                         /*is_write=*/false, /*buffered=*/false));
        }
        break;
      }
      case StmtKind::kBufferUpdate: {
        for (const auto& u : s->update) {
          ExtractFromExpr(u, out);
        }
        for (const auto& sub : s->subscripts) {
          ExtractFromExpr(sub, out);
        }
        AddAccessIfNew(out, MakeAccess(s->array, s->array_name, s->subscripts,
                                       /*is_write=*/true, /*buffered=*/true));
        break;
      }
      case StmtKind::kFor:
      case StmtKind::kIf:
        ExtractFromExpr(s->count_or_cond, out);
        ExtractFromStmts(s->body, out);
        break;
    }
  }
}

}  // namespace

std::vector<ArrayAccess> ExtractAccesses(const LoopBody& body) {
  std::vector<ArrayAccess> out;
  ExtractFromStmts(body.stmts, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Prefetch synthesis (backward slice)

namespace {

using Node = PrefetchProgram::Node;

// Taint: variables whose values (transitively) derive from DistArray reads.
// Subscripts built from tainted variables cannot be prefetched.
void ComputeTaint(const std::vector<StmtPtr>& stmts, std::vector<bool>* tainted) {
  for (const auto& s : stmts) {
    switch (s->kind) {
      case StmtKind::kAssign: {
        bool t = ContainsArrayRead(s->value);
        std::set<int> vars;
        CollectVars(s->value, &vars);
        for (int v : vars) {
          t = t || (*tainted)[static_cast<size_t>(v)];
        }
        if (t) {
          (*tainted)[static_cast<size_t>(s->var)] = true;
        }
        break;
      }
      case StmtKind::kFor:
      case StmtKind::kIf:
        ComputeTaint(s->body, tainted);
        break;
      default:
        break;
    }
  }
}

bool SubscriptsPrefetchable(const std::vector<SExprPtr>& subs,
                            const std::vector<bool>& tainted) {
  for (const auto& sub : subs) {
    if (ContainsArrayRead(sub)) {
      return false;
    }
    std::set<int> vars;
    CollectVars(sub, &vars);
    for (int v : vars) {
      if (tainted[static_cast<size_t>(v)]) {
        return false;
      }
    }
  }
  return true;
}

struct SliceBuilder {
  const std::vector<bool>& tainted;
  std::vector<DistArrayId>* target_arrays;
  std::vector<DistArrayId>* unprefetchable;

  // Builds the mirror tree with Record nodes for each prefetchable read.
  std::vector<Node> Mirror(const std::vector<StmtPtr>& stmts) {
    std::vector<Node> out;
    for (const auto& s : stmts) {
      // Record nodes for reads appearing in this statement's expressions.
      std::vector<const SExpr*> reads;
      switch (s->kind) {
        case StmtKind::kAssign:
          CollectReads(s->value, &reads);
          break;
        case StmtKind::kStore:
          CollectReads(s->value, &reads);
          CollectReads(s->elem_offset, &reads);
          for (const auto& sub : s->subscripts) {
            CollectReads(sub, &reads);
          }
          if (s->accumulate) {
            // The += read of the stored cell itself.
            // (Represented by the store's own subscripts.)
          }
          break;
        case StmtKind::kBufferUpdate:
          for (const auto& u : s->update) {
            CollectReads(u, &reads);
          }
          for (const auto& sub : s->subscripts) {
            CollectReads(sub, &reads);
          }
          break;
        case StmtKind::kFor:
        case StmtKind::kIf:
          CollectReads(s->count_or_cond, &reads);
          break;
      }
      for (const SExpr* r : reads) {
        std::vector<SExprPtr> subs(r->children().begin(), r->children().end() - 1);
        if (SubscriptsPrefetchable(subs, tainted)) {
          Node rec;
          rec.kind = Node::Kind::kRecord;
          rec.array = r->array();
          rec.subscripts = std::move(subs);
          target_arrays->push_back(r->array());
          out.push_back(std::move(rec));
        } else {
          unprefetchable->push_back(r->array());
        }
      }
      // The statement itself.
      switch (s->kind) {
        case StmtKind::kAssign: {
          Node n;
          n.kind = Node::Kind::kAssign;
          n.var = s->var;
          n.expr = s->value;
          out.push_back(std::move(n));
          break;
        }
        case StmtKind::kFor: {
          Node n;
          n.kind = Node::Kind::kFor;
          n.var = s->var;
          n.expr = s->count_or_cond;
          n.body = Mirror(s->body);
          out.push_back(std::move(n));
          break;
        }
        case StmtKind::kIf: {
          Node n;
          n.kind = Node::Kind::kIf;
          n.expr = s->count_or_cond;
          n.body = Mirror(s->body);
          out.push_back(std::move(n));
          break;
        }
        case StmtKind::kStore:
        case StmtKind::kBufferUpdate:
          break;  // writes never join the prefetch slice
      }
    }
    return out;
  }
};

// Backward pass: keep Records; keep Assigns whose variable is needed; keep
// For/If blocks containing kept children (their condition vars become
// needed). Returns the sliced block and whether anything was kept.
bool SliceBlock(std::vector<Node>* block, std::set<int>* needed) {
  std::vector<Node> kept;
  bool any = false;
  for (auto it = block->rbegin(); it != block->rend(); ++it) {
    Node& n = *it;
    switch (n.kind) {
      case Node::Kind::kRecord: {
        for (const auto& sub : n.subscripts) {
          CollectVars(sub, needed);
        }
        kept.push_back(std::move(n));
        any = true;
        break;
      }
      case Node::Kind::kAssign: {
        // An assignment inside an expression that *drops* array values never
        // reaches a subscript (taint analysis guaranteed that), so keeping
        // it is only necessary when its variable is needed.
        if (needed->count(n.var) > 0) {
          CollectVars(n.expr, needed);
          kept.push_back(std::move(n));
          any = true;
        }
        break;
      }
      case Node::Kind::kFor: {
        if (SliceBlock(&n.body, needed)) {
          CollectVars(n.expr, needed);
          // Loop counter is defined by the For itself; it stops being an
          // external need.
          needed->erase(n.var);
          kept.push_back(std::move(n));
          any = true;
        }
        break;
      }
      case Node::Kind::kIf: {
        if (SliceBlock(&n.body, needed)) {
          CollectVars(n.expr, needed);
          kept.push_back(std::move(n));
          any = true;
        }
        break;
      }
    }
  }
  std::reverse(kept.begin(), kept.end());
  *block = std::move(kept);
  return any;
}

}  // namespace

PrefetchProgram SynthesizePrefetch(const LoopBody& body) {
  PrefetchProgram program;
  program.num_vars_ = body.num_vars;

  std::vector<bool> tainted(static_cast<size_t>(body.num_vars), false);
  ComputeTaint(body.stmts, &tainted);

  SliceBuilder builder{tainted, &program.target_arrays_, &program.unprefetchable_};
  program.nodes_ = builder.Mirror(body.stmts);
  std::set<int> needed;
  program.has_targets_ = SliceBlock(&program.nodes_, &needed);

  std::sort(program.target_arrays_.begin(), program.target_arrays_.end());
  program.target_arrays_.erase(
      std::unique(program.target_arrays_.begin(), program.target_arrays_.end()),
      program.target_arrays_.end());
  std::sort(program.unprefetchable_.begin(), program.unprefetchable_.end());
  program.unprefetchable_.erase(
      std::unique(program.unprefetchable_.begin(), program.unprefetchable_.end()),
      program.unprefetchable_.end());
  return program;
}

// ---------------------------------------------------------------------------
// Interpretation

namespace {

using Node = PrefetchProgram::Node;

struct Interp {
  IdxSpan idx;
  const f32* value;
  i32 value_dim;
  std::vector<f64> vars;

  f64 Eval(const SExprPtr& e) const {
    switch (e->op()) {
      case SOp::kConst:
        return e->constant();
      case SOp::kIndexVar:
        return static_cast<f64>(idx[static_cast<size_t>(e->loop_dim())]);
      case SOp::kVar:
        return vars[static_cast<size_t>(e->var())];
      case SOp::kIterValueAt: {
        const i64 offset = static_cast<i64>(Eval(e->children()[0]));
        ORION_CHECK(offset >= 0 && offset < value_dim)
            << "iteration-value offset" << offset << "out of range";
        return static_cast<f64>(value[offset]);
      }
      case SOp::kArrayElem:
        ORION_CHECK(false) << "sliced prefetch programs cannot read DistArrays";
        return 0.0;
      case SOp::kAdd:
        return Eval(e->children()[0]) + Eval(e->children()[1]);
      case SOp::kSub:
        return Eval(e->children()[0]) - Eval(e->children()[1]);
      case SOp::kMul:
        return Eval(e->children()[0]) * Eval(e->children()[1]);
      case SOp::kDiv:
        return Eval(e->children()[0]) / Eval(e->children()[1]);
      case SOp::kFloor:
        return std::floor(Eval(e->children()[0]));
    }
    return 0.0;
  }

  void Run(const std::vector<Node>& block,
           const std::map<DistArrayId, KeySpace>& key_spaces,
           std::map<DistArrayId, KeySet>* out) {
    for (const auto& n : block) {
      switch (n.kind) {
        case Node::Kind::kAssign:
          vars[static_cast<size_t>(n.var)] = Eval(n.expr);
          break;
        case Node::Kind::kRecord: {
          auto ks = key_spaces.find(n.array);
          ORION_CHECK(ks != key_spaces.end()) << "no key space for array" << n.array;
          IndexVec coords;
          coords.reserve(n.subscripts.size());
          for (const auto& sub : n.subscripts) {
            coords.push_back(static_cast<i64>(Eval(sub)));
          }
          (*out)[n.array].Insert(ks->second.Encode(coords));
          break;
        }
        case Node::Kind::kFor: {
          const i64 count = static_cast<i64>(Eval(n.expr));
          for (i64 i = 0; i < count; ++i) {
            vars[static_cast<size_t>(n.var)] = static_cast<f64>(i);
            Run(n.body, key_spaces, out);
          }
          break;
        }
        case Node::Kind::kIf:
          if (Eval(n.expr) != 0.0) {
            Run(n.body, key_spaces, out);
          }
          break;
      }
    }
  }
};

}  // namespace

void PrefetchProgram::Run(IdxSpan idx, const f32* value, i32 value_dim,
                          const std::map<DistArrayId, KeySpace>& key_spaces,
                          std::map<DistArrayId, KeySet>* out) const {
  Interp interp{idx, value, value_dim, std::vector<f64>(static_cast<size_t>(num_vars_), 0.0)};
  interp.Run(nodes_, key_spaces, out);
}

}  // namespace orion
