#include "sql/executor.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "sql/btree.h"

namespace xftl::sql {

namespace {

std::string Lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](char c) { return char(std::tolower(c)); });
  return out;
}

bool NameEq(const std::string& a, const std::string& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(x) == std::tolower(y);
         });
}

// Operators, bound from Expr::op once per statement.
enum class Op : uint8_t {
  kUnknown,
  // binary
  kAnd, kOr, kEq, kNe, kLt, kLe, kGt, kGe, kLike, kConcat,
  kAdd, kSub, kMul, kDiv, kMod,
  // unary
  kNeg, kNot, kIsNull, kIsNotNull,
};

// Functions, bound from Expr::func (upper-cased by the parser).
enum class Fn : uint8_t {
  kUnknown,
  kCount, kSum, kAvg, kTotal, kMin, kMax,  // aggregates (MIN/MAX: one arg)
  kLength, kAbs, kUpper, kLower, kCoalesce, kIfNull, kSubstr,
};

template <typename E>
struct Named {
  const char* name;
  E value;
};

constexpr Named<Op> kBinaryOps[] = {
    {"AND", Op::kAnd},   {"OR", Op::kOr},    {"=", Op::kEq},
    {"!=", Op::kNe},     {"<", Op::kLt},     {"<=", Op::kLe},
    {">", Op::kGt},      {">=", Op::kGe},    {"LIKE", Op::kLike},
    {"||", Op::kConcat}, {"+", Op::kAdd},    {"-", Op::kSub},
    {"*", Op::kMul},     {"/", Op::kDiv},    {"%", Op::kMod},
};
constexpr Named<Op> kUnaryOps[] = {
    {"-", Op::kNeg},
    {"NOT", Op::kNot},
    {"ISNULL", Op::kIsNull},
    {"ISNOTNULL", Op::kIsNotNull},
};
constexpr Named<Fn> kFunctions[] = {
    {"COUNT", Fn::kCount},       {"SUM", Fn::kSum},
    {"AVG", Fn::kAvg},           {"TOTAL", Fn::kTotal},
    {"MIN", Fn::kMin},           {"MAX", Fn::kMax},
    {"LENGTH", Fn::kLength},     {"ABS", Fn::kAbs},
    {"UPPER", Fn::kUpper},       {"LOWER", Fn::kLower},
    {"COALESCE", Fn::kCoalesce}, {"IFNULL", Fn::kIfNull},
    {"SUBSTR", Fn::kSubstr},
};

template <typename E, size_t N>
E Lookup(const Named<E> (&table)[N], const std::string& name) {
  for (const Named<E>& entry : table) {
    if (name == entry.name) return entry.value;
  }
  return E::kUnknown;
}

// The column slot that reads a source's rowid.
constexpr int kRowid = -1;

// One table instance a statement reads: the FROM table, each join, or the
// target of an UPDATE or DELETE.
struct Source {
  std::string alias;  // lower-cased
  const TableInfo* table = nullptr;
};

// A parsed expression bound to its statement's sources before any row is
// read: a column reference holds its source and column, an operator or a
// function its enum, so evaluating a row looks up no name and compares no
// string.
struct BoundExpr {
  const Expr* expr = nullptr;  // the parsed node: literal, names, messages
  Op op = Op::kUnknown;        // unary and binary nodes
  Fn fn = Fn::kUnknown;        // function nodes
  // Column references: the source's position (-1 when no source has the
  // name, which fails only when evaluated) and the column or kRowid.
  int source = -1;
  int column = kRowid;
  int agg = -1;  // aggregate nodes: slot among the statement's aggregates
  std::vector<BoundExpr> kids;  // lhs, rhs and args, in that order
};

// Binds a column reference by the name rules: an unqualified name is the
// first source that has it, a qualified one the first source with that
// alias; `rowid` reads that source's rowid, and so does a column aliasing it.
void BindColumn(const Expr& e, const std::vector<Source>& sources,
                BoundExpr* b) {
  const std::string want = Lower(e.table);
  for (size_t i = 0; i < sources.size(); ++i) {
    const Source& src = sources[i];
    if (!want.empty() && src.alias != want) continue;
    if (NameEq(e.column, "rowid")) {
      b->source = int(i);
      return;
    }
    int idx = src.table->ColumnIndex(e.column);
    if (idx >= 0) {
      b->source = int(i);
      b->column = idx == src.table->rowid_alias ? kRowid : idx;
      return;
    }
    if (!want.empty()) return;
  }
}

BoundExpr Bind(const Expr& e, const std::vector<Source>& sources) {
  BoundExpr b;
  b.expr = &e;
  switch (e.kind) {
    case Expr::Kind::kColumn:
      BindColumn(e, sources, &b);
      break;
    case Expr::Kind::kUnary:
      b.op = Lookup(kUnaryOps, e.op);
      break;
    case Expr::Kind::kBinary:
      b.op = Lookup(kBinaryOps, e.op);
      break;
    case Expr::Kind::kFunction:
      b.fn = Lookup(kFunctions, e.func);
      break;
    default:
      break;
  }
  if (e.lhs != nullptr) b.kids.push_back(Bind(*e.lhs, sources));
  if (e.rhs != nullptr) b.kids.push_back(Bind(*e.rhs, sources));
  for (const auto& a : e.args) b.kids.push_back(Bind(*a, sources));
  return b;
}

// True when every column `b` reads is bound to one of the first `n` sources.
bool ReadsOnlyFirst(const BoundExpr& b, int n) {
  if (b.expr->kind == Expr::Kind::kColumn && (b.source < 0 || b.source >= n)) {
    return false;
  }
  for (const BoundExpr& kid : b.kids) {
    if (!ReadsOnlyFirst(kid, n)) return false;
  }
  return true;
}

// The row of each source bound so far, in source order: a prefix of the
// statement's sources.
struct RowEntry {
  const Row* row = nullptr;
  int64_t rowid = 0;
};
using RowContext = std::vector<RowEntry>;

// A conjunct `column = value` that may bind a column of one source, given
// rows of the sources before it.
struct Candidate {
  size_t conjunct;         // position in the conjunct list
  int column;              // column position or kRowid
  const BoundExpr* value;  // reads only the sources before this one
};

// SQL LIKE with % and _, ASCII case-insensitive.
bool LikeMatch(const std::string& pattern, const std::string& text,
               size_t pi = 0, size_t ti = 0) {
  while (pi < pattern.size()) {
    char p = pattern[pi];
    if (p == '%') {
      for (size_t skip = ti; skip <= text.size(); ++skip) {
        if (LikeMatch(pattern, text, pi + 1, skip)) return true;
      }
      return false;
    }
    if (ti >= text.size()) return false;
    if (p != '_' && std::tolower(p) != std::tolower(text[ti])) return false;
    pi++;
    ti++;
  }
  return ti == text.size();
}

class Executor {
 public:
  Executor(Pager* pager, Schema* schema) : pager_(pager), schema_(schema) {}

  StatusOr<ResultSet> Run(const Statement& stmt) {
    auto annotate = [this](StatusOr<ResultSet> r) {
      if (r.ok()) r.value().rows_scanned = rows_scanned_;
      return r;
    };
    if (const auto* s = std::get_if<CreateTableStmt>(&stmt)) {
      XFTL_RETURN_IF_ERROR(schema_->CreateTable(*s));
      return ResultSet{};
    }
    if (const auto* s = std::get_if<CreateIndexStmt>(&stmt)) {
      XFTL_RETURN_IF_ERROR(schema_->CreateIndex(*s));
      return ResultSet{};
    }
    if (const auto* s = std::get_if<DropStmt>(&stmt)) return RunDrop(*s);
    if (const auto* s = std::get_if<InsertStmt>(&stmt)) return RunInsert(*s);
    if (const auto* s = std::get_if<SelectStmt>(&stmt)) {
      return annotate(RunSelect(*s));
    }
    if (const auto* s = std::get_if<UpdateStmt>(&stmt)) {
      return annotate(RunUpdate(*s));
    }
    if (const auto* s = std::get_if<DeleteStmt>(&stmt)) {
      return annotate(RunDelete(*s));
    }
    return Status::InvalidArgument("statement not executable here");
  }

 private:
  // Aggregate accumulator (single group).
  struct Agg {
    uint64_t count = 0;
    double sum = 0;
    bool sum_is_int = true;
    int64_t isum = 0;
    Value min, max;
    std::set<std::string> distinct;
  };

  // --- expression evaluation ------------------------------------------------

  StatusOr<Value> Eval(const BoundExpr& b, const RowContext& ctx) {
    switch (b.expr->kind) {
      case Expr::Kind::kLiteral:
        return b.expr->literal;
      case Expr::Kind::kColumn:
        return ColumnValue(b, ctx);
      case Expr::Kind::kUnary:
        return EvalUnary(b, ctx);
      case Expr::Kind::kBinary:
        return EvalBinary(b, ctx);
      case Expr::Kind::kFunction:
        if (agg_values_ != nullptr && b.agg >= 0) return (*agg_values_)[b.agg];
        return EvalScalarFunction(b, ctx);
      case Expr::Kind::kStar:
        return Status::InvalidArgument("'*' not valid in this context");
    }
    return Status::InvalidArgument("bad expression");
  }

  // A reference fails when its source has no row yet, which is also how an
  // unresolved name fails.
  static StatusOr<Value> ColumnValue(const BoundExpr& b,
                                     const RowContext& ctx) {
    if (b.source < 0 || b.source >= int(ctx.size())) {
      const Expr& e = *b.expr;
      return Status::NotFound(
          "no such column: " +
          (e.table.empty() ? e.column : e.table + "." + e.column));
    }
    const RowEntry& entry = ctx[b.source];
    if (b.column == kRowid) return Value::Int(entry.rowid);
    if (b.column < int(entry.row->size())) return (*entry.row)[b.column];
    return Value::Null();
  }

  StatusOr<Value> EvalUnary(const BoundExpr& b, const RowContext& ctx) {
    XFTL_ASSIGN_OR_RETURN(Value v, Eval(b.kids[0], ctx));
    switch (b.op) {
      case Op::kNeg:
        if (v.type() == ValueType::kInt) return Value::Int(-v.AsInt());
        return Value::Real(-v.AsReal());
      case Op::kNot:
        return Value::Int(v.Truthy() ? 0 : 1);
      case Op::kIsNull:
        return Value::Int(v.is_null() ? 1 : 0);
      case Op::kIsNotNull:
        return Value::Int(v.is_null() ? 0 : 1);
      default:
        return Status::InvalidArgument("bad unary operator " + b.expr->op);
    }
  }

  StatusOr<Value> EvalBinary(const BoundExpr& b, const RowContext& ctx) {
    if (b.op == Op::kAnd || b.op == Op::kOr) {
      // AND stops at a false left side, OR at a true one.
      const bool is_or = b.op == Op::kOr;
      XFTL_ASSIGN_OR_RETURN(Value l, Eval(b.kids[0], ctx));
      if (l.Truthy() == is_or) return Value::Int(is_or ? 1 : 0);
      XFTL_ASSIGN_OR_RETURN(Value r, Eval(b.kids[1], ctx));
      return Value::Int(r.Truthy() ? 1 : 0);
    }
    XFTL_ASSIGN_OR_RETURN(Value l, Eval(b.kids[0], ctx));
    XFTL_ASSIGN_OR_RETURN(Value r, Eval(b.kids[1], ctx));
    switch (b.op) {
      case Op::kEq:
      case Op::kNe:
      case Op::kLt:
      case Op::kLe:
      case Op::kGt:
      case Op::kGe: {
        if (l.is_null() || r.is_null()) return Value::Null();
        const int c = l.Compare(r);
        const bool result = (b.op == Op::kEq && c == 0) ||
                            (b.op == Op::kNe && c != 0) ||
                            (b.op == Op::kLt && c < 0) ||
                            (b.op == Op::kLe && c <= 0) ||
                            (b.op == Op::kGt && c > 0) ||
                            (b.op == Op::kGe && c >= 0);
        return Value::Int(result ? 1 : 0);
      }
      case Op::kLike:
        if (l.is_null() || r.is_null()) return Value::Null();
        return Value::Int(LikeMatch(r.AsText(), l.AsText()) ? 1 : 0);
      case Op::kConcat:
        if (l.is_null() || r.is_null()) return Value::Null();
        return Value::Text(l.AsText() + r.AsText());
      default:
        break;
    }
    if (l.is_null() || r.is_null()) return Value::Null();
    bool ints =
        l.type() == ValueType::kInt && r.type() == ValueType::kInt;
    switch (b.op) {
      case Op::kAdd:
        return ints ? Value::Int(l.AsInt() + r.AsInt())
                    : Value::Real(l.AsReal() + r.AsReal());
      case Op::kSub:
        return ints ? Value::Int(l.AsInt() - r.AsInt())
                    : Value::Real(l.AsReal() - r.AsReal());
      case Op::kMul:
        return ints ? Value::Int(l.AsInt() * r.AsInt())
                    : Value::Real(l.AsReal() * r.AsReal());
      case Op::kDiv:
        if (ints) {
          if (r.AsInt() == 0) return Value::Null();
          return Value::Int(l.AsInt() / r.AsInt());
        }
        if (r.AsReal() == 0.0) return Value::Null();
        return Value::Real(l.AsReal() / r.AsReal());
      case Op::kMod:
        if (r.AsInt() == 0) return Value::Null();
        return Value::Int(l.AsInt() % r.AsInt());
      default:
        return Status::InvalidArgument("bad binary operator " + b.expr->op);
    }
  }

  StatusOr<Value> EvalScalarFunction(const BoundExpr& b,
                                     const RowContext& ctx) {
    const std::string& func = b.expr->func;
    auto arg = [&](size_t i) -> StatusOr<Value> {
      if (i >= b.kids.size()) {
        return Status::InvalidArgument(func + ": missing argument");
      }
      return Eval(b.kids[i], ctx);
    };
    switch (b.fn) {
      case Fn::kLength: {
        XFTL_ASSIGN_OR_RETURN(Value v, arg(0));
        if (v.is_null()) return Value::Null();
        if (v.type() == ValueType::kBlob) return Value::Int(v.blob().size());
        return Value::Int(int64_t(v.AsText().size()));
      }
      case Fn::kAbs: {
        XFTL_ASSIGN_OR_RETURN(Value v, arg(0));
        if (v.is_null()) return Value::Null();
        if (v.type() == ValueType::kInt) return Value::Int(std::abs(v.AsInt()));
        return Value::Real(std::abs(v.AsReal()));
      }
      case Fn::kUpper:
      case Fn::kLower: {
        XFTL_ASSIGN_OR_RETURN(Value v, arg(0));
        if (v.is_null()) return Value::Null();
        std::string s = v.AsText();
        for (char& c : s) {
          c = b.fn == Fn::kUpper ? char(std::toupper(c)) : char(std::tolower(c));
        }
        return Value::Text(std::move(s));
      }
      case Fn::kCoalesce:
      case Fn::kIfNull:
        for (const BoundExpr& a : b.kids) {
          XFTL_ASSIGN_OR_RETURN(Value v, Eval(a, ctx));
          if (!v.is_null()) return v;
        }
        return Value::Null();
      case Fn::kSubstr: {
        XFTL_ASSIGN_OR_RETURN(Value v, arg(0));
        XFTL_ASSIGN_OR_RETURN(Value from, arg(1));
        if (v.is_null()) return Value::Null();
        std::string s = v.AsText();
        int64_t start = std::max<int64_t>(1, from.AsInt()) - 1;
        int64_t len = int64_t(s.size()) - start;
        if (b.kids.size() > 2) {
          XFTL_ASSIGN_OR_RETURN(Value lv, arg(2));
          len = lv.AsInt();
        }
        if (start >= int64_t(s.size()) || len <= 0) return Value::Text("");
        return Value::Text(s.substr(size_t(start), size_t(len)));
      }
      case Fn::kMin:
      case Fn::kMax:
        // Scalar form with 2+ args (the 1-arg form is an aggregate).
        if (b.kids.size() >= 2) {
          XFTL_ASSIGN_OR_RETURN(Value best, arg(0));
          for (size_t i = 1; i < b.kids.size(); ++i) {
            XFTL_ASSIGN_OR_RETURN(Value v, arg(i));
            int c = v.Compare(best);
            if ((b.fn == Fn::kMin && c < 0) || (b.fn == Fn::kMax && c > 0)) {
              best = v;
            }
          }
          return best;
        }
        break;
      default:
        break;
    }
    return Status::InvalidArgument("unknown function " + func);
  }

  static bool IsAggregate(const BoundExpr& b) {
    if (b.expr->kind != Expr::Kind::kFunction) return false;
    switch (b.fn) {
      case Fn::kCount:
      case Fn::kSum:
      case Fn::kAvg:
      case Fn::kTotal:
        return true;
      case Fn::kMin:
      case Fn::kMax:
        return b.kids.size() == 1;
      default:
        return false;
    }
  }

  static bool ContainsAggregate(const BoundExpr& b) {
    if (IsAggregate(b)) return true;
    for (const BoundExpr& kid : b.kids) {
      if (ContainsAggregate(kid)) return true;
    }
    return false;
  }

  // Gathers the aggregate nodes of an expression tree and numbers them (not
  // descending into aggregate arguments: COUNT(SUM(x)) is not supported, as
  // in SQLite).
  static void CollectAggregates(BoundExpr* b, std::vector<BoundExpr*>* out) {
    if (IsAggregate(*b)) {
      b->agg = int(out->size());
      out->push_back(b);
      return;
    }
    for (BoundExpr& kid : b->kids) CollectAggregates(&kid, out);
  }

  // --- access paths -----------------------------------------------------------

  // Flattens the AND tree into conjuncts.
  static void Conjuncts(const BoundExpr* b,
                        std::vector<const BoundExpr*>* out) {
    if (b == nullptr) return;
    if (b->expr->kind == Expr::Kind::kBinary && b->op == Op::kAnd) {
      Conjuncts(&b->kids[0], out);
      Conjuncts(&b->kids[1], out);
      return;
    }
    out->push_back(b);
  }

  // The conjuncts `column = value` that can bind a column of the source at
  // `level`: the column is bound to that source, and the value reads only
  // the sources before it. Both sides of a conjunct are tried, left first.
  static std::vector<Candidate> BindingCandidates(
      const std::vector<const BoundExpr*>& conjuncts, int level) {
    std::vector<Candidate> out;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      const BoundExpr* e = conjuncts[i];
      if (e->expr->kind != Expr::Kind::kBinary || e->op != Op::kEq) continue;
      for (int side = 0; side < 2; ++side) {
        const BoundExpr& col = e->kids[side];
        const BoundExpr& val = e->kids[1 - side];
        if (col.expr->kind != Expr::Kind::kColumn || col.source != level ||
            !ReadsOnlyFirst(val, level)) {
          continue;
        }
        out.push_back({i, col.column, &val});
      }
    }
    return out;
  }

  // Evaluates the candidates against the outer rows: per conjunct the first
  // value that evaluates binds its column, and a later conjunct binding the
  // same column wins.
  std::map<int, Value> EqualityBindings(const std::vector<Candidate>& cands,
                                        const RowContext& outer_ctx) {
    std::map<int, Value> out;
    const Candidate* bound = nullptr;
    for (const Candidate& c : cands) {
      if (bound != nullptr && bound->conjunct == c.conjunct) continue;
      auto v = Eval(*c.value, outer_ctx);
      if (!v.ok()) continue;
      out[c.column] = std::move(v).value();
      bound = &c;
    }
    return out;
  }

  // Streams rows of `table` matching the given equality bindings, choosing
  // rowid lookup, index prefix scan, or full scan. `fn` returns false to
  // stop early.
  Status ScanTable(const TableInfo& table, const std::map<int, Value>& eqs,
                   const std::function<StatusOr<bool>(int64_t, const Row&)>& fn) {
    BTree data(pager_, table.root, /*is_index=*/false);

    auto emit_rowid = [&](int64_t rowid) -> StatusOr<bool> {
      auto cursor = data.NewCursor();
      XFTL_RETURN_IF_ERROR(cursor.SeekGE(rowid));
      if (!cursor.valid() || cursor.rowid() != rowid) return true;
      XFTL_ASSIGN_OR_RETURN(auto payload, cursor.Payload());
      XFTL_ASSIGN_OR_RETURN(Row row, DecodeRecord(payload));
      rows_scanned_++;
      return fn(rowid, row);
    };

    // Direct rowid lookup.
    auto rowid_it = eqs.find(kRowid);
    if (rowid_it != eqs.end()) {
      if (rowid_it->second.is_null()) return Status::OK();
      XFTL_ASSIGN_OR_RETURN(bool keep, emit_rowid(rowid_it->second.AsInt()));
      (void)keep;
      return Status::OK();
    }

    // Longest-prefix index match.
    const IndexInfo* best = nullptr;
    size_t best_len = 0;
    for (const IndexInfo* idx : table.indexes) {
      size_t len = 0;
      for (int col : idx->columns) {
        if (eqs.count(col) == 0) break;
        len++;
      }
      if (len > best_len) {
        best_len = len;
        best = idx;
      }
    }
    if (best != nullptr && best_len > 0) {
      Row prefix;
      for (size_t i = 0; i < best_len; ++i) {
        prefix.push_back(eqs.at(best->columns[i]));
      }
      std::vector<uint8_t> key = EncodeRecord(prefix);
      BTree index(pager_, best->root, /*is_index=*/true);
      auto cursor = index.NewCursor();
      XFTL_RETURN_IF_ERROR(cursor.SeekGEKey(key));
      while (cursor.valid()) {
        XFTL_ASSIGN_OR_RETURN(auto key_bytes, cursor.Payload());
        XFTL_ASSIGN_OR_RETURN(Row entry, DecodeRecord(key_bytes));
        // Stop once the prefix no longer matches.
        bool match = entry.size() > best_len;
        for (size_t i = 0; match && i < best_len; ++i) {
          match = entry[i].Compare(prefix[i]) == 0;
        }
        if (!match) break;
        int64_t rowid = entry.back().AsInt();
        XFTL_ASSIGN_OR_RETURN(bool keep, emit_rowid(rowid));
        if (!keep) return Status::OK();
        XFTL_RETURN_IF_ERROR(cursor.Next());
      }
      return Status::OK();
    }

    // Full scan.
    auto cursor = data.NewCursor();
    XFTL_RETURN_IF_ERROR(cursor.First());
    while (cursor.valid()) {
      XFTL_ASSIGN_OR_RETURN(auto payload, cursor.Payload());
      XFTL_ASSIGN_OR_RETURN(Row row, DecodeRecord(payload));
      rows_scanned_++;
      XFTL_ASSIGN_OR_RETURN(bool keep, fn(cursor.rowid(), row));
      if (!keep) return Status::OK();
      XFTL_RETURN_IF_ERROR(cursor.Next());
    }
    return Status::OK();
  }

  // --- index maintenance -------------------------------------------------------

  std::vector<uint8_t> MakeIndexKey(const IndexInfo& idx, const Row& row,
                                    int64_t rowid, const TableInfo& table) {
    Row key;
    for (int col : idx.columns) {
      if (col == table.rowid_alias) {
        key.push_back(Value::Int(rowid));
      } else {
        key.push_back(col < int(row.size()) ? row[col] : Value::Null());
      }
    }
    key.push_back(Value::Int(rowid));
    return EncodeRecord(key);
  }

  Status IndexesInsert(const TableInfo& table, const Row& row, int64_t rowid) {
    for (const IndexInfo* idx : table.indexes) {
      BTree tree(pager_, idx->root, /*is_index=*/true);
      XFTL_RETURN_IF_ERROR(tree.InsertKey(MakeIndexKey(*idx, row, rowid, table)));
    }
    return Status::OK();
  }

  Status IndexesDelete(const TableInfo& table, const Row& row, int64_t rowid) {
    for (const IndexInfo* idx : table.indexes) {
      BTree tree(pager_, idx->root, /*is_index=*/true);
      Status s = tree.DeleteKey(MakeIndexKey(*idx, row, rowid, table));
      if (!s.ok() && !s.IsNotFound()) return s;
    }
    return Status::OK();
  }

  // --- statements ----------------------------------------------------------------

  StatusOr<ResultSet> RunDrop(const DropStmt& stmt) {
    Status s = stmt.is_index ? schema_->DropIndex(stmt.name)
                             : schema_->DropTable(stmt.name);
    if (s.IsNotFound() && stmt.if_exists) return ResultSet{};
    XFTL_RETURN_IF_ERROR(s);
    return ResultSet{};
  }

  StatusOr<ResultSet> RunInsert(const InsertStmt& stmt) {
    const TableInfo* table = schema_->FindTable(stmt.table);
    if (table == nullptr) return Status::NotFound("table " + stmt.table);
    // Column positions targeted by the VALUES lists.
    std::vector<int> positions;
    if (stmt.columns.empty()) {
      for (size_t i = 0; i < table->columns.size(); ++i) {
        positions.push_back(int(i));
      }
    } else {
      for (const std::string& col : stmt.columns) {
        int idx = table->ColumnIndex(col);
        if (idx < 0) return Status::NotFound("column " + col);
        positions.push_back(idx);
      }
    }

    BTree data(pager_, table->root, /*is_index=*/false);
    ResultSet result;
    const RowContext empty;
    for (const auto& exprs : stmt.rows) {
      if (exprs.size() != positions.size()) {
        return Status::InvalidArgument("values count mismatch");
      }
      Row row(table->columns.size(), Value::Null());
      for (size_t i = 0; i < exprs.size(); ++i) {
        XFTL_ASSIGN_OR_RETURN(row[positions[i]],
                              Eval(Bind(*exprs[i], {}), empty));
      }
      int64_t rowid;
      if (table->rowid_alias >= 0 && !row[table->rowid_alias].is_null()) {
        rowid = row[table->rowid_alias].AsInt();
        auto cursor = data.NewCursor();
        XFTL_RETURN_IF_ERROR(cursor.SeekGE(rowid));
        if (cursor.valid() && cursor.rowid() == rowid) {
          return Status::AlreadyExists("UNIQUE constraint failed: " +
                                       table->name);
        }
      } else {
        XFTL_ASSIGN_OR_RETURN(int64_t max, data.MaxRowid());
        rowid = max + 1;
        if (table->rowid_alias >= 0) {
          row[table->rowid_alias] = Value::Int(rowid);
        }
      }
      XFTL_RETURN_IF_ERROR(data.Insert(rowid, EncodeRecord(row)));
      XFTL_RETURN_IF_ERROR(IndexesInsert(*table, row, rowid));
      result.rows_affected++;
    }
    return result;
  }

  StatusOr<ResultSet> RunSelect(const SelectStmt& stmt) {
    // Source list: FROM table plus joins.
    std::vector<Source> sources;
    if (stmt.from.has_value()) {
      const TableInfo* t = schema_->FindTable(stmt.from->name);
      if (t == nullptr) return Status::NotFound("table " + stmt.from->name);
      sources.push_back({Lower(stmt.from->alias), t});
    }
    for (const JoinClause& join : stmt.joins) {
      const TableInfo* t = schema_->FindTable(join.table.name);
      if (t == nullptr) return Status::NotFound("table " + join.table.name);
      sources.push_back({Lower(join.table.alias), t});
    }

    // Bind every expression once; rows only evaluate them.
    std::optional<BoundExpr> where;
    if (stmt.where != nullptr) where = Bind(*stmt.where, sources);
    std::vector<BoundExpr> ons;
    for (const JoinClause& join : stmt.joins) {
      if (join.on != nullptr) ons.push_back(Bind(*join.on, sources));
    }
    std::vector<BoundExpr> items;
    for (const SelectItem& item : stmt.items) {
      items.push_back(Bind(*item.expr, sources));
    }
    std::optional<BoundExpr> having;
    if (stmt.having != nullptr) having = Bind(*stmt.having, sources);
    std::vector<BoundExpr> group_by;
    for (const ExprPtr& g : stmt.group_by) group_by.push_back(Bind(*g, sources));
    std::vector<BoundExpr> order_by;
    for (const OrderTerm& term : stmt.order_by) {
      order_by.push_back(Bind(*term.expr, sources));
    }

    // Per source, the conjuncts that may bind its columns from outer rows.
    std::vector<const BoundExpr*> conjuncts;
    Conjuncts(where.has_value() ? &*where : nullptr, &conjuncts);
    for (const BoundExpr& on : ons) Conjuncts(&on, &conjuncts);
    std::vector<std::vector<Candidate>> candidates;
    for (size_t level = 0; level < sources.size(); ++level) {
      candidates.push_back(BindingCandidates(conjuncts, int(level)));
    }

    // Projection expansion.
    bool aggregate = !stmt.group_by.empty();
    for (const BoundExpr& item : items) {
      if (ContainsAggregate(item)) aggregate = true;
    }
    if (having.has_value() && ContainsAggregate(*having)) aggregate = true;
    std::vector<BoundExpr> projections;
    std::vector<std::string> col_names;
    std::vector<ExprPtr> expanded;  // owns synthesized column exprs
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& item = stmt.items[i];
      if (item.expr->kind == Expr::Kind::kStar && !aggregate) {
        std::string want = Lower(item.expr->table);
        for (const Source& src : sources) {
          if (!want.empty() && src.alias != want) continue;
          for (const ColumnDef& col : src.table->columns) {
            auto e = std::make_unique<Expr>();
            e->kind = Expr::Kind::kColumn;
            e->table = src.alias;
            e->column = col.name;
            projections.push_back(Bind(*e, sources));
            expanded.push_back(std::move(e));
            col_names.push_back(col.name);
          }
        }
      } else {
        projections.push_back(std::move(items[i]));
        col_names.push_back(!item.alias.empty() ? item.alias
                            : item.expr->kind == Expr::Kind::kColumn
                                ? item.expr->column
                                : "expr");
      }
    }

    ResultSet result;
    result.columns = col_names;

    // All aggregate nodes appearing anywhere in the statement.
    std::vector<BoundExpr*> agg_nodes;
    if (aggregate) {
      for (BoundExpr& p : projections) CollectAggregates(&p, &agg_nodes);
      if (having.has_value()) CollectAggregates(&*having, &agg_nodes);
      for (BoundExpr& term : order_by) CollectAggregates(&term, &agg_nodes);
    }

    // Per-group state: accumulators plus a deep copy of a representative
    // row context for evaluating non-aggregate expressions.
    struct GroupState {
      std::vector<Row> rep_rows;
      std::vector<int64_t> rep_rowids;
      std::vector<Agg> aggs;
    };
    std::map<std::string, GroupState> groups;  // key = encoded GROUP BY tuple

    // Order keys computed while the row context is live.
    std::vector<std::pair<Row, Row>> ordered;  // (order keys, projected row)

    std::function<Status(size_t, RowContext&)> descend =
        [&](size_t level, RowContext& ctx) -> Status {
      if (level == sources.size()) {
        if (where.has_value()) {
          XFTL_ASSIGN_OR_RETURN(Value cond, Eval(*where, ctx));
          if (!cond.Truthy()) return Status::OK();
        }
        for (const BoundExpr& on : ons) {
          XFTL_ASSIGN_OR_RETURN(Value cond, Eval(on, ctx));
          if (!cond.Truthy()) return Status::OK();
        }
        if (aggregate) {
          Row key_tuple;
          for (const BoundExpr& g : group_by) {
            XFTL_ASSIGN_OR_RETURN(Value v, Eval(g, ctx));
            key_tuple.push_back(std::move(v));
          }
          auto key_bytes = EncodeRecord(key_tuple);
          std::string key(key_bytes.begin(), key_bytes.end());
          GroupState& g = groups[key];
          if (g.aggs.empty()) {
            g.aggs.resize(agg_nodes.size());
            for (const RowEntry& entry : ctx) {
              g.rep_rows.push_back(*entry.row);
              g.rep_rowids.push_back(entry.rowid);
            }
          }
          for (size_t i = 0; i < agg_nodes.size(); ++i) {
            XFTL_RETURN_IF_ERROR(Accumulate(*agg_nodes[i], ctx, &g.aggs[i]));
          }
          return Status::OK();
        }
        Row out;
        for (const BoundExpr& p : projections) {
          XFTL_ASSIGN_OR_RETURN(Value v, Eval(p, ctx));
          out.push_back(std::move(v));
        }
        Row keys;
        for (const BoundExpr& term : order_by) {
          XFTL_ASSIGN_OR_RETURN(Value v, Eval(term, ctx));
          keys.push_back(std::move(v));
        }
        ordered.emplace_back(std::move(keys), std::move(out));
        return Status::OK();
      }
      const std::map<int, Value> eqs =
          EqualityBindings(candidates[level], ctx);
      return ScanTable(*sources[level].table, eqs,
                       [&](int64_t rowid, const Row& row) -> StatusOr<bool> {
                         ctx.push_back({&row, rowid});
                         Status s = descend(level + 1, ctx);
                         ctx.pop_back();
                         if (!s.ok()) return s;
                         return true;
                       });
    };

    RowContext ctx;
    if (sources.empty()) {
      // SELECT without FROM evaluates the items once.
      Row out;
      for (const BoundExpr& p : projections) {
        XFTL_ASSIGN_OR_RETURN(Value v, Eval(p, ctx));
        out.push_back(std::move(v));
      }
      result.rows.push_back(std::move(out));
      return result;
    }
    XFTL_RETURN_IF_ERROR(descend(0, ctx));

    if (aggregate) {
      // An ungrouped aggregate over zero rows still yields one row.
      if (groups.empty() && stmt.group_by.empty()) {
        GroupState& g = groups[""];
        g.aggs.resize(agg_nodes.size());
      }
      for (auto& [key, g] : groups) {
        // Rebuild a representative context for non-aggregate expressions.
        RowContext rep_ctx;
        for (size_t i = 0; i < g.rep_rows.size() && i < sources.size(); ++i) {
          rep_ctx.push_back({&g.rep_rows[i], g.rep_rowids[i]});
        }
        std::vector<Value> finals;
        for (size_t i = 0; i < agg_nodes.size(); ++i) {
          XFTL_ASSIGN_OR_RETURN(Value v, Finalize(*agg_nodes[i], g.aggs[i]));
          finals.push_back(std::move(v));
        }
        agg_values_ = &finals;
        auto cleanup = [this](Status s) {
          agg_values_ = nullptr;
          return s;
        };
        if (having.has_value()) {
          auto cond = Eval(*having, rep_ctx);
          if (!cond.ok()) return cleanup(cond.status());
          if (!cond.value().Truthy()) {
            agg_values_ = nullptr;
            continue;
          }
        }
        Row out;
        for (const BoundExpr& p : projections) {
          auto v = Eval(p, rep_ctx);
          if (!v.ok()) return cleanup(v.status());
          out.push_back(std::move(v).value());
        }
        Row keys;
        for (const BoundExpr& term : order_by) {
          auto v = Eval(term, rep_ctx);
          if (!v.ok()) return cleanup(v.status());
          keys.push_back(std::move(v).value());
        }
        agg_values_ = nullptr;
        ordered.emplace_back(std::move(keys), std::move(out));
      }
    }

    if (!stmt.order_by.empty()) {
      std::stable_sort(ordered.begin(), ordered.end(),
                       [&](const auto& a, const auto& b) {
                         for (size_t i = 0; i < stmt.order_by.size(); ++i) {
                           int c = a.first[i].Compare(b.first[i]);
                           if (c != 0) {
                             return stmt.order_by[i].descending ? c > 0 : c < 0;
                           }
                         }
                         return false;
                       });
    }
    for (auto& [keys, row] : ordered) {
      if (stmt.limit >= 0 && int64_t(result.rows.size()) >= stmt.limit) break;
      result.rows.push_back(std::move(row));
    }
    return result;
  }

  Status Accumulate(const BoundExpr& b, const RowContext& ctx, Agg* agg) {
    CHECK(IsAggregate(b)) << "non-aggregate projection in aggregate query";
    if (b.fn == Fn::kCount &&
        (b.kids.empty() || b.kids[0].expr->kind == Expr::Kind::kStar)) {
      agg->count++;
      return Status::OK();
    }
    XFTL_ASSIGN_OR_RETURN(Value v, Eval(b.kids[0], ctx));
    if (v.is_null()) return Status::OK();
    if (b.expr->distinct) {
      std::string key = v.AsText() + "#" + std::to_string(int(v.type()));
      if (!agg->distinct.insert(key).second) return Status::OK();
    }
    agg->count++;
    if (v.type() != ValueType::kInt) agg->sum_is_int = false;
    agg->isum += v.AsInt();
    agg->sum += v.AsReal();
    if (agg->count == 1) {
      agg->min = v;
      agg->max = v;
    } else {
      if (v.Compare(agg->min) < 0) agg->min = v;
      if (v.Compare(agg->max) > 0) agg->max = v;
    }
    return Status::OK();
  }

  StatusOr<Value> Finalize(const BoundExpr& b, const Agg& agg) {
    switch (b.fn) {
      case Fn::kCount:
        return Value::Int(int64_t(agg.count));
      case Fn::kSum:
        if (agg.count == 0) return Value::Null();
        return agg.sum_is_int ? Value::Int(agg.isum) : Value::Real(agg.sum);
      case Fn::kTotal:
        return Value::Real(agg.sum);
      case Fn::kAvg:
        if (agg.count == 0) return Value::Null();
        return Value::Real(agg.sum / double(agg.count));
      case Fn::kMin:
        return agg.count == 0 ? Value::Null() : agg.min;
      case Fn::kMax:
        return agg.count == 0 ? Value::Null() : agg.max;
      default:
        return Status::InvalidArgument("unknown aggregate " + b.expr->func);
    }
  }

  StatusOr<ResultSet> RunUpdate(const UpdateStmt& stmt) {
    const TableInfo* table = schema_->FindTable(stmt.table);
    if (table == nullptr) return Status::NotFound("table " + stmt.table);
    const std::vector<Source> sources = {{Lower(table->name), table}};
    std::vector<std::pair<int, BoundExpr>> sets;
    for (const auto& [col, expr] : stmt.sets) {
      int idx = table->ColumnIndex(col);
      if (idx < 0) return Status::NotFound("column " + col);
      sets.emplace_back(idx, Bind(*expr, sources));
    }
    XFTL_ASSIGN_OR_RETURN(auto matches, Materialize(sources, stmt.where.get()));

    BTree data(pager_, table->root, /*is_index=*/false);
    ResultSet result;
    RowContext ctx(1);
    for (auto& [rowid, row] : matches) {
      ctx[0] = {&row, rowid};
      Row updated = row;
      for (const auto& [idx, expr] : sets) {
        XFTL_ASSIGN_OR_RETURN(updated[idx], Eval(expr, ctx));
      }
      int64_t new_rowid = rowid;
      if (table->rowid_alias >= 0) {
        new_rowid = updated[table->rowid_alias].AsInt();
      }
      XFTL_RETURN_IF_ERROR(IndexesDelete(*table, row, rowid));
      if (new_rowid != rowid) {
        XFTL_RETURN_IF_ERROR(data.Delete(rowid));
      }
      XFTL_RETURN_IF_ERROR(data.Insert(new_rowid, EncodeRecord(updated)));
      XFTL_RETURN_IF_ERROR(IndexesInsert(*table, updated, new_rowid));
      result.rows_affected++;
    }
    return result;
  }

  StatusOr<ResultSet> RunDelete(const DeleteStmt& stmt) {
    const TableInfo* table = schema_->FindTable(stmt.table);
    if (table == nullptr) return Status::NotFound("table " + stmt.table);
    XFTL_ASSIGN_OR_RETURN(
        auto matches,
        Materialize({{Lower(table->name), table}}, stmt.where.get()));
    BTree data(pager_, table->root, /*is_index=*/false);
    ResultSet result;
    for (auto& [rowid, row] : matches) {
      XFTL_RETURN_IF_ERROR(IndexesDelete(*table, row, rowid));
      XFTL_RETURN_IF_ERROR(data.Delete(rowid));
      result.rows_affected++;
    }
    return result;
  }

  // Collects (rowid, row) pairs of the one source matching `where`
  // (modification-safe).
  StatusOr<std::vector<std::pair<int64_t, Row>>> Materialize(
      const std::vector<Source>& sources, const Expr* where) {
    std::optional<BoundExpr> cond;
    if (where != nullptr) cond = Bind(*where, sources);
    std::vector<const BoundExpr*> conjuncts;
    Conjuncts(cond.has_value() ? &*cond : nullptr, &conjuncts);
    const std::map<int, Value> eqs =
        EqualityBindings(BindingCandidates(conjuncts, 0), RowContext());
    std::vector<std::pair<int64_t, Row>> out;
    RowContext ctx(1);
    XFTL_RETURN_IF_ERROR(ScanTable(
        *sources[0].table, eqs,
        [&](int64_t rowid, const Row& row) -> StatusOr<bool> {
          if (cond.has_value()) {
            ctx[0] = {&row, rowid};
            XFTL_ASSIGN_OR_RETURN(Value v, Eval(*cond, ctx));
            if (!v.Truthy()) return true;
          }
          out.emplace_back(rowid, row);
          return true;
        }));
    return out;
  }

  Pager* const pager_;
  Schema* const schema_;
  uint64_t rows_scanned_ = 0;
  // When set (during grouped finalization), aggregate nodes evaluate to
  // their finalized per-group values (by BoundExpr::agg) instead of being
  // re-computed.
  const std::vector<Value>* agg_values_ = nullptr;
};

}  // namespace

StatusOr<ResultSet> ExecuteStatement(Pager* pager, Schema* schema,
                                     const Statement& stmt) {
  Executor executor(pager, schema);
  return executor.Run(stmt);
}

}  // namespace xftl::sql
