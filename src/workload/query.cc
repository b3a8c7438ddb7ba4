#include "workload/query.h"

#include <cmath>
#include <sstream>

#include "scan/block_scan.h"
#include "util/check.h"

namespace arecel {

namespace {

void AppendPredicate(std::ostringstream& out, const std::string& col,
                     const Predicate& p) {
  if (p.is_equality()) {
    out << col << " = " << p.lo;
  } else if (std::isinf(p.lo)) {
    out << col << " <= " << p.hi;
  } else if (std::isinf(p.hi)) {
    out << col << " >= " << p.lo;
  } else {
    out << p.lo << " <= " << col << " <= " << p.hi;
  }
}

}  // namespace

bool Query::IsSatisfiable() const {
  for (const Predicate& p : predicates) {
    if (p.lo > p.hi) return false;
  }
  return true;
}

bool Query::HasValidTableIndices() const {
  for (const Predicate& p : predicates) {
    if (p.table < 0 || static_cast<size_t>(p.table) >= num_tables())
      return false;
  }
  return true;
}

int Query::TableIndex(const std::string& name) const {
  for (size_t t = 0; t < tables.size(); ++t)
    if (tables[t] == name) return static_cast<int>(t);
  return -1;
}

std::vector<Predicate> Query::TablePredicates(int t) const {
  std::vector<Predicate> out;
  for (const Predicate& p : predicates)
    if (p.table == t) out.push_back(p);
  return out;
}

std::string Query::ToString(const Table& table) const {
  std::ostringstream out;
  out << "SELECT COUNT(*) FROM " << table.name() << " WHERE ";
  for (size_t i = 0; i < predicates.size(); ++i) {
    const Predicate& p = predicates[i];
    if (i > 0) out << " AND ";
    AppendPredicate(out, table.column(static_cast<size_t>(p.column)).name, p);
  }
  return out.str();
}

std::string Query::ToString() const {
  std::ostringstream out;
  out << "SELECT COUNT(*) FROM ";
  for (size_t i = 0; i < tables.size(); ++i) {
    if (i > 0) out << ", ";
    out << tables[i];
  }
  bool first = true;
  for (const JoinEdge& e : joins) {
    out << (first ? " WHERE " : " AND ");
    first = false;
    out << e.left_table << ".c" << e.left_column << " = " << e.right_table
        << ".c" << e.right_column;
  }
  for (const Predicate& p : predicates) {
    out << (first ? " WHERE " : " AND ");
    first = false;
    const bool named = p.table >= 0 && static_cast<size_t>(p.table) <
                                           tables.size();
    AppendPredicate(out,
                    (named ? tables[static_cast<size_t>(p.table)] : "?") +
                        ".c" + std::to_string(p.column),
                    p);
  }
  return out.str();
}

size_t ExecuteCount(const Table& table, const Query& query) {
  ARECEL_CHECK_MSG(query.IsSingleTable(), "ExecuteCount on a join query");
  return scan::BlockScanner(table).Count(query);
}

size_t ExecuteCountNaive(const Table& table, const Query& query) {
  for (const Predicate& p : query.predicates) {
    ARECEL_CHECK_MSG(
        p.column >= 0 && static_cast<size_t>(p.column) < table.num_cols(),
        "predicate column outside the table");
  }
  if (!query.IsSatisfiable()) return 0;
  const size_t rows = table.num_rows();
  // Columns are resolved outside the row loop, which reads each value by
  // row; Predicate::Matches is the interval oracle, so this path and the
  // vectorized one share one definition of the semantics.
  struct Bound {
    const ColumnValues* values;
    const Predicate* pred;
  };
  std::vector<Bound> bounds;
  bounds.reserve(query.predicates.size());
  for (const Predicate& p : query.predicates)
    bounds.push_back({&table.column(static_cast<size_t>(p.column)).values, &p});
  size_t count = 0;
  for (size_t r = 0; r < rows; ++r) {
    bool match = true;
    for (const Bound& b : bounds) {
      if (!b.pred->Matches((*b.values)[r])) {
        match = false;
        break;
      }
    }
    count += match ? 1 : 0;
  }
  return count;
}

double ExecuteSelectivity(const Table& table, const Query& query) {
  if (table.num_rows() == 0) return 0.0;
  return static_cast<double>(ExecuteCount(table, query)) /
         static_cast<double>(table.num_rows());
}

std::vector<double> LabelQueries(const Table& table,
                                 const std::vector<Query>& queries) {
  for (const Query& query : queries)
    ARECEL_CHECK_MSG(query.IsSingleTable(), "LabelQueries on a join query");
  return scan::BlockScanner(table).Label(queries);
}

}  // namespace arecel
