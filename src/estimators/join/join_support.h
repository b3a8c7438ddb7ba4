#ifndef ARECEL_ESTIMATORS_JOIN_JOIN_SUPPORT_H_
#define ARECEL_ESTIMATORS_JOIN_JOIN_SUPPORT_H_

#include <string>
#include <vector>

#include "data/schema.h"
#include "util/check.h"
#include "workload/query.h"

namespace arecel {

// Shared plumbing of the join-capable estimators. Train(table, ...) wraps
// the table into a one-table schema and routes through TrainJoin; a query
// that names no tables is then bound to that one table. That keeps every
// registry-wide single-table sweep (conformance, property, golden) valid
// for the join estimators without a second code path.

// Copies `table` into a one-table schema, named "t" when the table is
// unnamed (Schema requires non-empty names).
Schema WrapSingleTable(const Table& table);

// The records of a trained model's tables (`infos`, each with a `name`)
// for each table of `query`, in query order. A query naming no tables is
// bound to the model's only table. Aborts on an unknown name, on a
// single-table query to a multi-table model, and on a predicate whose
// `table` index is out of range.
template <typename Info>
std::vector<const Info*> ResolveQueryTables(const Query& query,
                                            const std::vector<Info>& infos) {
  ARECEL_CHECK_MSG(query.HasValidTableIndices(),
                   "predicate table index out of range");
  std::vector<const Info*> resolved;
  if (query.tables.empty()) {
    ARECEL_CHECK_MSG(infos.size() == 1,
                     "query names no tables but the model has several");
    resolved.push_back(&infos[0]);
    return resolved;
  }
  resolved.reserve(query.tables.size());
  for (const std::string& name : query.tables) {
    const Info* found = nullptr;
    for (const Info& info : infos) {
      if (info.name == name) {
        found = &info;
        break;
      }
    }
    ARECEL_CHECK_MSG(found != nullptr, name.c_str());
    resolved.push_back(found);
  }
  return resolved;
}

}  // namespace arecel

#endif  // ARECEL_ESTIMATORS_JOIN_JOIN_SUPPORT_H_
