#include "estimators/join/join_support.h"

#include "util/check.h"

namespace arecel {

std::string WrappedTableName(const Table& table) {
  return table.name().empty() ? "t" : table.name();
}

Schema WrapSingleTable(const Table& table) {
  Schema schema;
  if (!table.name().empty()) {
    schema.AddTable(table);
    return schema;
  }
  Table named(WrappedTableName(table));
  for (const Column& col : table.columns()) {
    named.AddColumn(col.name, col.values, col.categorical);
  }
  schema.AddTable(std::move(named));
  return schema;
}

JoinWorkload WrapSingleTableWorkload(const std::string& table,
                                     const Workload& workload) {
  JoinWorkload out;
  out.queries.reserve(workload.size());
  for (const Query& q : workload.queries) {
    out.queries.push_back(SingleTableJoinQuery(table, q));
  }
  out.selectivities = workload.selectivities;
  return out;
}

std::string StarCenterTable(const Schema& schema) {
  ARECEL_CHECK(schema.num_tables() > 0);
  if (schema.foreign_keys().empty()) {
    ARECEL_CHECK_MSG(schema.num_tables() == 1,
                     "multi-table schema without FK edges has no star center");
    return schema.tables()[0].name();
  }
  const auto& fks = schema.foreign_keys();
  for (const std::string& candidate : {fks[0].table, fks[0].ref_table}) {
    bool on_all = true;
    for (const ForeignKey& fk : fks) {
      if (fk.table != candidate && fk.ref_table != candidate) {
        on_all = false;
        break;
      }
    }
    if (on_all) return candidate;
  }
  ARECEL_CHECK_MSG(false, "schema join graph is not a star");
  return {};
}

}  // namespace arecel
