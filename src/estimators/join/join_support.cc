#include "estimators/join/join_support.h"

namespace arecel {

Schema WrapSingleTable(const Table& table) {
  Schema schema;
  if (!table.name().empty()) {
    schema.AddTable(table);
    return schema;
  }
  Table named("t");
  for (const Column& col : table.columns()) {
    named.AddColumn(col.name, col.values, col.categorical);
  }
  schema.AddTable(std::move(named));
  return schema;
}

}  // namespace arecel
