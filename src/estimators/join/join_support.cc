#include "estimators/join/join_support.h"

namespace arecel {

Schema WrapSingleTable(const Table& table) {
  Schema schema;
  if (!table.name().empty()) {
    schema.AddTable(table);
    return schema;
  }
  Table named = table;
  named.set_name("t");
  schema.AddTable(std::move(named));
  return schema;
}

}  // namespace arecel
