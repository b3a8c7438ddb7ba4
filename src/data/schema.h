#ifndef ARECEL_DATA_SCHEMA_H_
#define ARECEL_DATA_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/table.h"

namespace arecel {

// One PK–FK edge: `table`.`column` references `ref_table`.`ref_column`,
// which must hold unique values (the referenced table's primary key).
// Columns are indices into the owning table's column list.
struct ForeignKey {
  std::string table;
  int column = 0;
  std::string ref_table;
  int ref_column = 0;
};

// A multi-table schema: named tables plus the foreign-key edges between
// them. Tables are owned by value; the join executor, workload generator
// and join-capable estimators all read through this one object, so the
// schema must outlive anything built over it (same contract as
// Table/BlockScanner).
class Schema {
 public:
  Schema() = default;

  // Adds a table. Names must be unique and non-empty.
  void AddTable(Table table);

  // Declares a PK–FK edge. Both tables must already be added and the
  // column indices must be in range.
  void AddForeignKey(ForeignKey fk);

  size_t num_tables() const { return tables_.size(); }
  const std::vector<Table>& tables() const { return tables_; }
  const std::vector<ForeignKey>& foreign_keys() const { return fks_; }

  // Lookup by name; table() aborts on a missing name, FindTable returns
  // nullptr.
  const Table& table(const std::string& name) const;
  const Table* FindTable(const std::string& name) const;
  int TableIndex(const std::string& name) const;  // -1 when missing.

  // The FK edge connecting `table` to `ref_table` in either direction
  // (nullptr when the pair is not joined). A star schema has exactly one
  // edge per (fact, dimension) pair.
  const ForeignKey* FindEdge(const std::string& table,
                             const std::string& ref_table) const;

  // Index of `fk` within foreign_keys() by field equality (-1 if absent) —
  // the stable id join featurizations one-hot over.
  int EdgeIndex(const ForeignKey& fk) const;

  // True when (table, column) participates in any FK edge, on either side.
  // Workload generators exclude key columns from predicate generation: the
  // paper's join benchmarks predicate on payload attributes, and a literal
  // predicate on a surrogate key would be meaningless.
  bool IsKeyColumn(const std::string& table, int column) const;

  // Verifies referential integrity: every referenced column holds unique
  // values and every FK value appears in its referenced column. On failure
  // returns false and describes the first violation in `detail` (may be
  // null).
  bool CheckIntegrity(std::string* detail) const;

 private:
  std::vector<Table> tables_;
  std::vector<ForeignKey> fks_;
};

// The star center of `schema`: the table sharing an FK edge with every
// other table (the only table of a one-table schema). Aborts on non-star
// graphs.
std::string StarCenterTable(const Schema& schema);

// Seeded star-schema generator: one fact table ("fact") with a Zipf-skewed
// FK column per dimension plus numeric payload attributes, and
// `num_dimensions` dimension tables ("dim0", "dim1", ...) each holding a
// unique integer "pk" column plus payload attributes.
//
// Correlation structure (the regime where independence-assuming join
// estimators demonstrably err — §7 of the paper's follow-up benchmarks):
//  * dimension payloads band the key space: with probability `correlation`
//    attr = floor(pk * domain / rows), so a range predicate on a dimension
//    attribute selects a contiguous pk band;
//  * FK fan-out is Zipf(`fk_skew`) over the pk space: low pks are
//    referenced far more often, so the selected band's true fan-out can be
//    orders off the uniform-fan-out assumption;
//  * all FK draws share one latent uniform per fact row (kept with
//    probability `correlation`), correlating dimensions with each other;
//  * fact payloads band the dim0 FK the same way, correlating fact
//    predicates with dimension predicates.
struct StarSchemaOptions {
  size_t fact_rows = 20000;
  int num_dimensions = 3;       // clamped to [1, 8].
  size_t dim_rows = 128;        // rows per dimension table.
  int fact_payload_cols = 2;    // non-key fact attributes.
  int dim_payload_cols = 2;     // non-key attributes per dimension.
  int payload_domain = 32;      // distinct values per payload attribute.
  double fk_skew = 1.0;         // Zipf exponent of FK fan-out (0 = uniform).
  double correlation = 0.8;     // key<->payload and cross-dim coupling.
};

Schema GenerateStarSchema(const StarSchemaOptions& options, uint64_t seed);

}  // namespace arecel

#endif  // ARECEL_DATA_SCHEMA_H_
