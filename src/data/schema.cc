#include "data/schema.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/check.h"
#include "util/random.h"

namespace arecel {

void Schema::AddTable(Table table) {
  ARECEL_CHECK_MSG(!table.name().empty(), "schema tables must be named");
  ARECEL_CHECK_MSG(FindTable(table.name()) == nullptr, table.name().c_str());
  tables_.push_back(std::move(table));
}

void Schema::AddForeignKey(ForeignKey fk) {
  const Table* from = FindTable(fk.table);
  const Table* to = FindTable(fk.ref_table);
  ARECEL_CHECK_MSG(from != nullptr, fk.table.c_str());
  ARECEL_CHECK_MSG(to != nullptr, fk.ref_table.c_str());
  ARECEL_CHECK(fk.column >= 0 &&
               static_cast<size_t>(fk.column) < from->num_cols());
  ARECEL_CHECK(fk.ref_column >= 0 &&
               static_cast<size_t>(fk.ref_column) < to->num_cols());
  fks_.push_back(std::move(fk));
}

const Table* Schema::FindTable(const std::string& name) const {
  for (const Table& t : tables_)
    if (t.name() == name) return &t;
  return nullptr;
}

const Table& Schema::table(const std::string& name) const {
  const Table* t = FindTable(name);
  ARECEL_CHECK_MSG(t != nullptr, name.c_str());
  return *t;
}

int Schema::TableIndex(const std::string& name) const {
  for (size_t i = 0; i < tables_.size(); ++i)
    if (tables_[i].name() == name) return static_cast<int>(i);
  return -1;
}

const ForeignKey* Schema::FindEdge(const std::string& table,
                                   const std::string& ref_table) const {
  for (const ForeignKey& fk : fks_) {
    if ((fk.table == table && fk.ref_table == ref_table) ||
        (fk.table == ref_table && fk.ref_table == table)) {
      return &fk;
    }
  }
  return nullptr;
}

int Schema::EdgeIndex(const ForeignKey& fk) const {
  for (size_t i = 0; i < fks_.size(); ++i) {
    const ForeignKey& e = fks_[i];
    if (e.table == fk.table && e.column == fk.column &&
        e.ref_table == fk.ref_table && e.ref_column == fk.ref_column) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool Schema::IsKeyColumn(const std::string& table, int column) const {
  for (const ForeignKey& fk : fks_) {
    if (fk.table == table && fk.column == column) return true;
    if (fk.ref_table == table && fk.ref_column == column) return true;
  }
  return false;
}

std::string StarCenterTable(const Schema& schema) {
  ARECEL_CHECK(schema.num_tables() > 0);
  const auto& fks = schema.foreign_keys();
  if (fks.empty()) {
    ARECEL_CHECK_MSG(schema.num_tables() == 1,
                     "multi-table schema without FK edges has no star center");
    return schema.tables()[0].name();
  }
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

bool Schema::CheckIntegrity(std::string* detail) const {
  auto fail = [detail](const std::string& message) {
    if (detail != nullptr) *detail = message;
    return false;
  };
  for (const ForeignKey& fk : fks_) {
    const Table& from = table(fk.table);
    const Table& to = table(fk.ref_table);
    const Column& key = to.column(static_cast<size_t>(fk.ref_column));
    // Referenced side must be unique: domain size == row count.
    if (key.domain_size() != to.num_rows()) {
      return fail("referenced column " + fk.ref_table + "." + key.name +
                  " is not unique");
    }
    std::unordered_set<double> keys;
    for (const std::span<const double> run : key.values.spans()) {
      keys.insert(run.begin(), run.end());
    }
    const Column& ref = from.column(static_cast<size_t>(fk.column));
    for (size_t r = 0; r < ref.values.size(); ++r) {
      if (keys.count(ref.values[r]) == 0) {
        return fail("dangling FK " + fk.table + "." + ref.name + " row " +
                    std::to_string(r));
      }
    }
  }
  return true;
}

namespace {

// Bands a key drawn from [0, key_domain) into [0, payload_domain): the
// deterministic key->payload map that makes payload predicates select
// contiguous key ranges.
double Band(uint64_t key, size_t key_domain, int payload_domain) {
  return std::floor(static_cast<double>(key) *
                    static_cast<double>(payload_domain) /
                    static_cast<double>(key_domain));
}

}  // namespace

Schema GenerateStarSchema(const StarSchemaOptions& options, uint64_t seed) {
  StarSchemaOptions opt = options;
  opt.num_dimensions = std::clamp(opt.num_dimensions, 1, 8);
  opt.fact_payload_cols = std::max(1, opt.fact_payload_cols);
  opt.dim_payload_cols = std::max(1, opt.dim_payload_cols);
  opt.payload_domain = std::max(2, opt.payload_domain);
  ARECEL_CHECK(opt.dim_rows > 0);
  ARECEL_CHECK(opt.fact_rows > 0);

  Schema schema;
  Rng rng(seed);

  // Dimensions: unique pk plus banded payload attributes.
  for (int d = 0; d < opt.num_dimensions; ++d) {
    Table dim("dim" + std::to_string(d));
    std::vector<double> pk(opt.dim_rows);
    for (size_t r = 0; r < opt.dim_rows; ++r)
      pk[r] = static_cast<double>(r);
    dim.AddColumn("pk", std::move(pk), /*categorical=*/true);
    for (int c = 0; c < opt.dim_payload_cols; ++c) {
      std::vector<double> attr(opt.dim_rows);
      for (size_t r = 0; r < opt.dim_rows; ++r) {
        attr[r] = rng.Bernoulli(opt.correlation)
                      ? Band(r, opt.dim_rows, opt.payload_domain)
                      : static_cast<double>(rng.UniformInt(
                            static_cast<uint64_t>(opt.payload_domain)));
      }
      dim.AddColumn("a" + std::to_string(c), std::move(attr),
                    /*categorical=*/false);
    }
    schema.AddTable(std::move(dim));
  }

  // Fact: one Zipf-skewed FK per dimension (sharing a per-row latent with
  // probability `correlation`), then payload attributes banded on fk0.
  const ZipfSampler fanout(opt.dim_rows, opt.fk_skew);
  std::vector<std::vector<double>> fks(
      static_cast<size_t>(opt.num_dimensions),
      std::vector<double>(opt.fact_rows));
  std::vector<std::vector<double>> payload(
      static_cast<size_t>(opt.fact_payload_cols),
      std::vector<double>(opt.fact_rows));
  for (size_t r = 0; r < opt.fact_rows; ++r) {
    const double latent = rng.Uniform();
    uint64_t fk0 = 0;
    for (int d = 0; d < opt.num_dimensions; ++d) {
      const double u =
          rng.Bernoulli(opt.correlation) ? latent : rng.Uniform();
      const uint64_t key = fanout.InvertCdf(u);
      fks[static_cast<size_t>(d)][r] = static_cast<double>(key);
      if (d == 0) fk0 = key;
    }
    for (int c = 0; c < opt.fact_payload_cols; ++c) {
      payload[static_cast<size_t>(c)][r] =
          rng.Bernoulli(opt.correlation)
              ? Band(fk0, opt.dim_rows, opt.payload_domain)
              : static_cast<double>(rng.UniformInt(
                    static_cast<uint64_t>(opt.payload_domain)));
    }
  }

  Table fact("fact");
  for (int d = 0; d < opt.num_dimensions; ++d) {
    fact.AddColumn("dim" + std::to_string(d) + "_fk",
                   std::move(fks[static_cast<size_t>(d)]),
                   /*categorical=*/true);
  }
  for (int c = 0; c < opt.fact_payload_cols; ++c) {
    fact.AddColumn("a" + std::to_string(c),
                   std::move(payload[static_cast<size_t>(c)]),
                   /*categorical=*/false);
  }
  schema.AddTable(std::move(fact));

  for (int d = 0; d < opt.num_dimensions; ++d) {
    ForeignKey fk;
    fk.table = "fact";
    fk.column = d;
    fk.ref_table = "dim" + std::to_string(d);
    fk.ref_column = 0;
    schema.AddForeignKey(std::move(fk));
  }
  return schema;
}

}  // namespace arecel
