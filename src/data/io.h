#ifndef ARECEL_DATA_IO_H_
#define ARECEL_DATA_IO_H_

#include <string>

#include "data/table.h"
#include "util/archive.h"
#include "workload/generator.h"

namespace arecel {

// Compact binary persistence for tables and labelled workloads.
//
// Ground-truth labelling is the most expensive part of preparing an
// experiment (a full scan per query); saving a labelled workload next to
// its table lets repeated bench runs skip it. The format is a little-endian
// tagged container (magic + version header); loads validate the header and
// return false on any structural mismatch rather than aborting.

bool SaveTable(const Table& table, const std::string& path);
bool LoadTable(const std::string& path, Table* table);

// The column layout inside a table file, shared with the estimators that
// persist a row sample (sampling, mscn): the table name, the column count,
// then per column its name, a u32 categorical flag and its values. Only the
// values are stored; ReadTable rebuilds each dictionary. ReadTable returns
// false on a truncated stream, on columns of unequal length and on a
// non-empty column with no non-NaN value.
void WriteTable(const Table& table, ByteWriter* writer);
bool ReadTable(ByteReader* reader, Table* table);

// The workload file holds single-table queries; SaveWorkload returns false
// for a workload with a join query.
bool SaveWorkload(const Workload& workload, const std::string& path);
bool LoadWorkload(const std::string& path, Workload* workload);

}  // namespace arecel

#endif  // ARECEL_DATA_IO_H_
