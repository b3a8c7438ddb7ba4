#ifndef ARECEL_DATA_IO_H_
#define ARECEL_DATA_IO_H_

#include "data/table.h"
#include "util/archive.h"

namespace arecel {

// The byte layout of a table inside a stored model. The estimators that
// persist a row sample (sampling, mscn) embed it in their model payloads,
// so it must not move: the table name, the column count, then per column
// its name, a u32 categorical flag and its values. Only the values are
// stored; ReadTable rebuilds each dictionary. ReadTable returns false on a
// truncated stream, on columns of unequal length and on a non-empty column
// with no non-NaN value. Tables and workloads are never stored on their
// own: a program regenerates them from the dataset spec and seed.
void WriteTable(const Table& table, ByteWriter* writer);
bool ReadTable(ByteReader* reader, Table* table);

}  // namespace arecel

#endif  // ARECEL_DATA_IO_H_
